#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench` (this directory's
crate) and the program's `dispersion-shard-worker` binary with cargo into
$CARGO_TARGET_DIR (default `.bench_build` in the checkout), then runs the
benchmark binary, whose last stdout line is the result object. Exits
non-zero without printing a result if the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run must finish within 180 s; leave room to stop and reap
RUN_TIMEOUT_S = 170


def git(*args):
    """Output of a git command in the checkout, or None outside a
    repository or without git."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_stamp():
    """Which code ran: the git commit of a clean repository; the commit
    plus a digest of the sources when the working tree has changes; the
    digest alone outside a repository (exported checkouts carry no
    .git)."""
    top = git("rev-parse", "--show-toplevel")
    sha = git("rev-parse", "HEAD")
    if top is None or sha is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return source_digest()
    if git("status", "--porcelain") == "":
        return "git:" + sha
    return "git:" + sha + "-dirty+" + source_digest()


def source_digest():
    """A digest of the sources the build reads."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    for pkg, binary in (("perfbench", "perfbench"),
                        ("dispersion-serve", "dispersion-shard-worker")):
        build = subprocess.run(
            ["cargo", "build", "--offline", "--release", "--quiet",
             "--manifest-path", manifest, "-p", pkg, "--bin", binary],
            cwd=ROOT, env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"run.py: building {binary} failed", file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--worker-bin", os.path.join(release, "dispersion-shard-worker"),
        "--out-dir", os.path.join(target, "perfbench-runs"),
        "--stamp", "source=" + source_stamp(),
        "--stamp", "nproc=" + str(len(os.sched_getaffinity(0))),
        "--stamp", "cpu=" + cpu_model(),
        "--stamp", "rustc=" + tool_version(["rustc", "-V"]),
    ]
    # own process group, so shard workers a failed or timed-out run
    # leaves behind are stopped with it
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
