//! Byte-for-byte stdout gates for the reproduction drivers with no other
//! golden: `bound_checks`, `counterexamples`, `coupling`, `extensions`
//! (both topology backends), `kp_path`, `lazy_factor` and `lollipop`.
//!
//! Each driver runs at its smallest size with `--trials 4` under
//! `--threads 1` and `--threads 2`; both runs must reproduce the committed
//! fixture exactly. Per-trial seeds make the output independent of the
//! thread count, so one fixture serves both. A diff here means the RNG
//! consumption or the numerics of an entry point changed.
//!
//! `degenerate_inputs_do_not_panic` feeds the spec-driven drivers sizes
//! their families cannot build and zero trial counts: they must exit 0,
//! render what is valid, and footnote each bad cell on stderr.
//! `counterexamples` rejects a gadget size below 4 as a usage error
//! (exit code 2), and so do `extensions` on a size its families cannot
//! build, every driver on a malformed flag, every driver that reads no
//! positional argument on a stray one, every spec-driven driver on a
//! `--resume` file that is not a checkpoint and every other driver on any
//! `--resume`; a usage error writes nothing to stdout. `--help` prints the
//! shared flags to stdout and exits 0. No run may panic.
//!
//! `closed_stdout_exits_zero` reads one byte of each driver's stdout and
//! closes the pipe, as `| head -c 1` does: the driver must exit 0 without
//! a panic report.

use std::io::Read;
use std::process::{Command, Stdio};

fn check(stem: &str, bin: &str, args: &[&str]) {
    let path = format!(
        "{}/tests/fixtures/{stem}_golden.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for threads in ["1", "2"] {
        let out = Command::new(bin)
            .args(args)
            .args(["--trials", "4", "--threads", threads])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(
            out.status.success(),
            "{stem} --threads {threads} exited with {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("driver stdout is UTF-8");
        assert!(
            got == golden,
            "{stem} --threads {threads} diverged from {path}\n--- got ---\n{got}"
        );
    }
}

#[test]
fn counterexamples() {
    let bin = env!("CARGO_BIN_EXE_counterexamples");
    check("counterexamples", bin, &["--sizes", "16"]);
}

#[test]
fn coupling() {
    check(
        "coupling",
        env!("CARGO_BIN_EXE_coupling"),
        &["--sizes", "16"],
    );
}

#[test]
fn extensions() {
    let bin = env!("CARGO_BIN_EXE_extensions");
    check("extensions", bin, &["--sizes", "16"]);
    let implicit = ["--sizes", "16", "--topology", "implicit"];
    check("extensions_implicit", bin, &implicit);
}

#[test]
fn lollipop() {
    check(
        "lollipop",
        env!("CARGO_BIN_EXE_lollipop"),
        &["--sizes", "8,12"],
    );
}

#[test]
fn kp_path() {
    check("kp_path", env!("CARGO_BIN_EXE_kp_path"), &["--sizes", "16"]);
}

#[test]
fn lazy_factor() {
    check(
        "lazy_factor",
        env!("CARGO_BIN_EXE_lazy_factor"),
        &["--sizes", "32"],
    );
}

#[test]
fn bound_checks() {
    check(
        "bound_checks",
        env!("CARGO_BIN_EXE_bound_checks"),
        &["--sizes", "32"],
    );
}

/// Runs `bin` with `args` and returns its exit code, stdout and stderr; a
/// panic anywhere fails the test.
fn run_quietly(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?}:\n{stderr}");
    (out.status.code(), stdout, stderr)
}

#[test]
fn degenerate_inputs_do_not_panic() {
    let lollipop = env!("CARGO_BIN_EXE_lollipop");
    let lazy_factor = env!("CARGO_BIN_EXE_lazy_factor");
    let kp_path = env!("CARGO_BIN_EXE_kp_path");
    // (binary, arguments, footnote the bad cell must leave on stderr)
    let cases: [(&str, &[&str], Option<&str>); 5] = [
        (
            lollipop,
            &["--sizes", "3,8", "--trials", "2"],
            Some("# cell 0"),
        ),
        (
            lazy_factor,
            &["--sizes", "0", "--trials", "2"],
            Some("# cell 0"),
        ),
        (
            kp_path,
            &["--sizes", "0", "--trials", "2"],
            Some("# cell 0"),
        ),
        (lollipop, &["--sizes", "8", "--trials", "0"], None),
        (kp_path, &["--sizes", "16", "--trials", "0"], None),
    ];
    for (bin, args, footnote) in cases {
        let (code, _, stderr) = run_quietly(bin, args);
        assert_eq!(code, Some(0), "{bin} {args:?}:\n{stderr}");
        if let Some(note) = footnote {
            assert!(stderr.contains(note), "{bin} {args:?}:\n{stderr}");
        }
    }
    // a gadget too small to build is a usage error, not a crash
    let counterexamples = env!("CARGO_BIN_EXE_counterexamples");
    let (code, stdout, stderr) = run_quietly(counterexamples, &["--sizes", "3", "--trials", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stdout, "", "counterexamples --sizes 3 wrote to stdout");
    assert!(stderr.starts_with("counterexamples: "), "{stderr}");
    assert!(stderr.contains("n >= 4"), "{stderr}");
    // so is a size `extensions` cannot build, a malformed flag in every
    // driver that parses `Options`, a value a driver reads itself (family,
    // schedule, process), and a `--resume` file that is not a checkpoint
    // or cannot be read, in every spec-driven driver
    let extensions = env!("CARGO_BIN_EXE_extensions");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let engine_throughput = env!("CARGO_BIN_EXE_engine_throughput");
    let grid2d = env!("CARGO_BIN_EXE_grid2d");
    let scratch = std::env::temp_dir().join(format!("driver_goldens_{}", std::process::id()));
    let resume_dir = scratch.join("a_directory");
    std::fs::create_dir_all(&resume_dir).unwrap();
    let garbage = scratch.join("garbage.ndjson");
    std::fs::write(&garbage, "garbage line\n{\"also\": \"not a record\"}\n").unwrap();
    // drivers that keep no checkpoint reject `--resume` instead of
    // ignoring it, and must not create the file
    let unused = scratch.join("unused.ndjson");
    let (garbage, resume_dir) = (garbage.to_str().unwrap(), resume_dir.to_str().unwrap());
    let unused_str = unused.to_str().unwrap();
    let no_resume = ["--sizes", "16", "--trials", "2", "--resume", unused_str];
    let usage_errors: &[(&str, &str, &[&str])] = &[
        (extensions, "extensions", &["--sizes", "0", "--trials", "2"]),
        (extensions, "extensions", &no_resume),
        (
            env!("CARGO_BIN_EXE_bound_checks"),
            "bound_checks",
            &no_resume,
        ),
        (env!("CARGO_BIN_EXE_coupling"), "coupling", &no_resume),
        (counterexamples, "counterexamples", &no_resume),
        (engine_throughput, "engine_throughput", &no_resume),
        // a driver that reads no positional argument rejects a stray one
        (lazy_factor, "lazy_factor", &["--bogus"]),
        (grid2d, "grid2d", &["--sizes", "12", "--bogus"]),
        (table1, "table1", &["--trials"]),
        (table1, "table1", &["--trials", "x"]),
        (table1, "table1", &["--format", "yaml"]),
        (table1, "table1", &["--budget", "ci:0"]),
        (table1, "table1", &["--sizes", "3,a"]),
        (table1, "table1", &["--topology", "foo"]),
        (table1, "table1", &["nosuchfamily", "--trials", "1"]),
        (
            table1,
            "table1",
            &["clique", "--bogus", "--sizes", "16", "--trials", "1"],
        ),
        (table1, "table1", &["clique", "cycle", "--trials", "1"]),
        (engine_throughput, "engine_throughput", &["--schedules"]),
        (
            engine_throughput,
            "engine_throughput",
            &["--schedules", "walk"],
        ),
        (engine_throughput, "engine_throughput", &["nosuchfamily"]),
        (grid2d, "grid2d", &["--process", "fast"]),
        (table1, "table1", &["--resume", garbage, "--trials", "1"]),
        (table1, "table1", &["--resume", resume_dir, "--trials", "1"]),
        (
            table1,
            "table1",
            &[
                "clique", "--sizes", "32", "--trials", "5", "--resume", garbage,
            ],
        ),
    ];
    for (bin, name, args) in usage_errors {
        let (code, stdout, stderr) = run_quietly(bin, args);
        assert_eq!(code, Some(2), "{name} {args:?}:\n{stderr}");
        assert_eq!(stdout, "", "{name} {args:?} wrote to stdout before failing");
        assert!(
            stderr.starts_with(&format!("{name}: ")),
            "{name} {args:?}:\n{stderr}"
        );
        if args.contains(&unused_str) {
            assert!(
                stderr.starts_with(&format!("{name}: --resume ")),
                "{name} {args:?}:\n{stderr}"
            );
            assert!(!unused.exists(), "{name} {args:?} created {unused_str}");
        }
    }
    // the other spec-driven drivers, on the same corrupt checkpoint (a
    // driver may note its sweep on stderr before the error line)
    let open_problem1 = env!("CARGO_BIN_EXE_open_problem1");
    let args = ["--sizes", "16", "--trials", "1", "--resume", garbage];
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_clique_constants"), "clique_constants"),
        (env!("CARGO_BIN_EXE_ctu_vs_parallel"), "ctu_vs_parallel"),
        (grid2d, "grid2d"),
        (kp_path, "kp_path"),
        (lazy_factor, "lazy_factor"),
        (lollipop, "lollipop"),
        (open_problem1, "open_problem1"),
        (env!("CARGO_BIN_EXE_table1_aux"), "table1_aux"),
    ] {
        let (code, stdout, stderr) = run_quietly(bin, &args);
        assert_eq!(code, Some(2), "{name} {args:?}:\n{stderr}");
        assert_eq!(stdout, "", "{name} {args:?} wrote to stdout before failing");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with(&format!("{name}: --resume ")),
            "{name} {args:?}:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // `--help` prints the shared flags and exits before any work; without
    // it these command lines would run a whole default sweep
    for (bin, name) in [
        (open_problem1, "open_problem1"),
        (lazy_factor, "lazy_factor"),
    ] {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name} --help:\n{stdout}");
        assert!(
            stdout.starts_with(&format!("usage: {name} ")),
            "{name} --help:\n{stdout}"
        );
        assert!(stdout.contains("--trials K"), "{name} --help:\n{stdout}");
    }
}

/// Every driver, at a size that prints its report in several writes,
/// keeps exit code 0 and stays quiet when its reader goes away after one
/// byte. A driver whose last write lands before the pipe closes never
/// sees the closed pipe, so a run passes either way; `table1`, for one,
/// writes per family and meets it on every run.
#[test]
fn closed_stdout_exits_zero() {
    let small = ["--sizes", "16", "--trials", "2"];
    let cases: [(&str, &[&str]); 14] = [
        (
            env!("CARGO_BIN_EXE_bound_checks"),
            &["--sizes", "32", "--trials", "2"],
        ),
        (env!("CARGO_BIN_EXE_clique_constants"), &small),
        (env!("CARGO_BIN_EXE_counterexamples"), &small),
        (env!("CARGO_BIN_EXE_coupling"), &small),
        (env!("CARGO_BIN_EXE_ctu_vs_parallel"), &small),
        (
            env!("CARGO_BIN_EXE_engine_throughput"),
            &["--sizes", "64", "--trials", "1"],
        ),
        (env!("CARGO_BIN_EXE_extensions"), &small),
        (
            env!("CARGO_BIN_EXE_grid2d"),
            &["--sizes", "12", "--trials", "2"],
        ),
        (env!("CARGO_BIN_EXE_kp_path"), &small),
        (
            env!("CARGO_BIN_EXE_lazy_factor"),
            &["--sizes", "32", "--trials", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_lollipop"),
            &["--sizes", "8", "--trials", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_open_problem1"),
            &["--sizes", "16", "--trials", "1"],
        ),
        (env!("CARGO_BIN_EXE_table1"), &small),
        (env!("CARGO_BIN_EXE_table1_aux"), &small),
    ];
    for (bin, args) in cases {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let mut stdout = child.stdout.take().unwrap();
        stdout.read_exact(&mut [0u8; 1]).unwrap();
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin} {args:?}:\n{stderr}");
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}:\n{stderr}");
    }
}
