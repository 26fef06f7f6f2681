//! Byte-for-byte stdout gates for the reproduction drivers that call the
//! engine directly (not through the spec runner): `counterexamples`,
//! `coupling`, `extensions` (both topology backends) and `lollipop`.
//!
//! Each driver runs at its smallest size with `--trials 4` under
//! `--threads 1` and `--threads 2`; both runs must reproduce the committed
//! fixture exactly. Per-trial seeds make the output independent of the
//! thread count, so one fixture serves both. A diff here means the RNG
//! consumption or the numerics of an entry point changed.

use std::process::Command;

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
