//! The gate: the workspace itself must lint clean, and the contract must
//! have teeth — re-introducing a violation or deleting an annotation has
//! to surface a finding.

use dispersion_lint::{engine, lint_source};
use std::fs;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    root.canonicalize().expect("workspace root")
}

#[test]
fn workspace_lints_clean() {
    let findings = engine::lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "dispersion-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn reintroducing_an_ad_hoc_rng_fails() {
    // The acceptance bar from the contract: a seeded RNG constructed with
    // ad-hoc arithmetic outside sim::rng must be caught.
    let path = "crates/sim/src/parallel.rs";
    let abs = workspace_root().join(path);
    let mut text = fs::read_to_string(&abs).expect("read parallel.rs");
    assert!(
        lint_source(path, &text).is_empty(),
        "baseline must be clean"
    );
    text.push_str(
        "\npub fn rogue(seed: u64, k: usize) -> crate::rng::Xoshiro256pp {\n    \
         crate::rng::Xoshiro256pp::new(seed ^ (k as u64) << 3)\n}\n",
    );
    let findings = lint_source(path, &text);
    assert!(
        findings.iter().any(|f| f.rule == "rng-discipline"),
        "expected rng-discipline to fire on the rogue constructor, got: {findings:?}"
    );
}

#[test]
fn dropping_forbid_unsafe_fails() {
    let path = "crates/core/src/lib.rs";
    let abs = workspace_root().join(path);
    let text = fs::read_to_string(&abs).expect("read core lib.rs");
    let stripped = text.replace("#![forbid(unsafe_code)]", "");
    assert_ne!(text, stripped, "core lib.rs must carry the forbid gate");
    let findings = lint_source(path, &stripped);
    assert!(
        findings.iter().any(|f| f.rule == "forbid-unsafe-present"),
        "expected forbid-unsafe-present to fire, got: {findings:?}"
    );
}
