//! Fixture self-tests: every rule has a bad snippet it must fire on (the
//! negative control) and a good snippet it must stay silent on.
//!
//! Fixtures live under `tests/fixtures/` — a directory the workspace
//! walker skips, because they *contain* deliberate violations. Each file's
//! first line is a `//@ path: <pretend workspace path>` directive; the
//! snippet is linted as if it lived there, which is how path-scoped rules
//! (clock-free crates, the engine directory, `src/lib.rs`) get exercised.

use dispersion_lint::{lint_source, lint_sources, Finding};
use std::fs;
use std::path::PathBuf;

/// `(fixture stem, rule id)` — both `<stem>_bad.rs` and `<stem>_good.rs`
/// must exist for every entry.
const PAIRS: &[(&str, &str)] = &[
    ("no_hash_iter", "no-hash-iter"),
    ("ordering", "ordering-justified"),
    ("wallclock", "no-wallclock"),
    ("rng", "rng-discipline"),
    ("forbid_unsafe", "forbid-unsafe-present"),
    ("no_panic", "engine-no-panic"),
    ("float_reduction", "float-reduction"),
    ("unused_pub", "unused-pub"),
    ("bad_annotation", "bad-annotation"),
];

/// Lints a fixture. The per-file rules' fixtures go through `lint_source`,
/// which leaves `unused-pub` out; the `unused_pub` pair is linted as a
/// one-file workspace, so a `pub` item in it has no caller.
fn lint_fixture(stem: &str, path: &str, text: &str) -> Vec<Finding> {
    if stem == "unused_pub" {
        lint_sources(&[(path.to_string(), text.to_string())])
    } else {
        lint_source(path, text)
    }
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Reads a fixture and returns `(pretend_path, source)`.
fn load(name: &str) -> (String, String) {
    let file = fixture_dir().join(name);
    let text = fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", file.display()));
    let first = text.lines().next().unwrap_or("");
    let pretend = first
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{name}: first line must be `//@ path: <path>`"))
        .trim()
        .to_string();
    (pretend, text)
}

#[test]
fn every_bad_fixture_fires_exactly_its_rule() {
    for (stem, rule) in PAIRS {
        let (path, text) = load(&format!("{stem}_bad.rs"));
        let findings = lint_fixture(stem, &path, &text);
        assert!(
            !findings.is_empty(),
            "{stem}_bad.rs: expected `{rule}` to fire, got no findings"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{stem}_bad.rs: stray `{}` finding (fixture must isolate `{rule}`): {f}",
                f.rule
            );
        }
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for (stem, _) in PAIRS {
        let (path, text) = load(&format!("{stem}_good.rs"));
        let findings = lint_fixture(stem, &path, &text);
        assert!(
            findings.is_empty(),
            "{stem}_good.rs: expected clean, got: {}",
            findings
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn fixture_set_is_exactly_the_rule_set() {
    // No unpaired or orphaned fixtures: every file in the directory belongs
    // to a PAIRS entry, and every registered rule plus bad-annotation has a
    // pair.
    let mut names: Vec<String> = fs::read_dir(fixture_dir())
        .expect("fixture dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = PAIRS
        .iter()
        .flat_map(|(stem, _)| [format!("{stem}_bad.rs"), format!("{stem}_good.rs")])
        .collect();
    expected.sort();
    assert_eq!(names, expected);

    let mut covered: Vec<&str> = PAIRS.iter().map(|(_, rule)| *rule).collect();
    covered.sort_unstable();
    let mut rules: Vec<&str> = dispersion_lint::rules::all()
        .iter()
        .map(|r| r.id())
        .chain([dispersion_lint::rules::BAD_ANNOTATION])
        .collect();
    rules.sort_unstable();
    assert_eq!(covered, rules, "a rule is missing its fixture pair");
}

#[test]
fn unused_pub_counts_uses_in_other_files_but_not_reexports() {
    let def = "pub fn called() {}\npub fn reexported_only() {}\n";
    let other = "pub use crate::api::reexported_only;\n\
                 // reexported_only is mentioned here only in a comment\n\
                 pub(crate) fn run() -> &'static str {\n    \
                 crate::api::called();\n    \"reexported_only\"\n}\n";
    let findings = lint_sources(&[
        ("crates/demo/src/api.rs".to_string(), def.to_string()),
        ("crates/demo/src/run.rs".to_string(), other.to_string()),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "unused-pub");
    assert_eq!(
        (findings[0].path.as_str(), findings[0].line),
        ("crates/demo/src/api.rs", 2)
    );
    assert!(findings[0].msg.contains("reexported_only"));
}
