//! Every allow-annotation in the workspace must be load-bearing: disabling
//! any single one has to produce at least one finding. This is what keeps
//! the escape hatch honest — an annotation that suppresses nothing is
//! either already flagged as unused, or (worse) would rot silently; this
//! test closes the second case by construction. Each file is re-linted
//! against the whole workspace's identifier index, so `unused-pub-ok`
//! annotations are held to the same bar.

use dispersion_lint::engine;
use dispersion_lint::rules::Usages;
use dispersion_lint::source::SourceFile;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn every_annotation_is_load_bearing() {
    let root = workspace_root();
    let files = engine::read_workspace(&root).expect("read workspace");
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    // Disabling a marker only edits a comment, so the index stays valid.
    let usages = Usages::index(&parsed);
    let mut annotations_checked = 0usize;
    // Ask the real parser where the annotations are — it already skips
    // doc-comment prose and string literals that merely quote the syntax,
    // so this test can't chase false markers.
    for ((rel, text), parsed) in files.iter().zip(&parsed) {
        let lines: Vec<&str> = text.lines().collect();
        for ann in &parsed.annotations {
            let i = ann.line as usize - 1;
            let line = lines[i];
            let pos = line.rfind("LINT:").expect("annotation line has marker");
            // Disable just this marker, keeping line numbers intact.
            let mut disabled = lines.clone();
            let patched = format!(
                "{}lint-disabled:{}",
                &line[..pos],
                &line[pos + "LINT:".len()..]
            );
            disabled[i] = &patched;
            let modified = disabled.join("\n");
            let findings = engine::lint_source_in(&usages, rel, &modified);
            assert!(
                !findings.is_empty(),
                "{rel}:{}: deleting this annotation produced no finding — it is \
                 not load-bearing:\n    {}",
                ann.line,
                line.trim()
            );
            annotations_checked += 1;
        }
    }
    assert!(
        annotations_checked >= 10,
        "expected to exercise the workspace's annotations, found only \
         {annotations_checked} — did the walker skip them?"
    );
}
