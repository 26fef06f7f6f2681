//! The driver: file collection, rule application, annotation filtering.
//!
//! `lint_source` is the per-file pipeline and is deliberately public — the
//! self-tests feed it modified file contents under pretend paths.
//! `lint_sources` lints a set of files as one workspace: it first indexes
//! every file's identifiers ([`Usages`]) so the workspace-level
//! `unused-pub` rule can run, then lints each file against that index.
//! `lint_workspace` walks the repo into `lint_sources`, skipping `vendor/`
//! (external stand-ins), `target/`, and any `fixtures/` directory (lint
//! fixtures *contain* deliberate violations).
//!
//! Output is deterministic: files are visited in sorted path order and
//! findings are sorted by `(path, line, rule)` — a lint whose own output
//! depended on directory-iteration order would be a poor determinism
//! checker.

use crate::rules::{self, Finding, Rule, Usages, BAD_ANNOTATION};
use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", ".github"];

/// Lints one file's `text` on its own, as if it lived at
/// workspace-relative `path`.
///
/// Applies every per-file rule, removes findings covered by a
/// `LINT: <rule>-ok — <reason>` annotation, and appends `bad-annotation`
/// findings for malformed, unknown-rule, or unused annotations. The
/// workspace-level `unused-pub` rule needs the other files, so it does not
/// run here and its annotations are not judged.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    lint_file(&SourceFile::parse(path, text), None)
}

/// Lints one file like [`lint_source`], plus `unused-pub` against the
/// workspace index `usages`.
pub fn lint_source_in(usages: &Usages, path: &str, text: &str) -> Vec<Finding> {
    lint_file(&SourceFile::parse(path, text), Some(usages))
}

fn lint_file(file: &SourceFile, usages: Option<&Usages>) -> Vec<Finding> {
    let path = file.path.as_str();
    let mut raw = Vec::new();
    for rule in rules::all() {
        rule.check(file, usages, &mut raw);
    }

    let mut used = vec![false; file.annotations.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut covered = false;
            for (ai, ann) in file.annotations.iter().enumerate() {
                if ann.covers(f.rule, f.line) {
                    used[ai] = true;
                    covered = true;
                }
            }
            !covered
        })
        .collect();

    for (ai, ann) in file.annotations.iter().enumerate() {
        if let Some(problem) = &ann.malformed {
            findings.push(Finding {
                rule: BAD_ANNOTATION,
                path: path.to_string(),
                line: ann.line,
                msg: problem.clone(),
            });
        } else if !rules::known_rule(&ann.rule) {
            findings.push(Finding {
                rule: BAD_ANNOTATION,
                path: path.to_string(),
                line: ann.line,
                msg: format!(
                    "annotation allows unknown rule `{}` — known rules: {}",
                    ann.rule,
                    rules::all()
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        } else if !used[ai] && (usages.is_some() || ann.rule != rules::UnusedPub.id()) {
            findings.push(Finding {
                rule: BAD_ANNOTATION,
                path: path.to_string(),
                line: ann.line,
                msg: format!(
                    "unused annotation `LINT: {}-ok` — it suppresses nothing on this or \
                     the next line; remove it or move it to the violation",
                    ann.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lints `(relative_path, text)` pairs as one workspace: every rule,
/// `unused-pub` included, against an identifier index of all of them.
/// Findings come back sorted by `(path, line, rule)`.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    let usages = Usages::index(&parsed);
    let mut findings: Vec<Finding> = parsed
        .iter()
        .flat_map(|file| lint_file(file, Some(&usages)))
        .collect();
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Reads every workspace `.rs` file under `root` as
/// `(relative_path, text)` pairs, in sorted path order.
pub fn read_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|(rel, abs)| Ok((rel, fs::read_to_string(abs)?)))
        .collect()
}

/// Lints the whole workspace under `root`. Findings come back sorted by
/// `(path, line, rule)`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_sources(&read_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_suppresses_and_is_used() {
        let src = "// LINT: no-hash-iter-ok — membership-only: never iterated\n\
                   use std::collections::HashSet;\n";
        let out = lint_source("crates/graphs/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn deleting_the_annotation_fails() {
        let src = "use std::collections::HashSet;\n";
        let out = lint_source("crates/graphs/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "no-hash-iter");
    }

    #[test]
    fn unused_annotation_is_a_finding() {
        let src = "// LINT: no-hash-iter-ok — nothing here needs this\nfn f() {}\n";
        let out = lint_source("crates/graphs/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, BAD_ANNOTATION);
        assert!(out[0].msg.contains("unused"));
    }

    #[test]
    fn unknown_rule_annotation_is_a_finding() {
        let src = "// LINT: no-such-rule-ok — typo\nuse std::collections::HashSet;\n";
        let out = lint_source("crates/graphs/src/x.rs", src);
        assert_eq!(out.len(), 2); // the HashSet finding + the bad annotation
        assert!(out.iter().any(|f| f.rule == BAD_ANNOTATION));
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let src = "// LINT: no-hash-iter-ok\nuse std::collections::HashSet;\n";
        let out = lint_source("crates/graphs/src/x.rs", src);
        assert!(out.iter().any(|f| f.rule == BAD_ANNOTATION));
        assert!(out.iter().any(|f| f.rule == "no-hash-iter"));
    }

    #[test]
    fn findings_sorted_by_line() {
        let src = "use std::collections::HashSet;\nuse std::collections::HashMap;\n";
        let out = lint_source("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
    }
}
