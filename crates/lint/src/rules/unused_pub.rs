//! `unused-pub` — every `pub` item of a library crate has a caller in
//! another file.
//!
//! A `pub` item that no other file names is dead weight the type system
//! cannot see: rustc's `dead_code` lint stops at the crate boundary, so a
//! public helper whose last caller went away compiles, is documented and
//! is maintained forever. This rule flags a bare-`pub` `fn`, `const`,
//! `static`, `struct`, `enum`, `trait` or `type` (methods and associated
//! consts in `impl` blocks included) in a library crate's `src/` when its
//! name appears in no other workspace `.rs` file. The fix is to delete
//! it, or to narrow it to private / `pub(crate)` when only its own crate
//! uses it. A type that must stay public because a public signature
//! names it, or a reference implementation that tests compare against,
//! is annotated `LINT: unused-pub-ok — <reason>`.
//!
//! Scope: `crates/*/src/` and the umbrella's `src/`, minus `bin/`,
//! `main.rs` and `#[cfg(test)]` items; `pub mod` and `pub(...)` items are
//! never flagged. Callers are every workspace file the engine walks —
//! tests, examples, benches and perfbench included.
//!
//! Approximation: a name counts as used when another file carries it as
//! an identifier token (so comments and strings never count), except
//! inside a `pub use` re-export, which forwards a name without using it.
//! Ordinary `use` imports do count: rustc already rejects an unused
//! private import. Two items sharing a name (say, two `new` methods)
//! shield each other.
//!
//! This is the one rule that needs the whole workspace: the engine builds
//! a [`Usages`] index over every file first and hands it to each check.
//! Linting a lone file (`lint_source`) skips the rule.

use super::{Finding, Rule};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Which files name each identifier, `pub use` re-exports left out.
#[derive(Debug, Default)]
pub struct Usages {
    by_name: BTreeMap<String, BTreeSet<String>>,
}

impl Usages {
    /// Indexes the identifiers of `files`.
    pub fn index(files: &[SourceFile]) -> Usages {
        let mut usages = Usages::default();
        for f in files {
            let mut names = BTreeSet::new();
            let mut i = 0;
            while i < f.tokens.len() {
                if let Some(end) = reexport_end(f, i) {
                    i = end + 1;
                    continue;
                }
                if let Some(name) = f.ident(i) {
                    names.insert(name);
                }
                i += 1;
            }
            for name in names {
                usages
                    .by_name
                    .entry(name.to_string())
                    .or_default()
                    .insert(f.path.clone());
            }
        }
        usages
    }

    /// Whether a file other than `path` names `name`.
    fn named_outside(&self, name: &str, path: &str) -> bool {
        self.by_name
            .get(name)
            .is_some_and(|paths| paths.iter().any(|p| p != path))
    }
}

/// If token `i` starts a `pub use` / `pub(...) use` item, the index of
/// its closing `;`.
fn reexport_end(f: &SourceFile, i: usize) -> Option<usize> {
    if f.ident(i) != Some("pub") {
        return None;
    }
    let mut j = i + 1;
    if f.punct(j, b'(') {
        j = f.close_paren(j) + 1;
    }
    if f.ident(j) != Some("use") {
        return None;
    }
    Some(
        (j..f.tokens.len())
            .find(|&k| f.punct(k, b';'))
            .unwrap_or(f.tokens.len()),
    )
}

/// Whether `f` is library source the rule polices.
fn in_scope(f: &SourceFile) -> bool {
    let lib_src = f.path.starts_with("src/")
        || f.path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
    lib_src && !f.is_test_code() && !f.path.contains("/bin/") && !f.path.ends_with("/main.rs")
}

/// The `(kind, name)` of the item whose qualifiers start at token `j`
/// (just after a bare `pub`), or `None` for fields, modules, re-exports
/// and macro fragments.
fn item_at(f: &SourceFile, mut j: usize) -> Option<(&str, &str)> {
    loop {
        let word = f.ident(j)?;
        match word {
            "unsafe" | "async" => j += 1,
            "extern" => {
                j += if matches!(f.ident(j + 1), Some("fn")) {
                    1
                } else {
                    2
                }
            }
            "const" if matches!(f.ident(j + 1), Some("fn" | "unsafe" | "async" | "extern")) => {
                j += 1;
            }
            "static" if f.ident(j + 1) == Some("mut") => {
                return f.ident(j + 2).map(|name| (word, name));
            }
            "fn" | "const" | "static" | "struct" | "enum" | "trait" | "type" => {
                return f
                    .ident(j + 1)
                    .filter(|&n| n != "_")
                    .map(|name| (word, name));
            }
            _ => return None,
        }
    }
}

pub struct UnusedPub;

impl Rule for UnusedPub {
    fn id(&self) -> &'static str {
        "unused-pub"
    }

    fn description(&self) -> &'static str {
        "flag pub items of library crates that no other workspace file names (workspace pass)"
    }

    fn check(&self, f: &SourceFile, usages: Option<&Usages>, out: &mut Vec<Finding>) {
        let Some(usages) = usages else { return };
        if !in_scope(f) {
            return;
        }
        for i in 0..f.tokens.len() {
            if f.ident(i) != Some("pub") || f.punct(i + 1, b'(') {
                continue;
            }
            let Some((kind, name)) = item_at(f, i + 1) else {
                continue;
            };
            let line = f.line(i);
            if f.in_test_region(line) || usages.named_outside(name, &f.path) {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "`pub {kind} {name}` is named in no other workspace file: delete it, \
                     narrow it to private or pub(crate), or annotate why it must stay public"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        let usages = Usages::index(&parsed);
        let mut out = Vec::new();
        for f in &parsed {
            UnusedPub.check(f, Some(&usages), &mut out);
        }
        out
    }

    #[test]
    fn item_kinds_and_qualifiers() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static mut C: u8 = 0;\npub const D: u8 = 0;\npub type E = u8;\n\
                   impl X { pub fn f(&self) {} }\npub const _: () = ();\n";
        let out = findings(&[("crates/x/src/a.rs", src)]);
        let names: Vec<&str> = out
            .iter()
            .map(|f| f.msg.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(
            names,
            [
                "pub fn a",
                "pub fn b",
                "pub static C",
                "pub const D",
                "pub type E",
                "pub fn f"
            ]
        );
    }

    #[test]
    fn fields_modules_and_restricted_items_are_out_of_scope() {
        let src = "pub mod m;\npub(crate) fn g() {}\npub struct S { pub field: u8 }\n\
                   #[cfg(test)]\nmod tests { pub fn helper() {} }\n";
        let out = findings(&[("crates/x/src/a.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("pub struct S"));
    }

    #[test]
    fn bins_tests_and_lone_files_are_skipped() {
        for path in [
            "crates/x/src/bin/b.rs",
            "crates/x/src/main.rs",
            "crates/x/tests/t.rs",
        ] {
            assert!(
                findings(&[(path, "pub fn orphan() {}")]).is_empty(),
                "{path}"
            );
        }
        // a file merely ending in `main.rs` is library source
        assert_eq!(
            findings(&[("crates/x/src/domain.rs", "pub fn f() {}")]).len(),
            1
        );
        let f = SourceFile::parse("crates/x/src/a.rs", "pub fn orphan() {}");
        let mut out = Vec::new();
        UnusedPub.check(&f, None, &mut out);
        assert!(out.is_empty());
    }
}
