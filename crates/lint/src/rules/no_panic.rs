//! `engine-no-panic` — the engine hot paths fail with `EngineError`, not
//! panics.
//!
//! PR 3 made the engine `Result`-returning precisely so that drivers can
//! report partial progress at large `n` instead of dying mid-campaign; a
//! stray `unwrap()` reintroduces the abort path. In
//! `crates/core/src/engine/*` non-test code, `unwrap`/`expect` calls and
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` invocations must either
//! be converted to an [`EngineError`] variant or be annotated with the
//! invariant that makes them unreachable
//! (`LINT: engine-no-panic-ok — invariant: <why this cannot fire>`).
//!
//! Documented configuration `assert!`s (precondition validation listed
//! under `# Panics` in the API docs) are deliberately *not* flagged:
//! rejecting an impossible configuration eagerly is part of the API
//! contract, while a panic *after* the run started destroys work.
//!
//! Approximation: matches the exact identifiers `unwrap`/`expect` in
//! method position (so `unwrap_or`, `unwrap_or_default`, `expect_err` do
//! not fire) and the panic-family macros by `name !`.

use super::{Finding, Rule};
use crate::source::SourceFile;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Path fragment selecting the engine hot-path modules.
const ENGINE_DIR: &str = "crates/core/src/engine/";

pub struct EngineNoPanic;

impl Rule for EngineNoPanic {
    fn id(&self) -> &'static str {
        "engine-no-panic"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic! in engine hot paths unless annotated with the invariant"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        if !f.path.starts_with(ENGINE_DIR) || f.is_test_code() {
            return;
        }
        for i in 0..f.tokens.len() {
            let Some(name) = f.ident(i) else { continue };
            let line = f.line(i);
            if f.in_test_region(line) {
                continue;
            }
            let what = if (name == "unwrap" || name == "expect")
                && i > 0
                && f.punct(i - 1, b'.')
                && f.punct(i + 1, b'(')
            {
                format!(".{name}()")
            } else if PANIC_MACROS.contains(&name) && f.punct(i + 1, b'!') {
                format!("{name}!")
            } else {
                continue;
            };
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "{what} in an engine hot path: return an EngineError variant, or annotate \
                     the invariant that makes this unreachable"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/core/src/engine/mod.rs", src);
        let mut out = Vec::new();
        EngineNoPanic.check(&f, &mut out);
        out
    }

    #[test]
    fn unwrap_and_expect_fire() {
        let out = findings("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn panic_family_fires() {
        let out = findings("fn f() { panic!(\"boom\"); unreachable!(); }");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fallible_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn asserts_do_not_fire() {
        assert!(
            findings("fn f() { assert!(k >= 1, \"bad k\"); debug_assert_eq!(a, b); }").is_empty()
        );
    }

    #[test]
    fn other_core_files_out_of_scope() {
        let f = SourceFile::parse("crates/core/src/process.rs", "fn f() { x.unwrap(); }");
        let mut out = Vec::new();
        EngineNoPanic.check(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn test_module_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(findings(src).is_empty());
    }
}
