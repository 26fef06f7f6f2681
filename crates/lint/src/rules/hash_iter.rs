//! `no-hash-iter` — no `HashMap`/`HashSet` in deterministic crates.
//!
//! The engine's bit-reproducibility contract (identical outcomes across
//! `--threads`, backends, and checkpoint resume) dies
//! the moment any result depends on hash-map iteration order: `std`'s
//! hasher is `RandomState`-seeded per process, so two runs of the *same
//! binary* can iterate the same map differently. Rather than audit every
//! use site for "do we ever iterate?", the deterministic crates (`core`,
//! `sim`, `graphs`) ban the types outright in non-test code. Genuinely
//! order-free uses (pure membership tests that are never iterated) must be
//! annotated `LINT: no-hash-iter-ok — membership-only: <why>` so the claim
//! is visible in the diff — though the preferred fix is a sorted `Vec` or
//! `BTreeSet`, which makes order-independence structural instead of
//! claimed.
//!
//! Approximation: flags the *identifiers* `HashMap`/`HashSet` (including
//! `use` statements), not constructions reached through aliases.

use super::{Finding, Rule, Usages};
use crate::source::SourceFile;

/// Crates whose outputs are covered by the determinism contract.
const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "graphs"];

pub struct NoHashIter;

impl Rule for NoHashIter {
    fn id(&self) -> &'static str {
        "no-hash-iter"
    }

    fn description(&self) -> &'static str {
        "forbid HashMap/HashSet in non-test code of deterministic crates (core, sim, graphs)"
    }

    fn check(&self, f: &SourceFile, _: Option<&Usages>, out: &mut Vec<Finding>) {
        if f.is_test_code() || !DETERMINISTIC_CRATES.contains(&f.krate.as_str()) {
            return;
        }
        for i in 0..f.tokens.len() {
            let Some(name) = f.ident(i) else { continue };
            if name != "HashMap" && name != "HashSet" {
                continue;
            }
            let line = f.line(i);
            if f.in_test_region(line) {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "{name} in deterministic crate `{}`: iteration order is per-process random; \
                     use a sorted Vec/BTree structure, or annotate a pure membership-only use",
                    f.krate
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        NoHashIter.check(&f, None, &mut out);
        out
    }

    #[test]
    fn fires_in_core_non_test() {
        let out = findings(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn silent_in_serve_and_tests() {
        assert!(findings("crates/serve/src/x.rs", "use std::collections::HashMap;").is_empty());
        assert!(findings("crates/core/tests/x.rs", "use std::collections::HashMap;").is_empty());
        let cfg_test = "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}";
        assert!(findings("crates/core/src/x.rs", cfg_test).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "// a HashMap would be wrong here\nfn f() -> &'static str { \"HashSet\" }";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }
}
