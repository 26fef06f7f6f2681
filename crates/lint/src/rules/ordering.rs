//! `ordering-justified` — every atomic memory ordering carries its proof.
//!
//! The workspace's atomics are counters and flags — the serve metrics and
//! job counters, shard and shutdown signals, the runner's cancel flag,
//! `par_trials`' trial cursor — each with its own soundness argument. Each
//! argument is easy to state and easy to silently invalidate in a refactor
//! — e.g. a `Relaxed` counter that was fine as a statistic becomes a race
//! the day someone gates control flow on it. The rule forces the argument
//! to live next to the code: every `Ordering::{Relaxed, Acquire, Release,
//! AcqRel, SeqCst}` use in non-test code must have a comment containing
//! `ORDERING:` on the same line or within the four lines above it (one
//! justification block may cover a tight cluster of uses).
//!
//! Approximation: matches the token path `Ordering::<mode>`, so `use
//! std::sync::atomic::Ordering` itself does not fire, and `cmp::Ordering`
//! variants (`Less`/`Equal`/`Greater`) are never matched.

use super::{Finding, Rule, Usages};
use crate::source::SourceFile;

const MODES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How many lines above a use the `ORDERING:` comment may sit.
const WINDOW: u32 = 4;

pub struct OrderingJustified;

impl Rule for OrderingJustified {
    fn id(&self) -> &'static str {
        "ordering-justified"
    }

    fn description(&self) -> &'static str {
        "every atomic Ordering::* use needs an adjacent `// ORDERING:` justification"
    }

    fn check(&self, f: &SourceFile, _: Option<&Usages>, out: &mut Vec<Finding>) {
        if f.is_test_code() {
            return;
        }
        for i in 0..f.tokens.len() {
            if f.ident(i) != Some("Ordering") || !f.punct(i + 1, b':') || !f.punct(i + 2, b':') {
                continue;
            }
            let Some(mode) = f.ident(i + 3) else { continue };
            if !MODES.contains(&mode) {
                continue;
            }
            let line = f.line(i);
            if f.in_test_region(line) || f.comment_near(line, WINDOW, "ORDERING:") {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "Ordering::{mode} without an adjacent `// ORDERING:` justification — \
                     state why this ordering is sufficient (within {WINDOW} lines above)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/serve/src/x.rs", src);
        let mut out = Vec::new();
        OrderingJustified.check(&f, None, &mut out);
        out
    }

    #[test]
    fn unjustified_load_fires() {
        let out = findings("fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("Relaxed"));
    }

    #[test]
    fn justified_same_line_or_above() {
        let same = "let x = c.load(Ordering::Relaxed); // ORDERING: monotone counter";
        assert!(findings(same).is_empty());
        let above = "// ORDERING: monotone counter, stale reads only under-report\nlet x = c.load(Ordering::Acquire);";
        assert!(findings(above).is_empty());
    }

    #[test]
    fn one_block_covers_a_cluster() {
        let src = "// ORDERING: all three fields are independent stats counters\n\
                   a.store(1, Ordering::Relaxed);\n\
                   b.store(2, Ordering::Relaxed);\n\
                   c.store(3, Ordering::Relaxed);\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn window_is_bounded() {
        let src = "// ORDERING: far away\n\n\n\n\n\nc.load(Ordering::SeqCst);";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        assert!(findings("fn f() -> Ordering { Ordering::Less }").is_empty());
        assert!(findings("use std::sync::atomic::Ordering;").is_empty());
    }

    #[test]
    fn import_rename_path_still_fires() {
        let out = findings("c.load(atomic::Ordering::Relaxed);");
        assert_eq!(out.len(), 1);
    }
}
