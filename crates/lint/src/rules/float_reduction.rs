//! `float-reduction` — f64 reductions in the sim layer go through
//! `stats::Online`.
//!
//! Floating-point addition is not associative, so a raw `.sum()` over
//! sample values produces different bits depending on accumulation order —
//! the exact degree of freedom the runner nails down by merging Welford
//! accumulators at fixed chunk boundaries in chunk order. A new `.sum()`
//! in the sim layer either re-creates order sensitivity or silently loses
//! the min/max/M2 tracking the sinks expect. The rule flags statements in
//! `crates/sim/src` non-test code that both mention `f64` and call
//! `.sum(` / `.product(`, unless the statement also mentions `Online`
//! (folding into the accumulator is the sanctioned reduction).
//!
//! Approximation: lexical statement = tokens between `;`/`{`/`}`
//! boundaries; "is an f64 reduction" = the statement names `f64` (a let
//! type ascription or a turbofish). Integer sums (`let n: u64 = …sum()`)
//! never fire. Fixed-length analytic reductions (an OLS fit over a handful
//! of sweep points) are legitimate exceptions — annotate them.

use super::{Finding, Rule, Usages};
use crate::source::SourceFile;

pub struct FloatReduction;

impl Rule for FloatReduction {
    fn id(&self) -> &'static str {
        "float-reduction"
    }

    fn description(&self) -> &'static str {
        "raw f64 .sum()/.product() in the sim layer must use stats::Online or be annotated"
    }

    fn check(&self, f: &SourceFile, _: Option<&Usages>, out: &mut Vec<Finding>) {
        if f.is_test_code() || !f.path.starts_with("crates/sim/src/") {
            return;
        }
        // statement boundaries: indices right after `;`, `{`, `}`
        let mut stmt_start = 0usize;
        let mut i = 0usize;
        while i < f.tokens.len() {
            if f.punct(i, b';') || f.punct(i, b'{') || f.punct(i, b'}') {
                self.check_stmt(f, stmt_start, i, out);
                stmt_start = i + 1;
            }
            i += 1;
        }
        self.check_stmt(f, stmt_start, f.tokens.len(), out);
    }
}

impl FloatReduction {
    fn check_stmt(&self, f: &SourceFile, lo: usize, hi: usize, out: &mut Vec<Finding>) {
        let mut mentions_f64 = false;
        let mut mentions_online = false;
        let mut reduction: Option<(usize, &'static str)> = None;
        for j in lo..hi {
            match f.ident(j) {
                Some("f64") => mentions_f64 = true,
                Some("Online") => mentions_online = true,
                Some("sum") if f.punct(j.wrapping_sub(1), b'.') => {
                    reduction = reduction.or(Some((j, "sum")));
                }
                Some("product") if f.punct(j.wrapping_sub(1), b'.') => {
                    reduction = reduction.or(Some((j, "product")));
                }
                _ => {}
            }
        }
        let Some((j, what)) = reduction else { return };
        if !mentions_f64 || mentions_online {
            return;
        }
        let line = f.line(j);
        if f.in_test_region(line) {
            return;
        }
        out.push(Finding {
            rule: self.id(),
            path: f.path.clone(),
            line,
            msg: format!(
                "raw f64 .{what}() in the sim layer: accumulation order becomes \
                 observable — fold through stats::Online, or annotate a fixed-order \
                 analytic reduction"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/sim/src/fit.rs", src);
        let mut out = Vec::new();
        FloatReduction.check(&f, None, &mut out);
        out
    }

    #[test]
    fn ascribed_f64_sum_fires() {
        let out = findings("fn f(xs: &[f64]) { let s: f64 = xs.iter().sum(); }");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn turbofish_f64_sum_fires() {
        let out = findings("fn f(xs: &[f64]) { let s = xs.iter().sum::<f64>(); }");
        // the fn signature line is a separate "statement" (brace boundary),
        // so only the let fires
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn integer_sum_is_clean() {
        assert!(findings("fn f(xs: &[u64]) { let s: u64 = xs.iter().sum(); }").is_empty());
    }

    #[test]
    fn online_fold_is_clean() {
        let src = "fn f(xs: &[f64]) { let mut o = Online::new(); let s: f64 = fold_online(&mut o, xs).sum_proxy(); }";
        // statement mentions Online -> sanctioned
        assert!(findings(src).is_empty());
    }

    #[test]
    fn out_of_scope_paths_clean() {
        let f = SourceFile::parse(
            "crates/bench/src/bin/x.rs",
            "fn f(xs: &[f64]) { let s: f64 = xs.iter().sum(); }",
        );
        let mut out = Vec::new();
        FloatReduction.check(&f, None, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_line_statement_caught() {
        let src = "fn f(xs: &[f64]) { let ss: f64 = xs\n.iter()\n.map(|x| x * x)\n.sum(); }";
        assert_eq!(findings(src).len(), 1);
    }
}
