//! `no-wallclock` — no wall-clock reads in the deterministic pipeline.
//!
//! A run of the engine or the spec runner must be a pure function of
//! `(spec, seed)`: that is what makes checkpoint resume byte-identical and
//! lets the serve soak diff streams across a SIGKILL. `Instant::now()` /
//! `SystemTime` inside `core` or `sim` would let timing leak into results
//! (adaptive budgets that stop "after a second", time-salted tie-breaks,
//! …) — exactly the class of bug that reproduces on no one else's machine.
//! Timing belongs to the drivers: `bench` binaries and `serve` metrics
//! read clocks freely (exempt by path), the measured pipeline never does.
//!
//! Scope: non-test code of `crates/core` and `crates/sim`. Flags
//! `Instant::now` and any mention of `SystemTime`.

use super::{Finding, Rule, Usages};
use crate::source::SourceFile;

/// Crates whose outputs must be a pure function of `(spec, seed)`.
const CLOCK_FREE_CRATES: &[&str] = &["core", "sim"];

pub struct NoWallclock;

impl Rule for NoWallclock {
    fn id(&self) -> &'static str {
        "no-wallclock"
    }

    fn description(&self) -> &'static str {
        "ban Instant::now/SystemTime in core and sim (bench/serve drivers exempt by path)"
    }

    fn check(&self, f: &SourceFile, _: Option<&Usages>, out: &mut Vec<Finding>) {
        if f.is_test_code() || !CLOCK_FREE_CRATES.contains(&f.krate.as_str()) {
            return;
        }
        for i in 0..f.tokens.len() {
            let hit = match f.ident(i) {
                Some("SystemTime") => Some("SystemTime"),
                Some("Instant")
                    if f.punct(i + 1, b':')
                        && f.punct(i + 2, b':')
                        && f.ident(i + 3) == Some("now") =>
                {
                    Some("Instant::now")
                }
                _ => None,
            };
            let Some(what) = hit else { continue };
            let line = f.line(i);
            if f.in_test_region(line) {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "{what} in `{}`: results must be a pure function of (spec, seed); \
                     move timing into the bench/serve drivers",
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
        NoWallclock.check(&f, None, &mut out);
        out
    }

    #[test]
    fn instant_now_in_sim_fires() {
        let out = findings("crates/sim/src/runner.rs", "let t0 = Instant::now();");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn system_time_in_core_fires() {
        let out = findings(
            "crates/core/src/engine/mod.rs",
            "use std::time::SystemTime;",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn bench_and_serve_exempt() {
        assert!(findings("crates/bench/src/bin/x.rs", "let t0 = Instant::now();").is_empty());
        assert!(findings("crates/serve/src/metrics.rs", "let t0 = Instant::now();").is_empty());
    }

    #[test]
    fn instant_type_position_alone_is_fine() {
        // storing a Duration/Instant handed in by a driver is not a read
        assert!(findings("crates/sim/src/x.rs", "fn f(deadline: Instant) {}").is_empty());
    }
}
