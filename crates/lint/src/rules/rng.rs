//! `rng-discipline` — all randomness flows through the derivation helpers.
//!
//! The determinism contract assigns every trial its own RNG stream by
//! *construction*: trial `t` of cell `c` always runs on
//! `Xoshiro256pp::new(trial_seed(master(c), t))`, which is what makes
//! thread counts, shard placement, and checkpoint resume invisible in the
//! output. An ad-hoc seed (`Xoshiro256pp::new(seed ^ k << 3)`) silently
//! re-creates the pre-PR-5 world: streams that collide, overlap, or shift
//! when a loop is reordered. Outside `sim::rng` (where the generator and
//! the helpers live) and `vendor/`, non-test code may only construct RNGs
//! from the derivation helpers `trial_seed`/`splitmix64`, and may not
//! reach for entropy sources at all.
//!
//! Flags, in non-test code of every first-party crate except
//! `crates/sim/src/rng.rs`:
//!
//! * `Xoshiro256pp::new(...)`, `seed_from_u64(...)`, `from_seed(...)`
//!   whose argument tokens do not mention a derivation helper;
//! * `thread_rng` / `from_entropy` / `from_os_rng` / `random_seed`
//!   unconditionally (no entropy in a reproduction).
//!
//! Approximation: "uses a helper" means the balanced argument list contains
//! the identifier `trial_seed` or `splitmix64`. A spec-pinned stream id
//! passed verbatim (e.g. the graph-realization seed a spec carries) is a
//! legitimate exception — annotate it.

use super::{Finding, Rule, Usages};
use crate::source::SourceFile;

const HELPERS: &[&str] = &["trial_seed", "splitmix64"];
const ENTROPY: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "random_seed"];
const CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// The one module allowed to do raw seed arithmetic.
const RNG_HOME: &str = "crates/sim/src/rng.rs";

pub struct RngDiscipline;

impl Rule for RngDiscipline {
    fn id(&self) -> &'static str {
        "rng-discipline"
    }

    fn description(&self) -> &'static str {
        "RNG construction outside sim::rng must derive seeds via trial_seed/splitmix64"
    }

    fn check(&self, f: &SourceFile, _: Option<&Usages>, out: &mut Vec<Finding>) {
        if f.is_test_code() || f.path == RNG_HOME {
            return;
        }
        for i in 0..f.tokens.len() {
            let Some(name) = f.ident(i) else { continue };
            let line = f.line(i);
            if f.in_test_region(line) {
                continue;
            }
            if ENTROPY.contains(&name) {
                out.push(Finding {
                    rule: self.id(),
                    path: f.path.clone(),
                    line,
                    msg: format!(
                        "`{name}`: entropy-seeded RNGs are banned everywhere — every stream \
                         must be reproducible from the experiment seed"
                    ),
                });
                continue;
            }
            // constructor call patterns: `name (` directly, or
            // `Xoshiro256pp :: new (`
            let (ctor, open) = if CONSTRUCTORS.contains(&name) && f.punct(i + 1, b'(') {
                (name.to_string(), i + 1)
            } else if name == "Xoshiro256pp"
                && f.punct(i + 1, b':')
                && f.punct(i + 2, b':')
                && f.ident(i + 3) == Some("new")
                && f.punct(i + 4, b'(')
            {
                ("Xoshiro256pp::new".to_string(), i + 4)
            } else {
                continue;
            };
            let close = f.close_paren(open);
            let derived =
                (open..close).any(|j| f.ident(j).map(|id| HELPERS.contains(&id)).unwrap_or(false));
            if derived {
                continue;
            }
            out.push(Finding {
                rule: self.id(),
                path: f.path.clone(),
                line,
                msg: format!(
                    "`{ctor}` with an ad-hoc seed: derive the stream via \
                     trial_seed/splitmix64 (sim::rng), or annotate a spec-pinned stream id"
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
        RngDiscipline.check(&f, None, &mut out);
        out
    }

    #[test]
    fn ad_hoc_seed_fires() {
        let out = findings(
            "crates/bench/src/bin/x.rs",
            "let mut g = Xoshiro256pp::new(opts.seed ^ (k as u64) << 3);",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("ad-hoc"));
    }

    #[test]
    fn derived_seed_is_clean() {
        let src = "let mut g = Xoshiro256pp::new(trial_seed(master, t as u64));";
        assert!(findings("crates/sim/src/runner.rs", src).is_empty());
        let multi = "let mut g = Xoshiro256pp::new(\n    trial_seed(master, t),\n);";
        assert!(findings("crates/sim/src/runner.rs", multi).is_empty());
    }

    #[test]
    fn seed_from_u64_fires_without_helper() {
        let out = findings(
            "crates/core/src/x.rs",
            "let mut r = StdRng::seed_from_u64(7);",
        );
        assert_eq!(out.len(), 1);
        assert!(findings(
            "crates/core/src/x.rs",
            "let mut r = StdRng::seed_from_u64(trial_seed(s, 0));",
        )
        .is_empty());
    }

    #[test]
    fn entropy_always_fires() {
        let out = findings("crates/serve/src/x.rs", "let mut r = rand::thread_rng();");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rng_home_and_tests_exempt() {
        assert!(findings(RNG_HOME, "let mut r = Xoshiro256pp::new(1);").is_empty());
        assert!(findings(
            "crates/core/tests/x.rs",
            "let mut r = StdRng::seed_from_u64(7);"
        )
        .is_empty());
        let cfg_test =
            "#[cfg(test)]\nmod tests {\n fn t() { let r = StdRng::seed_from_u64(1); }\n}";
        assert!(findings("crates/core/src/x.rs", cfg_test).is_empty());
    }
}
