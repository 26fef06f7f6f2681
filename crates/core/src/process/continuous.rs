//! Continuous-time IDLA variants (Section 4.3).
//!
//! * **CTU-IDLA**: every particle carries a rate-1 exponential clock and
//!   moves when it rings, until it settles. Simulated by superposition: with
//!   `k` unsettled particles the next relevant ring arrives after an
//!   `Exp(k)` delay and belongs to a uniform unsettled particle. (Rings of
//!   settled particles are no-ops and need not be simulated.) `k` only
//!   changes at settles, so the `M` delays between two settles are drawn
//!   together as one `Gamma(M, 1)/k` (see [`crate::engine::schedule`]).
//! * **Continuous Sequential-IDLA**: the sequential process with jump times
//!   given by a Poisson process of intensity 1, so a particle that makes
//!   `ρ` jumps settles at a `Gamma(ρ, 1)`-distributed time on its own clock.
//!
//! Theorem 4.8: `τ_c-unif = τ_par (1 + o(1))`; the clique constants of
//! Theorem 5.2 are proved through exactly this equivalence.
//!
//! The walk/settle loop lives in [`crate::engine`]; this module is the
//! schedule-specific entry point kept for API compatibility.

use crate::engine::schedule::{Ctu, CtuClocks};
use crate::engine::{self, EngineConfig, EngineError, FirstVacant};
use crate::outcome::DispersionOutcome;
use crate::process::sequential::run_sequential;
use crate::process::ProcessConfig;
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

pub use crate::engine::schedule::{sample_exponential, sample_gamma_int};

/// Outcome of a continuous-time run.
#[derive(Clone, Debug)]
pub struct ContinuousOutcome {
    /// Per-particle view (steps, settle vertices).
    pub outcome: DispersionOutcome,
    /// Real (clock) time at which the last particle settled.
    pub settle_time: f64,
}

/// Runs one continuous-time Uniform-IDLA (CTU-IDLA) realization on any
/// [`Topology`] backend.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_ctu<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<ContinuousOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let out = engine::run(g, &mut Ctu::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    let outcome = DispersionOutcome::new(origin, out.steps, out.settled_at, None);
    Ok(ContinuousOutcome {
        outcome,
        settle_time: out.time,
    })
}

/// Runs one CTU-IDLA realization with the literal per-walker-clock
/// schedule ([`CtuClocks`]: one rate-1 exponential clock per walker, kept
/// in a shrinking lazily-pruned min-heap) instead of the superposition
/// schedule used by [`run_ctu`].
///
/// The two are equal in law by memorylessness; this entry point exists as
/// the cross-implementation twin for the statistical-equivalence suite
/// (`crates/core/tests/schedule_equivalence.rs`) — production paths should
/// prefer [`run_ctu`], whose moves cost O(1) instead of O(log k).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_ctu_clocks<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<ContinuousOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let out = engine::run(g, &mut CtuClocks::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    let outcome = DispersionOutcome::new(origin, out.steps, out.settled_at, None);
    Ok(ContinuousOutcome {
        outcome,
        settle_time: out.time,
    })
}

/// Runs one continuous-time Sequential-IDLA realization: a discrete
/// sequential run whose per-particle settle time is `Gamma(ρ_i, 1)` on the
/// particle's own unit-rate Poisson clock; the dispersion time is the
/// maximum over particles.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
pub fn run_continuous_sequential<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<ContinuousOutcome, EngineError> {
    let outcome = run_sequential(g, origin, cfg, rng)?;
    let settle_time = outcome
        .steps
        .iter()
        .map(|&rho| sample_gamma_int(rho, rng))
        .fold(0.0, f64::max);
    Ok(ContinuousOutcome {
        outcome,
        settle_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::parallel::run_parallel;
    use dispersion_graphs::generators::{complete, cycle, hypercube};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_exponential(2.0, &mut rng))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ctu_covers_every_vertex() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_ctu(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.outcome.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..9).collect::<Vec<_>>());
        assert!(o.settle_time > 0.0);
    }

    #[test]
    fn ctu_clique_pi_squared_over_six() {
        // Theorem 5.2 mechanism: E[τ_ctu(K_n)] = Σ_k (n-1)/k² ≈ (π²/6) n.
        let n = 64usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 400;
        let mean: f64 = (0..trials)
            .map(|_| {
                run_ctu(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .settle_time
            })
            .sum::<f64>()
            / trials as f64;
        let expect: f64 = (1..n).map(|k| (n as f64 - 1.0) / (k * k) as f64).sum();
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean {mean} vs exact {expect}"
        );
    }

    #[test]
    fn ctu_clocks_covers_every_vertex() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_ctu_clocks(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.outcome.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..9).collect::<Vec<_>>());
        assert!(o.settle_time > 0.0);
    }

    #[test]
    fn ctu_clocks_clique_pi_squared_over_six() {
        // same Theorem 5.2 exact-law check as the superposition schedule:
        // the per-walker-clock implementation must hit the same constant
        let n = 48usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(14);
        let trials = 400;
        let mean: f64 = (0..trials)
            .map(|_| {
                run_ctu_clocks(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .settle_time
            })
            .sum::<f64>()
            / trials as f64;
        let expect: f64 = (1..n).map(|k| (n as f64 - 1.0) / (k * k) as f64).sum();
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean {mean} vs exact {expect}"
        );
    }

    #[test]
    fn ctu_tracks_parallel_on_hypercube() {
        // Theorem 4.8: τ_ctu ≈ τ_par (1 + o(1)); loose statistical check.
        let g = hypercube(6);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 60;
        let mut ctu = 0.0;
        let mut par = 0.0;
        for _ in 0..trials {
            ctu += run_ctu(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .settle_time;
            par += run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time as f64;
        }
        let ratio = ctu / par;
        assert!((0.7..1.4).contains(&ratio), "ctu/par = {ratio}");
    }

    #[test]
    fn continuous_sequential_time_close_to_steps() {
        // Gamma(ρ,1) concentrates at ρ, so settle_time ≈ dispersion_time
        // for long walks.
        let g = cycle(32);
        let mut rng = StdRng::seed_from_u64(6);
        let o = run_continuous_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let ratio = o.settle_time / o.outcome.dispersion_time as f64;
        assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
    }
}
