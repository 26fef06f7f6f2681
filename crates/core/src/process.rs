//! The paper's dispersion processes and the one place that maps each to
//! its engine schedule.
//!
//! The five processes (Sections 2 and 4.3) differ only in *who moves at
//! each tick*:
//!
//! * [`Process::Sequential`] — one particle at a time; particle `i + 1`
//!   starts only after particle `i` has settled (Diaconis–Fulton IDLA; on
//!   the clique the coupon collector, Theorem 5.2).
//! * [`Process::Parallel`] — every unsettled particle steps each round;
//!   ties on a vacant vertex go to the smallest index (Section 4,
//!   property (4)).
//! * [`Process::Uniform`] — a uniform particle of `{1, …, n − 1}` per tick;
//!   ticks that pick a settled particle are no-ops (Section 4.2). Runs on
//!   the event-chain [`schedule::Uniform`], which samples each settle
//!   segment's no-op ticks in one draw.
//! * [`Process::Ctu`] — rate-1 exponential clocks (CTU-IDLA, Section 4.3;
//!   Theorem 4.8: `τ_c-unif = τ_par (1 + o(1))`).
//! * [`Process::ContinuousSequential`] — the sequential jump sequence on
//!   unit-rate Poisson clocks: a particle making `ρ` jumps settles at a
//!   `Gamma(ρ, 1)` time on its own clock.
//!
//! [`Process::run`] is the general entry point: `k < n` particles and
//! random origins come from the [`EngineConfig`], generalized stopping
//! (Appendix A) from the [`SettleRule`], and any statistic from the
//! composed [`Observer`]. [`Process::run_observed`] is its standard-run
//! shorthand. Runs that need a schedule the enum does not name (the
//! tick-loop [`schedule::UniformTicks`] twin, which realizes every no-op
//! draw of `R_t`, or the per-walker [`schedule::CtuClocks`]) call
//! [`engine::run`] directly.

use crate::engine::schedule::{self, sample_gamma_int};
use crate::engine::{
    self, EngineConfig, EngineError, EngineOutcome, FirstVacant, Observer, SettleRule,
};
use dispersion_graphs::{Topology, Vertex, WalkKind};
use rand::Rng;

/// Shared configuration of a dispersion-process run.
#[derive(Clone, Copy, Debug)]
pub struct ProcessConfig {
    /// Walk variant the particles perform.
    pub walk: WalkKind,
    /// Safety cap on the *total* number of ticks across all particles; a run
    /// exceeding it returns [`EngineError::StepCapExceeded`] (catches
    /// schedulers that cannot terminate).
    pub step_cap: u64,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            walk: WalkKind::Simple,
            step_cap: 1 << 44,
        }
    }
}

impl ProcessConfig {
    /// Simple walk.
    pub fn simple() -> Self {
        Self::default()
    }

    /// Lazy walk.
    pub fn lazy() -> Self {
        ProcessConfig {
            walk: WalkKind::Lazy,
            ..Self::default()
        }
    }

    /// Overrides the step cap.
    pub fn with_cap(mut self, cap: u64) -> Self {
        self.step_cap = cap;
        self
    }
}

/// Which dispersion process to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Process {
    /// Sequential-IDLA (dispersion = longest walk, in steps).
    Sequential,
    /// Parallel-IDLA (dispersion = rounds until the last particle settles).
    Parallel,
    /// Uniform-IDLA (dispersion = global ticks).
    Uniform,
    /// Continuous-time Uniform IDLA (dispersion = real time).
    Ctu,
    /// Continuous-time Sequential-IDLA (dispersion = real time).
    ContinuousSequential,
}

impl Process {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Process::Sequential => "seq",
            Process::Parallel => "par",
            Process::Uniform => "unif",
            Process::Ctu => "ctu",
            Process::ContinuousSequential => "cseq",
        }
    }

    /// All five scheduler variants, in Table 1 order.
    pub fn all() -> [Process; 5] {
        [
            Process::Sequential,
            Process::Parallel,
            Process::Uniform,
            Process::Ctu,
            Process::ContinuousSequential,
        ]
    }

    /// Runs one realization of this process on `g` under `rule`, streaming
    /// events into `obs`, and returns the raw [`EngineOutcome`].
    ///
    /// Generic over the graph backend: pass a `&Graph` or one of the
    /// implicit `dispersion_graphs::topology` families — the engine
    /// monomorphises per backend, so implicit runs never materialise an
    /// adjacency. Observers compose: pass `&mut (&mut shape, &mut phases)`
    /// to stream several statistics in one pass; read the dispersion time
    /// from the outcome with [`Process::dispersion_of`].
    ///
    /// For [`Process::ContinuousSequential`] the jump sequence is the
    /// discrete sequential run (that is what observers see); the outcome's
    /// `time` field carries the per-particle `Gamma(ρ, 1)` Poisson-clock
    /// settle time, sampled after the walk.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    ///
    /// # Panics
    ///
    /// Panics on the configuration errors [`engine::run`] rejects, e.g.
    /// random origins under a schedule other than the sequential ones.
    pub fn run<T, Q, O, R>(
        self,
        g: &T,
        rule: &Q,
        cfg: &EngineConfig,
        obs: &mut O,
        rng: &mut R,
    ) -> Result<EngineOutcome, EngineError>
    where
        T: Topology + ?Sized,
        Q: SettleRule,
        O: Observer,
        R: Rng + ?Sized,
    {
        match self {
            Process::Sequential => {
                engine::run(g, &mut schedule::Sequential::new(), rule, cfg, obs, rng)
            }
            Process::ContinuousSequential => {
                // the engine directly, not `Process::Sequential.run`: a
                // recursive `run` stops being inlined into its callers
                let mut out =
                    engine::run(g, &mut schedule::Sequential::new(), rule, cfg, obs, rng)?;
                out.time = out
                    .steps
                    .iter()
                    .map(|&rho| sample_gamma_int(rho, rng))
                    .fold(0.0, f64::max);
                Ok(out)
            }
            Process::Parallel => {
                engine::run(g, &mut schedule::Parallel::new(), rule, cfg, obs, rng)
            }
            Process::Uniform => engine::run(
                g,
                &mut schedule::Uniform::new(cfg.particles),
                rule,
                cfg,
                obs,
                rng,
            ),
            Process::Ctu => engine::run(g, &mut schedule::Ctu::new(), rule, cfg, obs, rng),
        }
    }

    /// The standard run: `g.n()` particles from `origin` under the
    /// first-vacant rule — [`Process::run`] with [`EngineConfig::full`] and
    /// [`FirstVacant`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn run_observed<T, O, R>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        obs: &mut O,
        rng: &mut R,
    ) -> Result<EngineOutcome, EngineError>
    where
        T: Topology + ?Sized,
        O: Observer,
        R: Rng + ?Sized,
    {
        self.run(
            g,
            &FirstVacant,
            &EngineConfig::full(g, origin, cfg),
            obs,
            rng,
        )
    }

    /// Runs one standard realization and returns its dispersion time in the
    /// process's native unit (steps, rounds, ticks or real time).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    pub fn try_dispersion_time<T: Topology + ?Sized, R: Rng + ?Sized>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        rng: &mut R,
    ) -> Result<f64, EngineError> {
        let out = self.run_observed(g, origin, cfg, &mut (), rng)?;
        Ok(self.dispersion_of(&out))
    }

    /// Extracts this process's dispersion time, in its native unit, from
    /// a finished [`EngineOutcome`] (steps for Sequential, rounds for
    /// Parallel, global ticks for Uniform, real time for the continuous
    /// clocks).
    pub fn dispersion_of(self, out: &EngineOutcome) -> f64 {
        match self {
            Process::Sequential | Process::Parallel => out.dispersion_time() as f64,
            Process::Uniform => out.settle_tick as f64,
            Process::Ctu | Process::ContinuousSequential => out.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(ProcessConfig::simple().walk, WalkKind::Simple);
        assert_eq!(ProcessConfig::lazy().walk, WalkKind::Lazy);
        assert_eq!(ProcessConfig::simple().with_cap(42).step_cap, 42);
    }

    #[test]
    fn all_process_labels_distinct() {
        let mut labels: Vec<_> = Process::all().iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Process::all().len());
    }
}
