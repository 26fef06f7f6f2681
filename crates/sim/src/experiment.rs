//! High-level experiment drivers: estimate dispersion times of any process
//! variant over many parallel trials, streaming statistics out of the
//! schedule-generic engine instead of materialising per-run state.

use crate::parallel::par_trials;
use crate::stats::Summary;
use dispersion_core::engine::observer::PhaseTimes;
use dispersion_core::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use dispersion_core::process::continuous::sample_gamma_int;
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

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

    /// Runs one realization through the engine with the observer `obs`
    /// attached, returning the raw [`engine::EngineOutcome`].
    ///
    /// Generic over the graph backend: pass a `&Graph` or one of the
    /// implicit `dispersion_graphs::topology` families — the engine
    /// monomorphises per backend, so implicit runs never materialise an
    /// adjacency.
    ///
    /// This is the composition point: pass `&mut (&mut time, &mut shape)`
    /// to measure several statistics in a single pass.
    ///
    /// For [`Process::ContinuousSequential`] the jump sequence is the
    /// discrete sequential run (that is what observers see); the outcome's
    /// `time` field carries the per-particle `Gamma(ρ, 1)` Poisson-clock
    /// settle time, sampled after the walk.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    pub fn run_observed<T, O, R>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        obs: &mut O,
        rng: &mut R,
    ) -> Result<engine::EngineOutcome, EngineError>
    where
        T: Topology + ?Sized,
        O: engine::Observer,
        R: Rng + ?Sized,
    {
        let ecfg = EngineConfig::full(g, origin, cfg);
        match self {
            Process::Sequential => engine::run(
                g,
                &mut schedule::Sequential::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::ContinuousSequential => {
                let mut out = engine::run(
                    g,
                    &mut schedule::Sequential::new(),
                    &FirstVacant,
                    &ecfg,
                    obs,
                    rng,
                )?;
                out.time = out
                    .steps
                    .iter()
                    .map(|&rho| sample_gamma_int(rho, rng))
                    .fold(0.0, f64::max);
                Ok(out)
            }
            Process::Parallel => engine::run(
                g,
                &mut schedule::Parallel::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Uniform => engine::run(
                g,
                &mut schedule::Uniform::new(g.n()),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Ctu => {
                engine::run(g, &mut schedule::Ctu::new(), &FirstVacant, &ecfg, obs, rng)
            }
        }
    }

    /// Runs one realization and returns its dispersion time in the process's
    /// native unit (steps, rounds, ticks or real time).
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
    /// a finished [`engine::EngineOutcome`] (steps for Sequential, rounds
    /// for Parallel, global ticks for Uniform, real time for the
    /// continuous clocks).
    pub fn dispersion_of(self, out: &engine::EngineOutcome) -> f64 {
        match self {
            Process::Sequential | Process::Parallel => out.dispersion_time() as f64,
            Process::Uniform => out.settle_tick as f64,
            Process::Ctu | Process::ContinuousSequential => out.time,
        }
    }
}

/// Turns per-trial results into a `Result` over the whole sample, keeping
/// the error of the *smallest* trial index so the outcome is deterministic
/// regardless of thread scheduling.
fn collect_trials<T>(results: Vec<Result<T, EngineError>>) -> Result<Vec<T>, EngineError> {
    // results are in trial order already (par_trials merges by index)
    results.into_iter().collect()
}

/// Draws `trials` dispersion-time samples of `process` on `g` from `origin`
/// across `threads` workers, deterministically in `seed`. Works on any
/// `Sync` [`Topology`] backend.
///
/// # Errors
///
/// Returns the error of the first (lowest-index) trial whose engine run
/// exceeded the step cap; no worker thread ever panics mid-trial.
pub fn try_dispersion_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Result<Vec<f64>, EngineError> {
    collect_trials(par_trials(trials, threads, seed, |_, rng| {
        process.try_dispersion_time(g, origin, cfg, rng)
    }))
}

/// Panicking convenience wrapper over [`try_dispersion_samples`].
///
/// # Panics
///
/// Panics (at the call site, after all trials resolve — never inside a
/// worker thread) if any trial exceeded the step cap.
pub fn dispersion_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Vec<f64> {
    try_dispersion_samples(g, origin, process, cfg, trials, threads, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Summary of [`try_dispersion_samples`].
///
/// # Errors
///
/// Propagates the first trial's [`EngineError`], like
/// [`try_dispersion_samples`].
#[allow(clippy::too_many_arguments)]
pub fn try_estimate_dispersion<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Result<Summary, EngineError> {
    Ok(Summary::from_samples(&try_dispersion_samples(
        g, origin, process, cfg, trials, threads, seed,
    )?))
}

/// Summary of [`dispersion_samples`].
///
/// # Panics
///
/// Panics if any trial exceeded the step cap; see
/// [`try_estimate_dispersion`].
#[allow(clippy::too_many_arguments)]
pub fn estimate_dispersion<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Summary {
    try_estimate_dispersion(g, origin, process, cfg, trials, threads, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Draws `trials` samples of the *total* number of steps (all particles),
/// the quantity that Theorem 4.1 shows is equidistributed between the
/// sequential and parallel processes.
///
/// # Errors
///
/// Returns the lowest-index trial's [`EngineError`] instead of panicking
/// in a worker thread.
pub fn try_total_steps_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Result<Vec<f64>, EngineError> {
    collect_trials(par_trials(trials, threads, seed, |_, rng| {
        // the continuous clocks do not change the jump sequence, so every
        // variant's total steps comes straight from its engine outcome
        let p = match process {
            Process::ContinuousSequential => Process::Sequential,
            p => p,
        };
        Ok(p.run_observed(g, origin, cfg, &mut (), rng)?.total_steps as f64)
    }))
}

/// Panicking convenience wrapper over [`try_total_steps_samples`].
///
/// # Panics
///
/// Panics if any trial exceeded the step cap.
pub fn total_steps_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    process: Process,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Vec<f64> {
    try_total_steps_samples(g, origin, process, cfg, trials, threads, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Draws `trials` Theorem 3.3/3.5 phase profiles of the Parallel schedule:
/// each sample is `phases[j]`, the first round at which fewer than `2^j`
/// particles remain unsettled (`j = 0` is the full dispersion time). The
/// profile streams out of a [`PhaseTimes`] observer — no trajectories are
/// stored, so this works at any `n` the simulation itself can reach.
///
/// # Errors
///
/// Returns the lowest-index trial's [`EngineError`] instead of panicking
/// in a worker thread.
pub fn try_phase_time_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Result<Vec<Vec<u64>>, EngineError> {
    collect_trials(par_trials(trials, threads, seed, |_, rng| {
        let mut phases = PhaseTimes::for_particles(g.n());
        Process::Parallel.run_observed(g, origin, cfg, &mut phases, rng)?;
        Ok(phases.phases)
    }))
}

/// Panicking convenience wrapper over [`try_phase_time_samples`].
///
/// # Panics
///
/// Panics if any trial exceeded the step cap.
pub fn phase_time_samples<T: Topology + Sync + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    trials: usize,
    threads: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    try_phase_time_samples(g, origin, cfg, trials, threads, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Column means of [`phase_time_samples`]: `profile[j]` is the mean round
/// at which fewer than `2^j` particles remained.
pub fn mean_phase_profile(samples: &[Vec<u64>]) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let jmax = samples[0].len();
    (0..jmax)
        // LINT: float-reduction-ok — column mean in sample-slot order, which
        // the deterministic merge already fixed
        .map(|j| samples.iter().map(|s| s[j] as f64).sum::<f64>() / samples.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{consistent_with_dominance, ks_p_value};
    use dispersion_graphs::generators::{complete, cycle};

    #[test]
    fn sequential_estimate_on_clique_near_kappa_cc() {
        let n = 256usize;
        let g = complete(n);
        let s = estimate_dispersion(
            &g,
            0,
            Process::Sequential,
            &ProcessConfig::simple(),
            300,
            4,
            1,
        );
        let ratio = s.mean / n as f64;
        // κ_cc ≈ 1.255
        assert!((1.0..1.6).contains(&ratio), "t_seq/n = {ratio}");
    }

    #[test]
    fn parallel_estimate_on_clique_near_pi2_over_6() {
        let n = 256usize;
        let g = complete(n);
        let s = estimate_dispersion(
            &g,
            0,
            Process::Parallel,
            &ProcessConfig::simple(),
            300,
            4,
            2,
        );
        let ratio = s.mean / n as f64;
        // π²/6 ≈ 1.645
        assert!((1.3..2.0).contains(&ratio), "t_par/n = {ratio}");
    }

    #[test]
    fn theorem_4_1_statistics_on_cycle() {
        let g = cycle(24);
        let cfg = ProcessConfig::simple();
        let seq = dispersion_samples(&g, 0, Process::Sequential, &cfg, 800, 4, 3);
        let par = dispersion_samples(&g, 0, Process::Parallel, &cfg, 800, 4, 4);
        // stochastic dominance τ_seq ⪯ τ_par up to sampling noise
        assert!(consistent_with_dominance(&seq, &par, 0.08));
        // total steps equidistributed
        let ts = total_steps_samples(&g, 0, Process::Sequential, &cfg, 800, 4, 5);
        let tp = total_steps_samples(&g, 0, Process::Parallel, &cfg, 800, 4, 6);
        let p = ks_p_value(&ts, &tp);
        assert!(p > 0.001, "total-steps KS p-value {p}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = cycle(16);
        let cfg = ProcessConfig::simple();
        let a = dispersion_samples(&g, 0, Process::Parallel, &cfg, 50, 2, 42);
        let b = dispersion_samples(&g, 0, Process::Parallel, &cfg, 50, 8, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn all_process_labels_distinct() {
        let ps = Process::all();
        let mut labels: Vec<_> = ps.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ps.len());
    }

    #[test]
    fn try_dispersion_time_surfaces_cap() {
        let g = cycle(32);
        let cfg = ProcessConfig::simple().with_cap(4);
        let mut rng = crate::rng::Xoshiro256pp::new(1);
        let err = Process::Parallel
            .try_dispersion_time(&g, 0, &cfg, &mut rng)
            .unwrap_err();
        assert!(matches!(err, EngineError::StepCapExceeded { .. }));
    }

    #[test]
    fn try_samplers_propagate_cap_instead_of_panicking() {
        let g = cycle(32);
        let cfg = ProcessConfig::simple().with_cap(4);
        assert!(matches!(
            try_dispersion_samples(&g, 0, Process::Parallel, &cfg, 16, 4, 1),
            Err(EngineError::StepCapExceeded { .. })
        ));
        assert!(try_estimate_dispersion(&g, 0, Process::Parallel, &cfg, 16, 4, 1).is_err());
        assert!(try_total_steps_samples(&g, 0, Process::Parallel, &cfg, 16, 4, 1).is_err());
        assert!(try_phase_time_samples(&g, 0, &cfg, 16, 4, 1).is_err());
        // and a healthy run still succeeds through the same paths
        let ok =
            try_dispersion_samples(&g, 0, Process::Parallel, &ProcessConfig::simple(), 8, 2, 1)
                .unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn phase_profiles_monotone_and_anchor_at_dispersion() {
        let g = complete(64);
        let cfg = ProcessConfig::simple();
        let samples = phase_time_samples(&g, 0, &cfg, 20, 4, 9);
        assert_eq!(samples.len(), 20);
        for s in &samples {
            for w in s.windows(2) {
                assert!(w[0] >= w[1], "profile not monotone: {s:?}");
            }
        }
        let profile = mean_phase_profile(&samples);
        assert_eq!(profile.len(), samples[0].len());
        // phases[0] is the full dispersion time; it must dominate the rest
        assert!(profile[0] >= profile[profile.len() - 1]);
    }

    #[test]
    fn observers_compose_through_process() {
        use dispersion_core::engine::observer::{DispersionTime, Odometer};
        let g = complete(32);
        let mut rng = crate::rng::Xoshiro256pp::new(4);
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        let out = Process::Parallel
            .run_observed(
                &g,
                0,
                &ProcessConfig::simple(),
                &mut (&mut time, &mut odo),
                &mut rng,
            )
            .unwrap();
        assert_eq!(time.max_steps, out.dispersion_time());
        assert_eq!(odo.steps, out.total_steps);
    }
}
