//! Statistical-equivalence suite for the event-chain schedules: the
//! event-chain [`schedule::Uniform`] (movers per move, no-op ticks per
//! settle) must be indistinguishable in law from the retained tick-by-tick
//! loop [`schedule::UniformTicks`], and the superposition
//! [`schedule::Ctu`] (movers per move, elapsed time per settle) from the
//! literal per-walker-clock [`schedule::CtuClocks`].
//!
//! The event-chain implementations necessarily consume the RNG stream
//! differently from their twins, so sample-path equality is impossible —
//! equality holds in *distribution*, and this suite gates it the way
//! `solve_vs_dense.rs` gates the linear-algebra backends:
//!
//! * **exact support**: every implementation settles exactly `V` (so the
//!   final settled sets' law statistics agree identically under matched
//!   trial counts);
//! * **two-sample moment gates** on the dispersion-time and per-particle
//!   step distributions (means within a 5·SE pooled-error band);
//! * **two-sample KS-style gates** on the same per-trial statistics, with
//!   the classical `c·√((n₁+n₂)/(n₁n₂))` threshold.
//!
//! All over fixed seeds × {clique, cycle, torus, path} × sizes, so a
//! regression in either sampler fails deterministically.

mod common;

use common::{ks_statistic, ks_threshold, mean, variance};
use dispersion_core::engine::{self, schedule, EngineConfig, FirstVacant};
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::generators::{complete, cycle, path, torus2d};
use dispersion_graphs::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed family × size grid (small enough for debug-profile CI).
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique-40", complete(40)),
        ("cycle-32", cycle(32)),
        ("torus-6x6", torus2d(6)),
        ("path-24", path(24)),
    ]
}

/// Per-trial scalar statistics of one realization.
struct TrialStats {
    /// Dispersion time in the schedule's native unit (ticks or real time).
    dispersion: f64,
    /// Mean per-particle walk length.
    mean_steps: f64,
    /// Longest per-particle walk.
    max_steps: f64,
}

fn collect<S: schedule::Schedule, F: Fn() -> S>(
    g: &Graph,
    make: F,
    seeds: std::ops::Range<u64>,
    time_unit: fn(&engine::EngineOutcome) -> f64,
) -> Vec<TrialStats> {
    let ecfg = EngineConfig::full(g, 0, &ProcessConfig::simple());
    seeds
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = engine::run(g, &mut make(), &FirstVacant, &ecfg, &mut (), &mut rng).unwrap();
            // exact support: the settled set is a permutation of V — the
            // strongest "law statistic" of the final set, checked on every
            // trial of every implementation
            let mut s = out.settled_at.clone();
            s.sort_unstable();
            assert_eq!(s, (0..g.n() as u32).collect::<Vec<_>>());
            let k = out.steps.len() as f64;
            TrialStats {
                dispersion: time_unit(&out),
                mean_steps: out.total_steps as f64 / k,
                max_steps: out.steps.iter().copied().max().unwrap() as f64,
            }
        })
        .collect()
}

/// Gates `a` and `b` as samples of the same distribution: means within a
/// 5·SE pooled band and KS below `c·√((n₁+n₂)/(n₁n₂))` with `c = 1.95`
/// (α ≈ 10⁻³; seeds are fixed, so any failure is a real regression).
fn assert_same_distribution(label: &str, a: &[f64], b: &[f64]) {
    let (ma, mb) = (mean(a), mean(b));
    let se = (variance(a) / a.len() as f64 + variance(b) / b.len() as f64).sqrt();
    assert!(
        (ma - mb).abs() <= 5.0 * se + 1e-12,
        "{label}: means {ma} vs {mb} differ by more than 5·SE ({se})"
    );
    let d = ks_statistic(a, b);
    let threshold = ks_threshold(a.len(), b.len());
    assert!(
        d <= threshold,
        "{label}: KS statistic {d} above threshold {threshold}"
    );
}

fn gate_pair(label: &str, a: &[TrialStats], b: &[TrialStats]) {
    let pick =
        |xs: &[TrialStats], f: fn(&TrialStats) -> f64| -> Vec<f64> { xs.iter().map(f).collect() };
    assert_same_distribution(
        &format!("{label}/dispersion"),
        &pick(a, |t| t.dispersion),
        &pick(b, |t| t.dispersion),
    );
    assert_same_distribution(
        &format!("{label}/mean-steps"),
        &pick(a, |t| t.mean_steps),
        &pick(b, |t| t.mean_steps),
    );
    assert_same_distribution(
        &format!("{label}/max-steps"),
        &pick(a, |t| t.max_steps),
        &pick(b, |t| t.max_steps),
    );
}

const TRIALS: u64 = 220;

#[test]
fn uniform_event_driven_matches_tick_loop() {
    for (name, g) in families() {
        let n = g.n();
        let ticks_unit = |o: &engine::EngineOutcome| o.settle_tick as f64;
        let legacy = collect(
            &g,
            || schedule::UniformTicks::new(n),
            1_000..1_000 + TRIALS,
            ticks_unit,
        );
        let event = collect(
            &g,
            || schedule::Uniform::new(n),
            50_000..50_000 + TRIALS,
            ticks_unit,
        );
        gate_pair(&format!("uniform/{name}"), &legacy, &event);
    }
}

#[test]
fn ctu_superposition_matches_per_walker_clocks() {
    for (name, g) in families() {
        let time_unit = |o: &engine::EngineOutcome| o.time;
        let superpos = collect(&g, schedule::Ctu::new, 2_000..2_000 + TRIALS, time_unit);
        let clocks = collect(
            &g,
            schedule::CtuClocks::new,
            60_000..60_000 + TRIALS,
            time_unit,
        );
        gate_pair(&format!("ctu/{name}"), &superpos, &clocks);
    }
}

#[test]
fn uniform_twins_disagree_with_a_different_law() {
    // negative control: the gates have teeth — feed them a genuinely
    // different distribution and expect rejection. The clique dispersion
    // tail is heavy (the last active particle's gap dominates, CV ≈ 1), so
    // a mild scale factor can hide inside the 5·SE band at 120 trials; a
    // 2.5× scaling cannot
    let g = complete(40);
    let n = g.n();
    let ticks_unit = |o: &engine::EngineOutcome| o.settle_tick as f64;
    let event = collect(&g, || schedule::Uniform::new(n), 0..120, ticks_unit);
    let shifted: Vec<TrialStats> = collect(&g, || schedule::Uniform::new(n), 200..320, ticks_unit)
        .into_iter()
        .map(|t| TrialStats {
            dispersion: t.dispersion * 2.5,
            mean_steps: t.mean_steps,
            max_steps: t.max_steps,
        })
        .collect();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_same_distribution(
            "negative-control/dispersion",
            &event.iter().map(|t| t.dispersion).collect::<Vec<_>>(),
            &shifted.iter().map(|t| t.dispersion).collect::<Vec<_>>(),
        );
    }));
    assert!(
        caught.is_err(),
        "a 2.5x scaled distribution passed the gate"
    );
}

#[test]
fn uniform_event_driven_is_deterministic_per_seed() {
    // the mover and settle-clock draws derive from the trial's RNG stream
    // alone: same seed → identical outcome (steps, ticks, settled set),
    // across repeated runs
    let g = torus2d(6);
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    for seed in [3u64, 17, 91] {
        let run_once = || {
            let mut rng = StdRng::seed_from_u64(seed);
            engine::run(
                &g,
                &mut schedule::Uniform::new(g.n()),
                &FirstVacant,
                &ecfg,
                &mut (),
                &mut rng,
            )
            .unwrap()
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.settled_at, b.settled_at);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.settle_tick, b.settle_tick);
    }
}
