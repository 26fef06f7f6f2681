//! Cross-schedule invariant suite for the schedule-generic dispersion
//! engine: every scheduler variant, on every Table 1 graph family, must
//! produce a valid dispersion realization — the settled set is a
//! permutation of `V`, recorded blocks validate under the Section 4
//! machinery, Theorem 4.1 ordering holds in distribution, lazy walks cost
//! about twice the simple ones (Theorem 4.3), and a firing step cap
//! surfaces as [`EngineError::StepCapExceeded`] rather than a panic.

use dispersion_core::block::validate::{
    has_distinct_endpoints, is_parallel_block, is_sequential_block, rows_are_walks,
};
use dispersion_core::engine::observer::{AggregateShape, Odometer, PhaseTimes, TrajectoryBlock};
use dispersion_core::engine::rule::DelayedExcept;
use dispersion_core::engine::{self, schedule, EngineConfig, EngineError, FirstVacant, SettleRule};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::generators::{complete, cycle, path, star};
use dispersion_graphs::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEDULES: [&str; 6] = [
    "sequential",
    "parallel",
    "uniform",
    "uniform-ticks",
    "ctu",
    "ctu-clocks",
];

/// Runs one engine realization of the named schedule: the paper's four
/// through [`Process`], the tick-loop and per-walker-clock twins through
/// [`engine::run`] directly.
fn run_schedule<R: Rng + ?Sized>(
    label: &str,
    g: &Graph,
    cfg: &ProcessConfig,
    obs: &mut impl engine::Observer,
    rng: &mut R,
) -> Result<engine::EngineOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, 0, cfg);
    let process = match label {
        "sequential" => Process::Sequential,
        "parallel" => Process::Parallel,
        "uniform" => Process::Uniform,
        "ctu" => Process::Ctu,
        "uniform-ticks" => {
            let mut ticks = schedule::UniformTicks::new(g.n());
            return engine::run(g, &mut ticks, &FirstVacant, &ecfg, obs, rng);
        }
        "ctu-clocks" => {
            let mut clocks = schedule::CtuClocks::new();
            return engine::run(g, &mut clocks, &FirstVacant, &ecfg, obs, rng);
        }
        other => panic!("unknown schedule {other}"),
    };
    process.run(g, &FirstVacant, &ecfg, obs, rng)
}

#[test]
fn settled_set_is_a_permutation_of_v_everywhere() {
    for (k, family) in Family::table1().into_iter().enumerate() {
        let mut grng = StdRng::seed_from_u64(k as u64);
        let inst = family.instance(48, &mut grng);
        let n = inst.graph.n();
        for (s, label) in SCHEDULES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + (10 * k + s) as u64);
            let out = run_schedule(
                label,
                &inst.graph,
                &ProcessConfig::simple(),
                &mut (),
                &mut rng,
            )
            .unwrap();
            let mut settled = out.settled_at.clone();
            settled.sort_unstable();
            assert_eq!(
                settled,
                (0..n as u32).collect::<Vec<_>>(),
                "{label} on {}: settled set not a permutation of V",
                inst.label
            );
            assert_eq!(out.total_steps, out.steps.iter().sum::<u64>());
            assert!(out.ticks >= out.total_steps, "{label} on {}", inst.label);
        }
    }
}

#[test]
fn recorded_blocks_validate_across_schedules() {
    for (k, family) in Family::table1().into_iter().enumerate() {
        let mut grng = StdRng::seed_from_u64(50 + k as u64);
        let inst = family.instance(32, &mut grng);
        let cfg = ProcessConfig::simple();
        let mut rng = StdRng::seed_from_u64(500 + k as u64);

        // sequential realizations are sequential blocks
        let mut traj = TrajectoryBlock::new();
        run_schedule("sequential", &inst.graph, &cfg, &mut traj, &mut rng).unwrap();
        let sb = traj.into_block();
        assert!(is_sequential_block(&sb), "{}", inst.label);
        assert!(rows_are_walks(&sb, &inst.graph, false), "{}", inst.label);
        assert!(has_distinct_endpoints(&sb), "{}", inst.label);

        // parallel realizations are parallel blocks
        let mut traj = TrajectoryBlock::new();
        run_schedule("parallel", &inst.graph, &cfg, &mut traj, &mut rng).unwrap();
        let pb = traj.into_block();
        assert!(is_parallel_block(&pb), "{}", inst.label);
        assert!(rows_are_walks(&pb, &inst.graph, false), "{}", inst.label);

        // uniform tick-loop realizations carry consistent timing arrays and
        // the complete realized schedule R_t (one entry per tick, no-ops
        // included) — the reason the tick loop is retained
        let mut traj = TrajectoryBlock::with_timing();
        let out = run_schedule("uniform-ticks", &inst.graph, &cfg, &mut traj, &mut rng).unwrap();
        let (ub, timed, sched) = traj.into_parts();
        assert!(has_distinct_endpoints(&ub), "{}", inst.label);
        let timed = timed.unwrap();
        assert_eq!(timed.settle_tick(), out.settle_tick, "{}", inst.label);
        assert_eq!(sched.unwrap().len() as u64, out.ticks, "{}", inst.label);

        // event-chain uniform realizations keep exact rows, and the jump
        // tick of every settling move is exact (earlier moves lag their
        // segment's no-op ticks); the schedule array only sees the move
        // ticks (no-ops are skipped)
        let mut traj = TrajectoryBlock::with_timing();
        let out = run_schedule("uniform", &inst.graph, &cfg, &mut traj, &mut rng).unwrap();
        let (ub, timed, sched) = traj.into_parts();
        assert!(has_distinct_endpoints(&ub), "{}", inst.label);
        let timed = timed.unwrap();
        assert_eq!(timed.settle_tick(), out.settle_tick, "{}", inst.label);
        assert_eq!(
            sched.unwrap().len() as u64,
            out.total_steps,
            "{}",
            inst.label
        );
        assert!(out.ticks >= out.total_steps, "{}", inst.label);
    }
}

#[test]
fn event_driven_uniform_keeps_tick_semantics() {
    // the skipped no-op gaps must be indistinguishable from simulated ones
    // everywhere they are observable: the outcome's tick clock, the
    // Odometer (which counts skips via on_skip), and the settle tick (the
    // clock at every on_settle is pinned by the observer_stream fixture).
    for (k, family) in Family::table1().into_iter().enumerate() {
        let mut grng = StdRng::seed_from_u64(40 + k as u64);
        let inst = family.instance(36, &mut grng);
        let mut rng = StdRng::seed_from_u64(400 + k as u64);
        let mut odo = Odometer::default();
        let out = run_schedule(
            "uniform",
            &inst.graph,
            &ProcessConfig::simple(),
            &mut odo,
            &mut rng,
        )
        .unwrap();
        assert_eq!(odo.ticks, out.ticks, "{}", inst.label);
        assert_eq!(odo.steps, out.total_steps, "{}", inst.label);
        assert_eq!(out.settle_tick, out.ticks, "{}", inst.label);
        // a 36-vertex fill has essentially no chance of zero no-op draws
        assert!(out.ticks > out.total_steps, "{}", inst.label);
    }
}

#[test]
fn ctu_clocks_heap_shrinks_with_the_active_set() {
    // the per-walker clock heap must never exceed active walkers by more
    // than the lazily-pruned settled rings (≤ one per settle), and time
    // must advance monotonically
    let g = dispersion_graphs::generators::complete(32);
    let mut rng = StdRng::seed_from_u64(77);
    let mut sched = schedule::CtuClocks::new();
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    let out = engine::run(&g, &mut sched, &FirstVacant, &ecfg, &mut (), &mut rng).unwrap();
    assert!(out.time > 0.0);
    // after the run: every remaining clock belongs to a settled walker
    assert!(sched.clocks() <= g.n());
}

/// One-sided empirical CDF violation of `A ⪯ B` (0 ≈ consistent).
///
/// The canonical implementation is
/// `dispersion_sim::dominance::dominance_violation`; this local copy exists
/// because `dispersion-core` cannot dev-depend on `dispersion-sim` (cycle).
/// Keep the two in sync.
fn dominance_violation(a: &mut [f64], b: &mut [f64]) -> f64 {
    a.sort_by(|x, y| x.partial_cmp(y).unwrap());
    b.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut worst: f64 = 0.0;
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        worst = worst.max(j as f64 / nb - i as f64 / na);
    }
    worst
}

#[test]
fn theorem_4_1_dominance_smoke() {
    // τ_seq ⪯ τ_par on representative Table 1 families
    for (k, family) in [Family::Complete, Family::Cycle, Family::Hypercube]
        .into_iter()
        .enumerate()
    {
        let mut grng = StdRng::seed_from_u64(70 + k as u64);
        let inst = family.instance(32, &mut grng);
        let cfg = ProcessConfig::simple();
        let mut rng = StdRng::seed_from_u64(700 + k as u64);
        let trials = 300;
        let mut seq: Vec<f64> = Vec::with_capacity(trials);
        let mut par: Vec<f64> = Vec::with_capacity(trials);
        for _ in 0..trials {
            seq.push(
                run_schedule("sequential", &inst.graph, &cfg, &mut (), &mut rng)
                    .unwrap()
                    .dispersion_time() as f64,
            );
            par.push(
                run_schedule("parallel", &inst.graph, &cfg, &mut (), &mut rng)
                    .unwrap()
                    .dispersion_time() as f64,
            );
        }
        let v = dominance_violation(&mut seq, &mut par);
        assert!(v < 0.15, "{}: dominance violation {v}", inst.label);
    }
}

#[test]
fn lazy_costs_about_twice_simple() {
    // Theorem 4.3: lazy dispersion times are 2(1 + o(1))× the simple ones
    let mut grng = StdRng::seed_from_u64(90);
    let inst = Family::Complete.instance(128, &mut grng);
    let mut rng = StdRng::seed_from_u64(900);
    let trials = 150;
    let mean = |cfg: &ProcessConfig, rng: &mut StdRng| -> f64 {
        (0..trials)
            .map(|_| {
                run_schedule("sequential", &inst.graph, cfg, &mut (), rng)
                    .unwrap()
                    .dispersion_time() as f64
            })
            .sum::<f64>()
            / trials as f64
    };
    let simple = mean(&ProcessConfig::simple(), &mut rng);
    let lazy = mean(&ProcessConfig::lazy(), &mut rng);
    let ratio = lazy / simple;
    assert!((1.5..2.6).contains(&ratio), "lazy/simple = {ratio}");
}

#[test]
fn step_cap_surfaces_as_error_on_every_schedule() {
    let g = dispersion_graphs::generators::cycle(64);
    let cfg = ProcessConfig::simple().with_cap(8);
    for label in SCHEDULES {
        let mut rng = StdRng::seed_from_u64(42);
        let err = run_schedule(label, &g, &cfg, &mut (), &mut rng).unwrap_err();
        match &err {
            EngineError::StepCapExceeded {
                schedule,
                cap,
                unsettled,
            } => {
                assert_eq!(*schedule, label);
                assert_eq!(*cap, 8);
                assert!(*unsettled > 0);
            }
        }
        assert!(err.to_string().contains("step cap"), "{err}");
    }
}

#[test]
fn observers_compose_time_shape_and_phases_in_one_pass() {
    // the acceptance composition: Prop 5.10 shape + Thm 3.3 phases + event
    // counts streamed from a single parallel realization, next to the
    // dispersion time its outcome carries
    let side = 16usize;
    let g = dispersion_graphs::generators::torus2d(side);
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(1234);
    let mut shape = AggregateShape::at_counts(0, &[side, side], &[n / 4, n / 2, n]);
    let mut phases = PhaseTimes::for_particles(n);
    let mut odo = Odometer::default();
    let out = run_schedule(
        "parallel",
        &g,
        &ProcessConfig::simple(),
        &mut (&mut shape, &mut phases, &mut odo),
        &mut rng,
    )
    .unwrap();
    assert_eq!(odo.steps, out.total_steps);
    assert_eq!(odo.settles as usize, n);
    assert_eq!(shape.snapshots.len(), 3);
    assert!(shape.snapshots[0].0 >= n / 4);
    assert_eq!(shape.snapshots[2].1.size, n);
    assert_eq!(phases.phases[0], out.dispersion_time());
    for w in phases.phases.windows(2) {
        assert!(w[0] >= w[1], "phases not monotone: {:?}", phases.phases);
    }
    // the half milestone must be a real mid-run round even when n is a
    // power of two (regression: an off-by-one in the index made it 0)
    let half = phases.phases[PhaseTimes::half_index(n)];
    assert!(half > 0, "half milestone degenerated to 0");
    assert!(half < out.dispersion_time());
}

#[test]
fn parallel_round_count_matches_dispersion_time() {
    // regression: the final round's boundary event used to be skipped, so
    // rounds undercounted by one
    let g = dispersion_graphs::generators::complete(16);
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..10 {
        let mut odo = Odometer::default();
        let out =
            run_schedule("parallel", &g, &ProcessConfig::simple(), &mut odo, &mut rng).unwrap();
        assert_eq!(out.rounds, out.dispersion_time());
        assert_eq!(odo.rounds, out.rounds);
    }
}

#[test]
fn tick_clock_phases_are_monotone_under_sequential() {
    // regression: per-particle step clocks are not comparable under the
    // Sequential schedule; the tick clock is
    let g = dispersion_graphs::generators::torus2d(12);
    let mut rng = StdRng::seed_from_u64(31);
    let mut phases = PhaseTimes::in_ticks(g.n());
    let out = run_schedule(
        "sequential",
        &g,
        &ProcessConfig::simple(),
        &mut phases,
        &mut rng,
    )
    .unwrap();
    assert_eq!(phases.phases[0], out.ticks);
    for w in phases.phases.windows(2) {
        assert!(
            w[0] >= w[1],
            "tick phases not monotone: {:?}",
            phases.phases
        );
    }
    let half = phases.phases[PhaseTimes::half_index(g.n())];
    assert!(half > 0 && half < out.ticks);
}

#[test]
#[should_panic(expected = "Uniform schedule draws over")]
fn uniform_schedule_rejects_mismatched_particle_count() {
    let g = dispersion_graphs::generators::complete(16);
    let cfg = EngineConfig::with_particles(8, 0, &ProcessConfig::simple());
    let mut rng = StdRng::seed_from_u64(41);
    let _ = engine::run(
        &g,
        &mut schedule::Uniform::new(16),
        &FirstVacant,
        &cfg,
        &mut (),
        &mut rng,
    );
}

#[test]
fn random_origin_spawns_respect_the_settle_rule() {
    let g = dispersion_graphs::generators::complete(24);
    let rule = DelayedExcept {
        threshold: 5,
        special: 0,
    };
    let cfg = EngineConfig::random_origins(12, &ProcessConfig::simple());
    for seed in 0..20 {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = engine::run(
            &g,
            &mut schedule::Sequential::new(),
            &rule,
            &cfg,
            &mut (),
            &mut rng,
        )
        .unwrap();
        for (i, (&v, &s)) in out.settled_at.iter().zip(&out.steps).enumerate() {
            assert!(
                v == 0 || s >= 5,
                "particle {i} settled at {v} after only {s} steps despite the rule"
            );
        }
    }
}

#[test]
fn half_index_thresholds_are_about_half() {
    for k in [2usize, 3, 17, 63, 64, 128, 144, 1000] {
        let j = PhaseTimes::half_index(k);
        let threshold = 1usize << j;
        assert!(threshold <= k / 2, "k={k}: 2^{j} = {threshold} > k/2");
        assert!(4 * threshold > k, "k={k}: 2^{j} = {threshold} ≤ k/4");
        // always in range for the matching profile
        assert!(j < PhaseTimes::for_particles(k).phases.len());
    }
}

// ---- per-process cases: sequential, parallel, uniform, continuous and
// §6.2 runs through `Process` ----

/// One standard simple-walk run of `p` on `g` from `origin`.
fn run(p: Process, g: &Graph, origin: u32, rng: &mut StdRng) -> engine::EngineOutcome {
    p.run_observed(g, origin, &ProcessConfig::simple(), &mut (), rng)
        .unwrap()
}

/// One simple-walk run of `p` under an explicit engine configuration.
fn run_cfg(p: Process, g: &Graph, ecfg: &EngineConfig, rng: &mut StdRng) -> engine::EngineOutcome {
    p.run(g, &FirstVacant, ecfg, &mut (), rng).unwrap()
}

#[test]
fn star_walks_take_odd_step_counts() {
    // from the centre every walk reaches a leaf in one step and occupied
    // leaves force returns, so settling happens after an odd step count;
    // particle 1 settles immediately (under Parallel it reads first in
    // round 1)
    for (p, n, seed) in [(Process::Sequential, 5, 4), (Process::Parallel, 6, 4)] {
        let o = run(p, &star(n), 0, &mut StdRng::seed_from_u64(seed));
        assert_eq!(o.steps[1], 1, "{p:?}");
        for i in 1..n {
            assert_eq!(
                o.steps[i] % 2,
                1,
                "{p:?}: particle {i} steps {}",
                o.steps[i]
            );
        }
    }
    // on the clique the first move of round 1 always finds a vacancy
    let o = run(
        Process::Parallel,
        &complete(12),
        0,
        &mut StdRng::seed_from_u64(3),
    );
    assert_eq!(o.steps[1], 1);
}

#[test]
fn path_from_an_endpoint_fills_left_to_right() {
    // from endpoint 0 the aggregate is always a prefix: under Sequential
    // particle i settles at vertex i after at least i steps; under Parallel
    // settle positions increase with the settle round
    let o = run(
        Process::Sequential,
        &path(6),
        0,
        &mut StdRng::seed_from_u64(5),
    );
    for (i, (&v, &s)) in o.settled_at.iter().zip(&o.steps).enumerate() {
        assert_eq!(v as usize, i);
        assert!(s >= i as u64);
    }
    let o = run(
        Process::Parallel,
        &path(7),
        0,
        &mut StdRng::seed_from_u64(6),
    );
    let mut order: Vec<usize> = (0..7).collect();
    order.sort_by_key(|&i| o.steps[i]);
    let positions: Vec<u32> = order.iter().map(|&i| o.settled_at[i]).collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "settle order not monotone: {positions:?}"
    );
}

#[test]
fn tree_dispersion_respects_theorem_3_7() {
    // t_seq(T) ≥ 2n − 3 in expectation on trees; the star's sample mean
    // must sit comfortably above
    let g = star(8);
    let mut rng = StdRng::seed_from_u64(7);
    let mean = (0..200)
        .map(|_| run(Process::Sequential, &g, 0, &mut rng).dispersion_time() as f64)
        .sum::<f64>()
        / 200.0;
    assert!(mean >= (2.0 * 8.0 - 3.0) * 0.7, "mean {mean}");
}

#[test]
fn parallel_total_steps_match_the_coupon_collector_total() {
    // Theorem 4.1: total steps are distributed as in the sequential
    // process, a sum of geometrics ≈ (n − 1)·H_{n−1} on the clique
    let n = 16usize;
    let g = complete(n);
    let mut rng = StdRng::seed_from_u64(7);
    let mean = (0..300)
        .map(|_| run(Process::Parallel, &g, 0, &mut rng).total_steps as f64)
        .sum::<f64>()
        / 300.0;
    let hn: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
    let expect = (n - 1) as f64 * hn;
    assert!(
        (mean - expect).abs() < 0.15 * expect,
        "mean {mean} vs {expect}"
    );
}

#[test]
fn theorem_4_7_uniform_run_round_trips_through_pt_u() {
    // StP forgets the schedule; PtU_R with the recorded schedule must
    // rebuild the exact uniform realization, rows and jump ticks. Exact
    // per-jump ticks need the tick-loop twin.
    use dispersion_core::block::{parallel_to_uniform, sequential_to_parallel};
    let g = cycle(9);
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut traj = TrajectoryBlock::with_timing();
        let mut ticks = schedule::UniformTicks::new(g.n());
        let out = engine::run(&g, &mut ticks, &FirstVacant, &ecfg, &mut traj, &mut rng).unwrap();
        let (_, timed, sched) = traj.into_parts();
        let (timed, sched) = (timed.unwrap(), sched.unwrap());
        assert_eq!(timed.settle_tick(), out.settle_tick);
        for (tr, row) in timed.times.iter().zip(timed.block.rows()) {
            assert_eq!(tr.len(), row.len());
            assert!(tr.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {tr:?}");
        }
        let par = sequential_to_parallel(&timed.block);
        let rebuilt = parallel_to_uniform(&par, sched.iter().copied());
        assert_eq!(rebuilt.block, timed.block, "rows differ (seed {seed})");
        assert_eq!(rebuilt.times, timed.times, "times differ (seed {seed})");
    }
}

#[test]
fn continuous_sequential_time_tracks_steps() {
    // Gamma(ρ, 1) concentrates at ρ, so the Poisson-clock dispersion time
    // is close to the longest walk on long walks
    let o = run(
        Process::ContinuousSequential,
        &cycle(32),
        0,
        &mut StdRng::seed_from_u64(6),
    );
    let ratio = o.time / o.dispersion_time() as f64;
    assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn fewer_particles_disperse_faster() {
    // §6.2 intuition: dispersion is slowest when particles = sites
    let g = complete(64);
    let (half, full) = (
        EngineConfig::with_particles(32, 0, &ProcessConfig::simple()),
        EngineConfig::full(&g, 0, &ProcessConfig::simple()),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let (mut t_half, mut t_full) = (0, 0);
    for _ in 0..200 {
        t_half += run_cfg(Process::Parallel, &g, &half, &mut rng).dispersion_time();
        t_full += run_cfg(Process::Parallel, &g, &full, &mut rng).dispersion_time();
    }
    assert!(t_half < t_full, "k = n/2 ({t_half}) vs k = n ({t_full})");
}

#[test]
fn half_the_clique_settles_long_before_the_last_walk() {
    // Theorem 3.3 consequence: at least n/2 walks settle within O(t_mix)
    // rounds, and t_mix = O(1) on the clique
    let g = complete(128);
    let mut rng = StdRng::seed_from_u64(6);
    let mut phases = PhaseTimes::for_particles(g.n());
    let o = Process::Parallel
        .run_observed(&g, 0, &ProcessConfig::simple(), &mut phases, &mut rng)
        .unwrap();
    let j_half = 6; // 2^6 − 1 = 63 < 64 remaining
    assert!(
        phases.phases[j_half] * 4 < o.dispersion_time().max(4),
        "half-settle round {} vs dispersion {}",
        phases.phases[j_half],
        o.dispersion_time()
    );
}

#[test]
fn random_origins_cover_v_and_beat_a_single_origin() {
    let random = |n| EngineConfig::random_origins(n, &ProcessConfig::simple());
    let mut rng = StdRng::seed_from_u64(7);
    let o = run_cfg(Process::Sequential, &cycle(40), &random(40), &mut rng);
    let mut settled = o.settled_at.clone();
    settled.sort_unstable();
    assert_eq!(settled, (0..40).collect::<Vec<_>>());

    // spreading the starts removes the congestion at the origin
    let g = cycle(64);
    let mut rng = StdRng::seed_from_u64(8);
    let (mut single, mut spread) = (0, 0);
    for _ in 0..60 {
        single += run(Process::Sequential, &g, 0, &mut rng).dispersion_time();
        spread += run_cfg(Process::Sequential, &g, &random(64), &mut rng).dispersion_time();
    }
    assert!(
        spread * 4 < single * 3,
        "random origins {spread} vs single origin {single}"
    );
}

#[test]
fn settle_rules_run_under_parallel_and_refusals_hit_the_cap() {
    let g = cycle(12);
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    let rule = DelayedExcept {
        threshold: 4,
        special: 5,
    };
    let o = Process::Parallel
        .run(&g, &rule, &ecfg, &mut (), &mut StdRng::seed_from_u64(4))
        .unwrap();
    let mut settled = o.settled_at.clone();
    settled.sort_unstable();
    assert_eq!(settled, (0..12).collect::<Vec<_>>());

    // a rule that refuses every vacancy can never finish: the cap must
    // surface as an error, not a hang or a panic
    struct Never;
    impl SettleRule for Never {
        fn should_settle(&self, _steps: u64, _at: u32) -> bool {
            false
        }
    }
    let capped = EngineConfig::full(&g, 0, &ProcessConfig::simple().with_cap(64));
    let err = Process::Sequential
        .run(&g, &Never, &capped, &mut (), &mut StdRng::seed_from_u64(5))
        .unwrap_err();
    assert!(matches!(err, EngineError::StepCapExceeded { cap: 64, .. }));
}

#[test]
#[should_panic(expected = "out of range")]
fn zero_particles_rejected() {
    let g = cycle(8);
    let ecfg = EngineConfig::with_particles(0, 0, &ProcessConfig::simple());
    run_cfg(
        Process::Sequential,
        &g,
        &ecfg,
        &mut StdRng::seed_from_u64(9),
    );
}
