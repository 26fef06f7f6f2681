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
use dispersion_core::engine::observer::{
    AggregateShape, DispersionTime, Odometer, PhaseTimes, TrajectoryBlock,
};
use dispersion_core::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::families::Family;
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

/// Runs one engine realization of the named schedule (the [`Schedule`]
/// trait is generic, so tests dispatch by label).
fn run_schedule<R: Rng + ?Sized>(
    label: &str,
    g: &Graph,
    cfg: &ProcessConfig,
    obs: &mut impl engine::Observer,
    rng: &mut R,
) -> Result<engine::EngineOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, 0, cfg);
    match label {
        "sequential" => engine::run(
            g,
            &mut schedule::Sequential::new(),
            &FirstVacant,
            &ecfg,
            obs,
            rng,
        ),
        "parallel" => engine::run(
            g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &ecfg,
            obs,
            rng,
        ),
        "uniform" => engine::run(
            g,
            &mut schedule::Uniform::new(g.n()),
            &FirstVacant,
            &ecfg,
            obs,
            rng,
        ),
        "uniform-ticks" => engine::run(
            g,
            &mut schedule::UniformTicks::new(g.n()),
            &FirstVacant,
            &ecfg,
            obs,
            rng,
        ),
        "ctu" => engine::run(g, &mut schedule::Ctu::new(), &FirstVacant, &ecfg, obs, rng),
        "ctu-clocks" => engine::run(
            g,
            &mut schedule::CtuClocks::new(),
            &FirstVacant,
            &ecfg,
            obs,
            rng,
        ),
        other => panic!("unknown schedule {other}"),
    }
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
    // Odometer (which counts skips via on_skip), and the settle tick.
    for (k, family) in Family::table1().into_iter().enumerate() {
        let mut grng = StdRng::seed_from_u64(40 + k as u64);
        let inst = family.instance(36, &mut grng);
        let mut rng = StdRng::seed_from_u64(400 + k as u64);
        let mut odo = Odometer::default();
        let mut time = DispersionTime::default();
        let out = run_schedule(
            "uniform",
            &inst.graph,
            &ProcessConfig::simple(),
            &mut (&mut odo, &mut time),
            &mut rng,
        )
        .unwrap();
        assert_eq!(odo.ticks, out.ticks, "{}", inst.label);
        assert_eq!(odo.steps, out.total_steps, "{}", inst.label);
        assert_eq!(time.settle_tick, out.settle_tick, "{}", inst.label);
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
    // the acceptance composition: dispersion time + Prop 5.10 shape +
    // Thm 3.3 phases streamed from a single parallel realization
    let side = 16usize;
    let g = dispersion_graphs::generators::torus2d(side);
    let n = g.n();
    let mut rng = StdRng::seed_from_u64(1234);
    let mut time = DispersionTime::default();
    let mut shape = AggregateShape::at_fractions(0, &[side, side], &[0.25, 0.5, 1.0]);
    let mut phases = PhaseTimes::for_particles(n);
    let mut odo = Odometer::default();
    let out = run_schedule(
        "parallel",
        &g,
        &ProcessConfig::simple(),
        &mut (&mut time, &mut shape, &mut phases, &mut odo),
        &mut rng,
    )
    .unwrap();
    assert_eq!(time.max_steps, out.dispersion_time());
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
    use dispersion_core::engine::rule::DelayedExcept;
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
fn partitioned_engine_upholds_invariants_on_every_family() {
    // the walker-thread partitioned path is subject to the same suite
    // gates as the serial schedules: settled set a permutation of V, a
    // valid parallel realization block, and an Odometer whose counters
    // match the outcome's clocks — on every Table 1 family, with the
    // serial engine's result as the bit-exact reference
    use dispersion_core::engine::partition;
    for (k, family) in Family::table1().into_iter().enumerate() {
        let mut grng = StdRng::seed_from_u64(800 + k as u64);
        let inst = family.instance(48, &mut grng);
        let n = inst.graph.n();
        let ecfg = EngineConfig::full(&inst.graph, 0, &ProcessConfig::simple());
        let mut srng = StdRng::seed_from_u64(8000 + k as u64);
        let serial = engine::run(
            &inst.graph,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &ecfg,
            &mut (),
            &mut srng,
        )
        .unwrap();
        for threads in [2usize, 4] {
            let mut ecfg_t = ecfg;
            ecfg_t.walker_threads = threads;
            let mut rng = StdRng::seed_from_u64(8000 + k as u64);
            let mut odo = Odometer::default();
            let mut traj = TrajectoryBlock::with_timing();
            let out = partition::run_parallel(
                &inst.graph,
                &FirstVacant,
                &ecfg_t,
                &mut (&mut odo, &mut traj),
                &mut rng,
            )
            .unwrap();
            let what = format!("{} walker_threads={threads}", inst.label);
            let mut settled = out.settled_at.clone();
            settled.sort_unstable();
            assert_eq!(
                settled,
                (0..n as u32).collect::<Vec<_>>(),
                "{what}: settled set not a permutation of V"
            );
            let (block, timed, sched) = traj.into_parts();
            assert!(is_parallel_block(&block), "{what}");
            assert!(rows_are_walks(&block, &inst.graph, false), "{what}");
            // R_t completeness: the merge fires one on_tick per retired
            // tick, so the realized schedule has an entry for every tick
            assert_eq!(sched.unwrap().len() as u64, out.ticks, "{what}: R_t");
            assert_eq!(
                timed.unwrap().settle_tick(),
                out.settle_tick,
                "{what}: settle tick through the timing array"
            );
            assert_eq!(odo.ticks, out.ticks, "{what}: odometer ticks");
            assert_eq!(odo.steps, out.total_steps, "{what}: odometer steps");
            assert_eq!(odo.settles as usize, n, "{what}: odometer settles");
            assert_eq!(odo.rounds, out.rounds, "{what}: odometer rounds");
            assert_eq!(out.steps, serial.steps, "{what}: vs serial engine");
            assert_eq!(out.settled_at, serial.settled_at, "{what}: vs serial");
            assert_eq!(out.ticks, serial.ticks, "{what}: vs serial");
            assert_eq!(out.rounds, serial.rounds, "{what}: vs serial");
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
