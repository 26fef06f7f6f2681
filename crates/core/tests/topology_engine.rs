//! Engine-level backend equivalence: a fixed-seed dispersion run must
//! produce bit-identical outcomes on the explicit CSR graph and on the
//! implicit topology of the same family, under every schedule.
//!
//! This is stronger than distribution equality — because the implicit
//! families enumerate neighbours in CSR order and the walk primitive
//! consumes the RNG identically, the *same realization* unfolds on both
//! backends. Implicit large-`n` runs are therefore exactly the runs the
//! explicit engine would have produced had the adjacency fit.

use dispersion_core::engine::observer::Odometer;
use dispersion_core::engine::rule::DelayedExcept;
use dispersion_core::engine::{self, EngineConfig, EngineError, FirstVacant};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::{cycle, hypercube, torus2d};
use dispersion_graphs::topology::{Cycle, Hypercube, Torus2d};
use dispersion_graphs::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_all_schedules<T: Topology>(t: &T, seed: u64) -> Vec<engine::EngineOutcome> {
    let cfg = ProcessConfig::simple();
    Process::all()
        .into_iter()
        .zip(seed..)
        .map(|(p, s)| {
            let mut rng = StdRng::seed_from_u64(s);
            p.run_observed(t, 0, &cfg, &mut (), &mut rng).unwrap()
        })
        .collect()
}

fn assert_outcomes_match(a: &[engine::EngineOutcome], b: &[engine::EngineOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.steps, y.steps);
        assert_eq!(x.settled_at, y.settled_at);
        assert_eq!(x.total_steps, y.total_steps);
        assert_eq!(x.ticks, y.ticks);
        assert_eq!(x.settle_tick, y.settle_tick);
        assert_eq!(x.rounds, y.rounds);
        assert_eq!(x.time, y.time);
    }
}

#[test]
fn every_schedule_identical_on_cycle_backends() {
    let explicit = run_all_schedules(&cycle(49), 11);
    let implicit = run_all_schedules(&Cycle::new(49), 11);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn every_schedule_identical_on_torus_backends() {
    let explicit = run_all_schedules(&torus2d(7), 23);
    let implicit = run_all_schedules(&Torus2d::new(7), 23);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn every_schedule_identical_on_hypercube_backends() {
    let explicit = run_all_schedules(&hypercube(6), 37);
    let implicit = run_all_schedules(&Hypercube::new(6), 37);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn process_runs_on_implicit_backends() {
    let t = Torus2d::new(6);
    let cfg = ProcessConfig::simple();
    let mut rng = StdRng::seed_from_u64(1);
    for p in Process::all() {
        let o = p.run_observed(&t, 0, &cfg, &mut (), &mut rng).unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..36).collect::<Vec<_>>(), "{p:?}");
    }

    // k < n particles and random origins come from the engine config
    let ecfg = EngineConfig::with_particles(10, 0, &cfg);
    for p in [Process::Sequential, Process::Parallel] {
        let o = p.run(&t, &FirstVacant, &ecfg, &mut (), &mut rng).unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        settled.dedup();
        assert_eq!((o.steps.len(), settled.len()), (10, 10), "{p:?}");
    }
    let ecfg = EngineConfig::random_origins(36, &cfg);
    let o = Process::Sequential
        .run(&t, &FirstVacant, &ecfg, &mut (), &mut rng)
        .unwrap();
    assert_eq!(o.steps.len(), 36);

    // generalized stopping rules compose with implicit backends too
    let rule = DelayedExcept {
        threshold: 4,
        special: 5,
    };
    let ecfg = EngineConfig::full(&t, 0, &cfg);
    let o = Process::Sequential
        .run(&t, &rule, &ecfg, &mut (), &mut rng)
        .unwrap();
    assert!(o.settled_at.contains(&5));
}

#[test]
fn observers_stream_identically_across_backends() {
    let g = torus2d(8);
    let t = Torus2d::new(8);
    let cfg = ProcessConfig::simple();
    let run = |topo: &dyn Fn(&mut StdRng) -> (u64, u64, u64)| {
        let mut rng = StdRng::seed_from_u64(77);
        topo(&mut rng)
    };
    let explicit = run(&|rng| {
        let mut odo = Odometer::default();
        let out = Process::Parallel
            .run_observed(&g, 0, &cfg, &mut odo, rng)
            .unwrap();
        (out.dispersion_time(), odo.steps, odo.rounds)
    });
    let implicit = run(&|rng| {
        let mut odo = Odometer::default();
        let out = Process::Parallel
            .run_observed(&t, 0, &cfg, &mut odo, rng)
            .unwrap();
        (out.dispersion_time(), odo.steps, odo.rounds)
    });
    assert_eq!(explicit, implicit);
}

#[test]
fn implicit_cap_surfaces_as_error() {
    let t = Torus2d::new(16);
    let cfg = ProcessConfig::simple().with_cap(8);
    let mut rng = StdRng::seed_from_u64(3);
    let err = Process::Sequential
        .run_observed(&t, 0, &cfg, &mut (), &mut rng)
        .unwrap_err();
    assert!(matches!(err, EngineError::StepCapExceeded { cap: 8, .. }));
}

#[test]
fn lazy_walk_matches_between_walkkinds_exactly() {
    // WalkKind::Lazy consumes (bool, maybe range) identically on both
    // backends, so even lazy runs are bit-identical across backends
    let cfg = ProcessConfig::lazy();
    let mut rng_a = StdRng::seed_from_u64(13);
    let mut rng_b = StdRng::seed_from_u64(13);
    let seq = Process::Sequential;
    let a = seq.run_observed(&cycle(21), 0, &cfg, &mut (), &mut rng_a);
    let b = seq.run_observed(&Cycle::new(21), 0, &cfg, &mut (), &mut rng_b);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.settled_at, b.settled_at);
}
