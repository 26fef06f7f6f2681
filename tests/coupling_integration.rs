//! Cross-crate verification of the Section 4 coupling results on real
//! process realizations: Theorem 4.1 (domination + total-step
//! equidistribution), Lemma 4.4 (bijectivity), Lemma 4.6, Theorem 4.7.

use dispersion_repro::core::block::validate::{
    has_distinct_endpoints, is_parallel_block, is_sequential_block, rows_are_walks,
};
use dispersion_repro::core::block::{
    parallel_to_sequential, parallel_to_uniform, sequential_to_parallel,
};
use dispersion_repro::core::engine::observer::TrajectoryBlock;
use dispersion_repro::core::{Block, EngineOutcome, Process, ProcessConfig};
use dispersion_repro::graphs::families::{Family, Instance};
use dispersion_repro::sim::dominance::{dominance_violation, ks_p_value};
use dispersion_repro::sim::{default_threads, par_trials, Xoshiro256pp};
use rand::RngExt;

/// One run of `p` on `inst` with its realization block attached.
fn recorded(
    p: Process,
    inst: &Instance,
    cfg: &ProcessConfig,
    rng: &mut Xoshiro256pp,
) -> (EngineOutcome, Block) {
    let mut traj = TrajectoryBlock::new();
    let out = p
        .run_observed(&inst.graph, inst.origin, cfg, &mut traj, rng)
        .unwrap();
    (out, traj.into_block())
}

/// Row lengths are the step counts and row endpoints the settle vertices.
fn consistent(out: &EngineOutcome, b: &Block) -> bool {
    b.n_rows() == out.steps.len()
        && (0..b.n_rows())
            .all(|i| b.rho(i) as u64 == out.steps[i] && b.endpoint(i) == out.settled_at[i])
}

fn test_families() -> Vec<Family> {
    vec![
        Family::Complete,
        Family::Cycle,
        Family::Hypercube,
        Family::BinaryTree,
        Family::Star,
    ]
}

#[test]
fn recorded_realizations_are_valid_blocks() {
    for (k, family) in test_families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(k as u64);
        let inst = family.instance(32, &mut grng);
        let cfg = ProcessConfig::simple();
        let mut rng = Xoshiro256pp::new(100 + k as u64);
        for _ in 0..5 {
            let (s, sb) = recorded(Process::Sequential, &inst, &cfg, &mut rng);
            assert!(is_sequential_block(&sb), "{}", inst.label);
            assert!(rows_are_walks(&sb, &inst.graph, false));
            assert!(consistent(&s, &sb));

            let (p, pb) = recorded(Process::Parallel, &inst, &cfg, &mut rng);
            assert!(is_parallel_block(&pb), "{}", inst.label);
            assert!(rows_are_walks(&pb, &inst.graph, false));
            assert!(consistent(&p, &pb));
        }
    }
}

#[test]
fn stp_pts_bijection_on_real_runs() {
    for (k, family) in test_families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(10 + k as u64);
        let inst = family.instance(24, &mut grng);
        let cfg = ProcessConfig::simple();
        let mut rng = Xoshiro256pp::new(200 + k as u64);
        for _ in 0..5 {
            let (_, sb) = recorded(Process::Sequential, &inst, &cfg, &mut rng);
            let stp = sequential_to_parallel(&sb);
            assert!(is_parallel_block(&stp), "{}", inst.label);
            assert!(has_distinct_endpoints(&stp));
            assert_eq!(stp.total_length(), sb.total_length());
            assert_eq!(stp.visit_counts(), sb.visit_counts());
            // round trip (Remark 4.5)
            assert_eq!(parallel_to_sequential(&stp), sb, "{}", inst.label);
            // Lemma 4.6
            assert!(stp.max_row_length() >= sb.max_row_length());

            let (_, pb) = recorded(Process::Parallel, &inst, &cfg, &mut rng);
            let pts = parallel_to_sequential(&pb);
            assert!(is_sequential_block(&pts), "{}", inst.label);
            assert_eq!(sequential_to_parallel(&pts), pb, "{}", inst.label);
        }
    }
}

#[test]
fn lazy_realizations_respect_the_same_coupling() {
    let mut grng = Xoshiro256pp::new(77);
    let inst = Family::Complete.instance(24, &mut grng);
    let mut rng = Xoshiro256pp::new(78);
    let (_, sb) = recorded(Process::Sequential, &inst, &ProcessConfig::lazy(), &mut rng);
    assert!(rows_are_walks(&sb, &inst.graph, true));
    let stp = sequential_to_parallel(&sb);
    assert!(is_parallel_block(&stp));
    assert!(stp.max_row_length() >= sb.max_row_length());
}

#[test]
fn theorem_4_1_dominance_and_total_steps() {
    let cfg = ProcessConfig::simple();
    for (k, family) in [Family::Complete, Family::Cycle, Family::Star]
        .into_iter()
        .enumerate()
    {
        let mut grng = Xoshiro256pp::new(300 + k as u64);
        let inst = family.instance(32, &mut grng);
        let s0 = 400 + 10 * k as u64;
        // per-trial dispersion times and total walk steps of one process
        let times = |p: Process, seed| {
            par_trials(400, default_threads(), seed, |_, rng| {
                p.try_dispersion_time(&inst.graph, inst.origin, &cfg, rng)
                    .unwrap()
            })
        };
        let steps = |p: Process, seed| {
            par_trials(400, default_threads(), seed, |_, rng| {
                let out = p.run_observed(&inst.graph, inst.origin, &cfg, &mut (), rng);
                out.unwrap().total_steps as f64
            })
        };
        let seq = times(Process::Sequential, s0);
        let par = times(Process::Parallel, s0 + 1);
        assert!(
            dominance_violation(&seq, &par) < 0.12,
            "{}: seq not dominated by par",
            inst.label
        );
        let ts = steps(Process::Sequential, s0 + 2);
        let tp = steps(Process::Parallel, s0 + 3);
        let p = ks_p_value(&ts, &tp);
        assert!(p > 1e-3, "{}: total steps differ (p = {p})", inst.label);
    }
}

#[test]
fn theorem_4_7_uniform_blocks_map_to_parallel() {
    // PtU_R applied to a parallel block gives a timed block whose StP image
    // is the original — the bijection for a fixed schedule R.
    let mut grng = Xoshiro256pp::new(500);
    let inst = Family::Hypercube.instance(16, &mut grng);
    let cfg = ProcessConfig::simple();
    let mut rng = Xoshiro256pp::new(501);
    for trial in 0..10 {
        let (_, pb) = recorded(Process::Parallel, &inst, &cfg, &mut rng);
        let n = pb.n_rows();
        let mut srng = Xoshiro256pp::new(600 + trial);
        let schedule = std::iter::from_fn(move || Some(srng.random_range(1..n)));
        let timed = parallel_to_uniform(&pb, schedule);
        assert_eq!(sequential_to_parallel(&timed.block), pb);
        assert_eq!(timed.block.total_length(), pb.total_length());
        assert!(timed.settle_tick() >= pb.max_row_length() as u64);
    }
}
