//! Property-based tests of the dispersion processes and the Cut & Paste
//! machinery over random connected graphs.

use dispersion_repro::core::block::validate::{
    has_distinct_endpoints, is_parallel_block, is_sequential_block, rows_are_walks,
};
use dispersion_repro::core::block::{parallel_to_sequential, sequential_to_parallel};
use dispersion_repro::core::engine::observer::TrajectoryBlock;
use dispersion_repro::core::engine::{self, schedule, EngineConfig, FirstVacant};
use dispersion_repro::core::{Block, Process, ProcessConfig};
use dispersion_repro::graphs::{Graph, GraphBuilder, Vertex};
use dispersion_repro::sim::Xoshiro256pp;
use proptest::prelude::*;
use rand::RngExt;

/// Random connected graph: random spanning tree plus extra edges.
fn connected_graph() -> impl Strategy<Value = (Graph, Vertex)> {
    (2usize..48, any::<u64>(), 0usize..64).prop_map(|(n, seed, extra)| {
        let mut rng = Xoshiro256pp::new(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            let p = rng.random_range(0..v);
            b.add_edge(p as Vertex, v as Vertex);
        }
        for _ in 0..extra {
            let u = rng.random_range(0..n) as Vertex;
            let v = rng.random_range(0..n) as Vertex;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let origin = rng.random_range(0..n) as Vertex;
        (b.build(), origin)
    })
}

/// The realization block of one simple-walk run of `p`.
fn recorded(p: Process, g: &Graph, origin: Vertex, rng: &mut Xoshiro256pp) -> Block {
    let mut traj = TrajectoryBlock::new();
    p.run_observed(g, origin, &ProcessConfig::simple(), &mut traj, rng)
        .unwrap();
    traj.into_block()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequential_settles_all_vertices((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let o = Process::Sequential
            .run_observed(&g, origin, &ProcessConfig::simple(), &mut (), &mut rng)
            .unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        prop_assert_eq!(settled, (0..g.n() as Vertex).collect::<Vec<_>>());
        prop_assert_eq!(o.steps[0], 0);
        prop_assert_eq!(o.settled_at[0], origin);
    }

    #[test]
    fn parallel_settles_all_vertices((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let o = Process::Parallel
            .run_observed(&g, origin, &ProcessConfig::simple(), &mut (), &mut rng)
            .unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        prop_assert_eq!(settled, (0..g.n() as Vertex).collect::<Vec<_>>());
        // round discipline: every unsettled particle moves every round, so
        // the last settle round is the longest walk
        prop_assert_eq!(o.rounds, o.dispersion_time());
    }

    #[test]
    fn recorded_blocks_valid_and_transformable((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let sb = recorded(Process::Sequential, &g, origin, &mut rng);
        prop_assert!(is_sequential_block(&sb));
        prop_assert!(rows_are_walks(&sb, &g, false));
        prop_assert!(has_distinct_endpoints(&sb));

        let stp = sequential_to_parallel(&sb);
        prop_assert!(is_parallel_block(&stp));
        prop_assert_eq!(stp.total_length(), sb.total_length());
        prop_assert_eq!(stp.visit_counts(), sb.visit_counts());
        prop_assert!(stp.max_row_length() >= sb.max_row_length());
        prop_assert_eq!(parallel_to_sequential(&stp), sb);
    }

    #[test]
    fn parallel_blocks_roundtrip((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let pb = recorded(Process::Parallel, &g, origin, &mut rng);
        prop_assert!(is_parallel_block(&pb));
        let pts = parallel_to_sequential(&pb);
        prop_assert!(is_sequential_block(&pts));
        // PtS can only shorten the longest row (Lemma 4.6 in reverse)
        prop_assert!(pts.max_row_length() <= pb.max_row_length());
        prop_assert_eq!(sequential_to_parallel(&pts), pb);
    }

    #[test]
    fn uniform_outcome_consistent((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        // the tick-loop twin realizes every tick, so the timing array is exact
        let mut traj = TrajectoryBlock::with_timing();
        let o = engine::run(
            &g,
            &mut schedule::UniformTicks::new(g.n()),
            &FirstVacant,
            &EngineConfig::full(&g, origin, &ProcessConfig::simple()),
            &mut traj,
            &mut rng,
        )
        .unwrap();
        prop_assert!(o.settle_tick >= o.dispersion_time());
        let (_, timed, _) = traj.into_parts();
        let timed = timed.unwrap();
        let b = &timed.block;
        prop_assert!((0..g.n()).all(|i| {
            b.rho(i) as u64 == o.steps[i] && b.endpoint(i) == o.settled_at[i]
        }));
        prop_assert_eq!(timed.settle_tick(), o.settle_tick);
        // a uniform block transforms into a valid parallel block (Thm 4.7)
        let pb = sequential_to_parallel(&timed.block);
        prop_assert!(is_parallel_block(&pb));
    }

    #[test]
    fn lazy_runs_also_cover((g, origin) in connected_graph(), seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let o = Process::Sequential
            .run_observed(&g, origin, &ProcessConfig::lazy(), &mut (), &mut rng)
            .unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        prop_assert_eq!(settled, (0..g.n() as Vertex).collect::<Vec<_>>());
    }
}
