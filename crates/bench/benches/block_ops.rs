//! Throughput of the Cut & Paste machinery: `StP` and `PtS` on realization
//! blocks recorded from real processes.

use criterion::{criterion_group, criterion_main, Criterion};
use dispersion_core::block::{parallel_to_sequential, sequential_to_parallel, Block};
use dispersion_core::engine::observer::TrajectoryBlock;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::{complete, cycle};
use dispersion_graphs::Graph;
use dispersion_sim::rng::Xoshiro256pp;
use std::hint::black_box;

/// The realization block of one simple-walk run of `p` on `g` from 0.
fn recorded(p: Process, g: &Graph, rng: &mut Xoshiro256pp) -> Block {
    let mut traj = TrajectoryBlock::new();
    p.run_observed(g, 0, &ProcessConfig::simple(), &mut traj, rng)
        .unwrap();
    traj.into_block()
}

fn recorded_blocks() -> (Block, Block) {
    let g = complete(128);
    let mut rng = Xoshiro256pp::new(3);
    let seq = recorded(Process::Sequential, &g, &mut rng);
    let par = recorded(Process::Parallel, &g, &mut rng);
    (seq, par)
}

fn bench_transforms(c: &mut Criterion) {
    let (seq, par) = recorded_blocks();
    c.bench_function("block/StP/clique128", |b| {
        b.iter(|| black_box(sequential_to_parallel(&seq)));
    });
    c.bench_function("block/PtS/clique128", |b| {
        b.iter(|| black_box(parallel_to_sequential(&par)));
    });
    c.bench_function("block/roundtrip/clique128", |b| {
        b.iter(|| black_box(parallel_to_sequential(&sequential_to_parallel(&seq))));
    });
}

fn bench_long_rows(c: &mut Criterion) {
    // the cycle produces few, very long rows — the opposite block shape
    let seq = recorded(Process::Sequential, &cycle(64), &mut Xoshiro256pp::new(4));
    c.bench_function("block/StP/cycle64-long-rows", |b| {
        b.iter(|| black_box(sequential_to_parallel(&seq)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_transforms, bench_long_rows
}
criterion_main!(benches);
