//! Criterion timings of one dispersion-process realization per Table 1
//! family — the cost of regenerating each table row scales linearly in
//! these numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use dispersion_core::engine::observer::TrajectoryBlock;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_sim::rng::Xoshiro256pp;
use std::hint::black_box;

fn bench_processes(c: &mut Criterion) {
    let cfg = ProcessConfig::simple();
    let mut grng = Xoshiro256pp::new(1);

    let mut group = c.benchmark_group("dispersion");
    for family in [
        Family::Complete,
        Family::Hypercube,
        Family::Cycle,
        Family::BinaryTree,
        Family::Torus3d,
        Family::RandomRegular(5),
    ] {
        let size = if matches!(family, Family::Cycle) {
            64
        } else {
            256
        };
        let inst = family.instance(size, &mut grng);
        let g = inst.graph.clone();
        let origin = inst.origin;

        for (p, seed) in [(Process::Sequential, 7), (Process::Parallel, 8)] {
            group.bench_function(format!("{}/{}", p.label(), inst.label), |b| {
                let mut rng = Xoshiro256pp::new(seed);
                b.iter(|| black_box(p.try_dispersion_time(&g, origin, &cfg, &mut rng).unwrap()));
            });
        }
    }
    group.finish();

    // uniform & CTU on the clique only (tick overhead dominates elsewhere)
    let clique = Family::Complete.instance(256, &mut grng);
    for (p, seed) in [(Process::Uniform, 9), (Process::Ctu, 10)] {
        c.bench_function(format!("{}/clique", p.label()), |b| {
            let mut rng = Xoshiro256pp::new(seed);
            b.iter(|| {
                let t = p.try_dispersion_time(&clique.graph, clique.origin, &cfg, &mut rng);
                black_box(t.unwrap())
            });
        });
    }
}

fn bench_recording_overhead(c: &mut Criterion) {
    // ablation: trajectory recording cost (needed only for Cut & Paste work)
    let mut grng = Xoshiro256pp::new(2);
    let inst = Family::Complete.instance(256, &mut grng);
    let cfg = ProcessConfig::simple();
    let seq = |obs: &mut Option<TrajectoryBlock>, rng: &mut Xoshiro256pp| {
        Process::Sequential
            .run_observed(&inst.graph, inst.origin, &cfg, obs, rng)
            .unwrap()
            .total_steps
    };
    c.bench_function("seq/clique/plain", |b| {
        let mut rng = Xoshiro256pp::new(11);
        b.iter(|| black_box(seq(&mut None, &mut rng)));
    });
    c.bench_function("seq/clique/recorded", |b| {
        let mut rng = Xoshiro256pp::new(11);
        b.iter(|| black_box(seq(&mut Some(TrajectoryBlock::new()), &mut rng)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_processes, bench_recording_overhead
}
criterion_main!(benches);
