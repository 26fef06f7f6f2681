//! Ablation (DESIGN.md §5): Xoshiro256++ against `StdRng` (ChaCha12) on the
//! simulators' hot loop — one random neighbour choice per walk step.

use criterion::{criterion_group, criterion_main, Criterion};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::complete;
use dispersion_graphs::walk::{step, WalkKind};
use dispersion_sim::rng::Xoshiro256pp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_raw_steps(c: &mut Criterion) {
    let g = complete(1024);
    c.bench_function("steps-1e4/xoshiro", |b| {
        let mut rng = Xoshiro256pp::new(1);
        b.iter(|| {
            let mut v = 0;
            for _ in 0..10_000 {
                v = step(&g, WalkKind::Simple, v, &mut rng);
            }
            black_box(v)
        });
    });
    c.bench_function("steps-1e4/stdrng", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut v = 0;
            for _ in 0..10_000 {
                v = step(&g, WalkKind::Simple, v, &mut rng);
            }
            black_box(v)
        });
    });
}

fn bench_full_process(c: &mut Criterion) {
    let g = complete(256);
    let cfg = ProcessConfig::simple();
    c.bench_function("seq-clique256/xoshiro", |b| {
        let mut rng = Xoshiro256pp::new(2);
        b.iter(|| {
            black_box(
                Process::Sequential
                    .try_dispersion_time(&g, 0, &cfg, &mut rng)
                    .unwrap(),
            )
        });
    });
    c.bench_function("seq-clique256/stdrng", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            black_box(
                Process::Sequential
                    .try_dispersion_time(&g, 0, &cfg, &mut rng)
                    .unwrap(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_raw_steps, bench_full_process
}
criterion_main!(benches);
