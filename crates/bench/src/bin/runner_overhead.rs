//! Scheduling-overhead baseline for the spec/runner pipeline: runs the
//! same clique n=1024 Monte-Carlo cells twice — once through the legacy
//! direct loop (`estimate_dispersion`, two-pass statistics over a
//! materialised sample vector) and once as a spec through the streaming
//! runner — with identical per-trial seeds, and reports the wall-clock
//! delta. The trials are the *same realizations*, so any gap is pure
//! scheduling + one-pass-statistics overhead; the committed baseline in
//! `BENCH_engine_throughput.json` pins it within 3%.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin runner_overhead -- \
//!     [--trials 64] [--sizes 1024] [--format json]
//! ```

use dispersion_bench::Options;
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_graphs::generators::complete;
use dispersion_sim::experiment::estimate_dispersion;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::MemorySink;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};
use std::time::Instant;

fn main() {
    let opts = Options::from_env();
    let n = opts.sizes_or(&[1024])[0];
    // this bench wants a bigger default than the shared --trials default
    // (512 amortises instance builds under the 3% gate), but an explicit
    // --trials 100 must win — so detect the flag, not its value
    let trials = if std::env::args().any(|a| a == "--trials") {
        opts.trials
    } else {
        512
    };
    let processes = [Process::Sequential, Process::Parallel];
    let cfg = dispersion_core::process::ProcessConfig::simple();

    // warm-up: fault the binary in and exercise both paths once
    let _ = estimate_dispersion(
        &complete(n),
        0,
        Process::Sequential,
        &cfg,
        4,
        opts.threads,
        0,
    );

    // legacy loop: one (instance build + estimate_dispersion) per cell,
    // exactly what the pre-runner binaries hand-rolled per sweep point —
    // the runner also resolves each cell's instance, so builds are at
    // parity and the delta is pure scheduling + statistics overhead.
    // Both paths take the best of REPS repetitions: the work is identical
    // every time (fixed seeds), so min wall-clock is the noise-robust read.
    const REPS: usize = 3;
    let mut legacy = Vec::new();
    let mut legacy_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        legacy = processes
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let g = complete(n);
                estimate_dispersion(&g, 0, p, &cfg, trials, opts.threads, opts.seed + k as u64)
            })
            .collect();
        legacy_secs = legacy_secs.min(t0.elapsed().as_secs_f64());
    }

    // spec-driven: the same cells with the same master seeds
    let mut spec = ExperimentSpec::new(opts.seed);
    for (k, &p) in processes.iter().enumerate() {
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, n),
                Measure::Dispersion(p),
            )
            .budget(Budget::Trials(trials))
            .master_seed(opts.seed + k as u64),
        );
    }
    let mut records = Vec::new();
    let mut runner_secs = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        records = Runner::new(opts.threads).run(&spec, &[], &mut MemorySink::default());
        runner_secs = runner_secs.min(t0.elapsed().as_secs_f64());
    }

    // same seeds → same trials: the comparison is honest only if the
    // numbers agree to floating-point merge error
    for (r, s) in records.iter().zip(&legacy) {
        let d = (r.mean("time") - s.mean).abs() / s.mean;
        assert!(d < 1e-12, "spec-driven mean diverged from legacy: {d}");
    }

    let overhead_pct = (runner_secs / legacy_secs - 1.0) * 100.0;
    let cells_per_sec = processes.len() as f64 / runner_secs;
    let mut t = TextTable::new([
        "bench",
        "family",
        "n",
        "trials",
        "cells",
        "legacy_secs",
        "runner_secs",
        "overhead_pct",
        "cells_per_sec",
    ]);
    t.push_row([
        "runner_overhead".into(),
        "clique".into(),
        n.to_string(),
        trials.to_string(),
        processes.len().to_string(),
        format!("{legacy_secs:.4}"),
        format!("{runner_secs:.4}"),
        format!("{overhead_pct:.2}"),
        fmt_f(cells_per_sec),
    ]);
    print!("{}", opts.render(&t));
    if !opts.csv && opts.format == dispersion_bench::OutputFormat::Text {
        println!("\n(same per-trial seeds on both paths; the gate is |overhead| within 3%)");
    }
}
