//! E11: Theorem 4.3 — lazy dispersion times are `2(1 + o(1))×` the simple
//! ones, for both the sequential and parallel processes.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin lazy_factor -- [--trials 200]
//! ```
//!
//! A thin spec over the streaming runner: four cells per (family, size),
//! pinned to the pre-runner graph and trial seeds so a given `--seed`
//! reproduces the historical ratios.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_sim::rng::trial_seed;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env().reject_positional();
    let sizes = opts.sizes_or(&[64, 128, 256]);
    let families = [Family::Complete, Family::Cycle, Family::Hypercube];
    // the four cells of one row, in seed order
    let runs = [
        (Process::Sequential, ProcessConfig::simple()),
        (Process::Sequential, ProcessConfig::lazy()),
        (Process::Parallel, ProcessConfig::simple()),
        (Process::Parallel, ProcessConfig::lazy()),
    ];

    let mut spec = ExperimentSpec::new(opts.seed);
    for (fk, family) in families.into_iter().enumerate() {
        for (k, &n) in sizes.iter().enumerate() {
            let graph_seed = trial_seed(opts.seed, ((fk as u64) << 32) | k as u64);
            let fam = FamilySpec::explicit(family, n).graph_seed(graph_seed);
            let s0 = opts.seed + (fk * 1000 + k * 10) as u64;
            for (j, (p, cfg)) in runs.into_iter().enumerate() {
                spec.push(
                    CellSpec::new(fam.clone(), Measure::Dispersion(p))
                        .budget(Budget::Trials(opts.trials))
                        .config(cfg)
                        .master_seed(s0 + j as u64),
                );
            }
        }
    }

    let records = run_spec(&opts, &spec);

    println!("# Theorem 4.3: lazy/simple dispersion-time ratio → 2\n");
    let mut t = TextTable::new(["family", "n", "seq lazy/simple", "par lazy/simple"]);
    for row in records.chunks(runs.len()) {
        if row.iter().any(|r| r.error.is_some()) {
            continue;
        }
        let mean = |j: usize| row[j].mean("time");
        t.push_row([
            row[0].family.clone(),
            row[0].n.to_string(),
            fmt_f(mean(1) / mean(0)),
            fmt_f(mean(3) / mean(2)),
        ]);
    }
    print!("{}", opts.render(&t));
    println!("\n(paper predicts both ratios → 2 as n → ∞)");
    report_errors(&records);
}
