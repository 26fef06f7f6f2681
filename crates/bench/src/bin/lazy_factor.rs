//! E11: Theorem 4.3 — lazy dispersion times are `2(1 + o(1))×` the simple
//! ones, for both the sequential and parallel processes.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin lazy_factor -- [--trials 200]
//! ```

use dispersion_bench::Options;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_sim::experiment::estimate_dispersion;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env();
    let sizes = opts.sizes_or(&[64, 128, 256]);
    let families = [Family::Complete, Family::Cycle, Family::Hypercube];

    println!("# Theorem 4.3: lazy/simple dispersion-time ratio → 2\n");
    let mut t = TextTable::new(["family", "n", "seq lazy/simple", "par lazy/simple"]);
    for (fk, family) in families.iter().enumerate() {
        for (k, &n) in sizes.iter().enumerate() {
            let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, ((fk as u64) << 32) | k as u64));
            let inst = family.instance(n, &mut grng);
            let g = &inst.graph;
            let s0 = opts.seed + (fk * 1000 + k * 10) as u64;
            let seq_s = estimate_dispersion(
                g,
                inst.origin,
                Process::Sequential,
                &ProcessConfig::simple(),
                opts.trials,
                opts.threads,
                s0,
            );
            let seq_l = estimate_dispersion(
                g,
                inst.origin,
                Process::Sequential,
                &ProcessConfig::lazy(),
                opts.trials,
                opts.threads,
                s0 + 1,
            );
            let par_s = estimate_dispersion(
                g,
                inst.origin,
                Process::Parallel,
                &ProcessConfig::simple(),
                opts.trials,
                opts.threads,
                s0 + 2,
            );
            let par_l = estimate_dispersion(
                g,
                inst.origin,
                Process::Parallel,
                &ProcessConfig::lazy(),
                opts.trials,
                opts.threads,
                s0 + 3,
            );
            t.push_row([
                inst.label.to_string(),
                g.n().to_string(),
                fmt_f(seq_l.mean / seq_s.mean),
                fmt_f(par_l.mean / par_s.mean),
            ]);
        }
    }
    print!("{}", opts.render(&t));
    println!("\n(paper predicts both ratios → 2 as n → ∞)");
}
