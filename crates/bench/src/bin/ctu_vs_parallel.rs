//! E12: Theorem 4.8 — the continuous-time Uniform IDLA dispersion time
//! equals the Parallel-IDLA dispersion time up to `1 + o(1)`.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin ctu_vs_parallel -- [--trials 200]
//!     [--budget ci:0.02] [--resume FILE]
//! ```
//!
//! A thin spec over the streaming runner: two cells per (family, size),
//! seeded exactly as the pre-runner version so a given `--seed`
//! reproduces the historical table.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::spec::{CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env().reject_positional();
    let sizes = opts.sizes_or(&[64, 128, 256, 512]);
    let families = [
        Family::Complete,
        Family::Hypercube,
        Family::RandomRegular(5),
    ];
    let budget = opts.budget_or_trials();

    let mut spec = ExperimentSpec::new(opts.seed);
    let mut rows: Vec<(usize, usize)> = Vec::new();
    for (fk, family) in families.iter().enumerate() {
        for (k, &n) in sizes.iter().enumerate() {
            let fam = FamilySpec::explicit(*family, n)
                .graph_seed(opts.seed ^ (((fk * 16 + k) as u64) << 4));
            let s0 = opts.seed + (fk * 777 + k * 11) as u64;
            let ctu = spec.push(
                CellSpec::new(fam.clone(), Measure::Dispersion(Process::Ctu))
                    .budget(budget)
                    .master_seed(s0),
            );
            let par = spec.push(
                CellSpec::new(fam, Measure::Dispersion(Process::Parallel))
                    .budget(budget)
                    .master_seed(s0 + 1),
            );
            rows.push((ctu, par));
        }
    }

    let records = run_spec(&opts, &spec);

    println!("# Theorem 4.8: τ_ctu / τ_par → 1\n");

    let mut t = TextTable::new(["family", "n", "E[τ_ctu]", "E[τ_par]", "trials", "ratio"]);
    for (ctu_id, par_id) in rows {
        let ctu = &records[ctu_id];
        let par = &records[par_id];
        t.push_row([
            ctu.family.clone(),
            ctu.n.to_string(),
            fmt_f(ctu.mean("time")),
            fmt_f(par.mean("time")),
            format!("{}/{}", ctu.trials, par.trials),
            fmt_f(ctu.mean("time") / par.mean("time")),
        ]);
    }
    print!("{}", opts.render(&t));
    println!("\n(ratios should approach 1 as n grows)");
    report_errors(&records);
}
