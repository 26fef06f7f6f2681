//! E17: Prop 5.16 — the lollipop graph (clique + path) started from a
//! clique vertex has dispersion time `Ω(n³ log n)` w.h.p., matching the
//! `O(n³ log n)` worst-case envelope of Corollary 3.2.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin lollipop -- [--sizes 24,32,48] [--trials 50]
//! ```
//!
//! One spec cell per size, pinned to the pre-runner per-size seeds.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_bounds::upper::cor32_general;
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::fit::fit_power;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env().reject_positional();
    let sizes = opts.sizes_or(&[16, 24, 32, 48]);

    let mut spec = ExperimentSpec::new(opts.seed);
    for (k, &n) in sizes.iter().enumerate() {
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Lollipop, n),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(opts.trials))
            .master_seed(opts.seed + k as u64),
        );
    }

    let records = run_spec(&opts, &spec);

    println!("# Prop 5.16: lollipop dispersion (expected Θ(n³ log n) from a clique vertex)\n");
    let mut t = TextTable::new(["n", "E[τ_seq]", "±95%", "τ/(n³ ln n)", "Cor3.2 envelope"]);
    let mut ns = Vec::new();
    let mut means = Vec::new();
    for (r, &n) in records.iter().zip(&sizes) {
        if r.error.is_some() {
            continue;
        }
        let mean = r.mean("time");
        let nf = n as f64;
        t.push_row([
            n.to_string(),
            fmt_f(mean),
            fmt_f(r.ci95_half("time")),
            fmt_f(mean / (nf.powi(3) * nf.ln())),
            fmt_f(cor32_general(n)),
        ]);
        // an empty cell's mean of 0 has no logarithm
        if r.trials > 0 {
            ns.push(nf);
            means.push(mean);
        }
    }
    print!("{}", opts.render(&t));
    if ns.len() >= 2 {
        let fit = fit_power(&ns, &means);
        println!(
            "\nfit: τ_seq ~ n^{:.2} (R² = {:.3}); paper predicts exponent ≈ 3 (+ log factor)",
            fit.exponent, fit.r2
        );
    }
    report_errors(&records);
}
