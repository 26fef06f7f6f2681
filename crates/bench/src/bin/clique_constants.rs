//! E7: the clique constants of Theorem 5.2 —
//! `t_seq(K_n)/n → κ_cc ≈ 1.2552` and `t_par(K_n)/n → π²/6 ≈ 1.6449`.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin clique_constants -- [--trials 200]
//!     [--budget ci:0.01] [--resume FILE]
//! ```
//!
//! A thin spec over the streaming runner: two cells per size (sequential
//! and parallel), pinned to the pre-runner per-size seeds so a given
//! `--seed` reproduces the historical estimates. `--budget ci:REL` is the
//! natural mode here — constants want a target precision, not a trial
//! count.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_bounds::constants::{kappa_cc_default, PI2_OVER_6};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::spec::{CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env().reject_positional();
    let sizes = opts.sizes_or(&[128, 256, 512, 1024, 2048, 4096]);
    let budget = opts.budget_or_trials();

    let mut spec = ExperimentSpec::new(opts.seed);
    let rows: Vec<(usize, usize)> = sizes
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let fam = FamilySpec::explicit(Family::Complete, n);
            let seq = spec.push(
                CellSpec::new(fam.clone(), Measure::Dispersion(Process::Sequential))
                    .budget(budget)
                    .master_seed(opts.seed + 2 * k as u64),
            );
            let par = spec.push(
                CellSpec::new(fam, Measure::Dispersion(Process::Parallel))
                    .budget(budget)
                    .master_seed(opts.seed + 2 * k as u64 + 1),
            );
            (seq, par)
        })
        .collect();

    let records = run_spec(&opts, &spec);

    println!("# Theorem 5.2: clique constants");
    println!(
        "# targets: t_seq/n → κ_cc = {:.4}, t_par/n → π²/6 = {:.4} (≈31% gap)\n",
        kappa_cc_default(),
        PI2_OVER_6
    );

    let mut t = TextTable::new([
        "n", "t_seq/n", "±", "tr_seq", "t_par/n", "±", "tr_par", "par/seq",
    ]);
    for (seq_id, par_id) in rows {
        let seq = &records[seq_id];
        let par = &records[par_id];
        let nf = seq.n as f64;
        t.push_row([
            seq.n.to_string(),
            fmt_f(seq.mean("time") / nf),
            fmt_f(seq.ci95_half("time") / nf),
            seq.trials.to_string(),
            fmt_f(par.mean("time") / nf),
            fmt_f(par.ci95_half("time") / nf),
            par.trials.to_string(),
            fmt_f(par.mean("time") / seq.mean("time")),
        ]);
    }
    print!("{}", opts.render(&t));
    println!(
        "\npaper: the two constants are distinct (Remark 5.3), ratio {:.3}",
        PI2_OVER_6 / kappa_cc_default()
    );
    report_errors(&records);
}
