//! E1–E8: regenerates the dispersion-time columns (`t_seq`, `t_par`) of
//! Table 1, per graph family, with scaling-law fits against the paper's
//! predicted shapes.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin table1 -- [family|all]
//!     [--sizes 32,64,128] [--trials 100] [--budget ci:0.02] [--seed 1]
//!     [--resume FILE] [--csv]
//! ```
//!
//! Families: path cycle grid2d grid3d hypercube btree clique expander.
//!
//! This binary is a *spec* over the streaming runner: it declares one
//! `ExperimentSpec` cell per (family, size, process) — pinning the exact
//! per-sweep seeds the pre-runner version used, so means are unchanged
//! for a given `--seed` — and the runner schedules every cell across
//! threads, streams one-pass statistics (no sample vectors), stops cells
//! adaptively under `--budget ci:REL`, and checkpoints to `--resume FILE`.

use dispersion_bench::sweep::predicted_shape;
use dispersion_bench::{report_errors, run_spec, usage_error, Options};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::fit::fit_power;
use dispersion_sim::sink::Record;
use dispersion_sim::spec::{CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

fn family_by_label(label: &str) -> Option<Family> {
    Family::table1().into_iter().find(|f| f.label() == label)
}

fn default_sizes(family: Family) -> Vec<usize> {
    match family {
        // quadratic-time families stay small
        Family::Path | Family::Cycle => vec![32, 64, 128, 256],
        Family::Torus2d => vec![64, 144, 256, 576],
        Family::Torus3d => vec![64, 216, 512, 1000],
        Family::BinaryTree => vec![63, 127, 255, 511, 1023],
        Family::Hypercube => vec![64, 128, 256, 512, 1024],
        Family::Complete => vec![128, 256, 512, 1024, 2048],
        Family::RandomRegular(_) => vec![128, 256, 512, 1024, 2048],
        Family::Star => vec![128, 256, 512],
        Family::Lollipop => vec![24, 32, 48],
    }
}

/// One output row: the seq and par cell ids of a (family, size) point.
struct RowRef {
    seq: usize,
    par: usize,
}

fn main() {
    let mut opts = Options::from_env();
    // one family argument; a second word or an unknown flag is an error
    let which = if opts.positional.is_empty() {
        "all".to_string()
    } else {
        opts.positional.remove(0)
    };
    let opts = opts.reject_positional();
    let families: Vec<Family> = if which == "all" {
        Family::table1()
    } else {
        vec![family_by_label(&which)
            .unwrap_or_else(|| usage_error(&format!("unknown family {which:?}; try one of path cycle grid2d grid3d hypercube btree clique expander")))]
    };
    let budget = opts.budget_or_trials();

    // one spec for the whole run: cells for every family × size × process,
    // with the historical per-sweep seeds pinned cell by cell
    let mut spec = ExperimentSpec::new(opts.seed);
    let mut plan: Vec<(Family, Vec<RowRef>)> = Vec::new();
    for &family in &families {
        let sizes = opts.sizes_or(&default_sizes(family));
        let mut rows = Vec::with_capacity(sizes.len());
        for (k, &size) in sizes.iter().enumerate() {
            let fam = FamilySpec::explicit(family, size)
                .graph_seed(opts.seed ^ (k as u64).wrapping_mul(0x9E37));
            let seq = spec.push(
                CellSpec::new(fam.clone(), Measure::Dispersion(Process::Sequential))
                    .budget(budget)
                    .master_seed(opts.seed.wrapping_add(2 * k as u64 + 1)),
            );
            let par = spec.push(
                CellSpec::new(fam, Measure::ParallelWithHalf)
                    .budget(budget)
                    .master_seed(opts.seed.wrapping_add(2 * k as u64 + 2)),
            );
            rows.push(RowRef { seq, par });
        }
        plan.push((family, rows));
    }

    let records = run_spec(&opts, &spec);

    println!("# Table 1 reproduction — dispersion-time columns");
    println!(
        "# budget = {}, seed = {}, threads = {}\n",
        budget.label(),
        opts.seed,
        opts.threads
    );

    for (family, rows) in &plan {
        let (shape_label, shape) = predicted_shape(*family);
        let mut t = TextTable::new([
            "n",
            "t_seq",
            "±95%",
            "tr_seq",
            "t_par",
            "±95%",
            "tr_par",
            "t_half",
            "par/seq",
            "seq/shape",
            "par/shape",
        ]);
        let mut fit_pts: Vec<(f64, f64, f64)> = Vec::new();
        for row in rows {
            let seq: &Record = &records[row.seq];
            let par: &Record = &records[row.par];
            let n = seq.n.max(par.n);
            let s = shape(n as f64);
            let ok = seq.error.is_none() && par.error.is_none();
            let f = |x: f64| if ok { fmt_f(x) } else { "-".into() };
            t.push_row([
                n.to_string(),
                f(seq.mean("time")),
                f(seq.ci95_half("time")),
                seq.trials.to_string(),
                f(par.mean("time")),
                f(par.ci95_half("time")),
                par.trials.to_string(),
                f(par.mean("t_half")),
                f(par.mean("time") / seq.mean("time")),
                f(seq.mean("time") / s),
                f(par.mean("time") / s),
            ]);
            if ok {
                fit_pts.push((n as f64, seq.mean("time"), par.mean("time")));
            }
        }
        println!("## {} — paper predicts Θ({shape_label})", family.label());
        print!("{}", opts.render(&t));

        if fit_pts.len() >= 2 {
            let ns: Vec<f64> = fit_pts.iter().map(|p| p.0).collect();
            let seqs: Vec<f64> = fit_pts.iter().map(|p| p.1).collect();
            let pars: Vec<f64> = fit_pts.iter().map(|p| p.2).collect();
            let fs = fit_power(&ns, &seqs);
            let fp = fit_power(&ns, &pars);
            println!(
                "fit: t_seq ~ n^{:.2} (R²={:.3}), t_par ~ n^{:.2} (R²={:.3})\n",
                fs.exponent, fs.r2, fp.exponent, fp.r2
            );
        } else {
            println!();
        }
    }
    report_errors(&records);
}
