//! E1 (footnote of Table 1): re-runs the paper's simulation estimating the
//! path constant `κ_p` in `t_seq(P_n) ≈ κ_p · n² log n` (the paper thanks
//! Nikolaus Howe for simulations suggesting `κ_p ≈ 0.6`).
//!
//! Theorem 5.4 identifies the dispersion time of the path with `E[M]`, the
//! expected maximum of `n` i.i.d. end-to-end hitting times; we estimate both
//! sides.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin kp_path -- [--sizes 32,64,128,256] [--trials 100]
//! ```

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_graphs::generators::path;
use dispersion_graphs::walk::{step, WalkKind};
use dispersion_sim::parallel::par_trials;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::stats::Summary;
use dispersion_sim::table::{fmt_f, TextTable};

/// One sample of `M = max of n` i.i.d. end-to-end path hitting times.
fn max_hitting_sample(n: usize, rng: &mut dispersion_sim::Xoshiro256pp) -> f64 {
    let g = path(n);
    let target = (n - 1) as u32;
    let mut max = 0u64;
    for _ in 0..n {
        let mut pos = 0u32;
        let mut steps = 0u64;
        while pos != target {
            pos = step(&g, WalkKind::Simple, pos, rng);
            steps += 1;
        }
        max = max.max(steps);
    }
    max as f64
}

fn main() {
    let opts = Options::from_env().reject_positional();
    let sizes = opts.sizes_or(&[32, 64, 128, 192]);

    // the t_seq and t_par columns: two spec cells per size, pinned to the
    // pre-runner per-size seeds
    let mut spec = ExperimentSpec::new(opts.seed);
    for (k, &n) in sizes.iter().enumerate() {
        let s0 = opts.seed + 10 * k as u64;
        for (j, p) in [Process::Sequential, Process::Parallel]
            .into_iter()
            .enumerate()
        {
            spec.push(
                CellSpec::new(
                    FamilySpec::explicit(Family::Path, n),
                    Measure::Dispersion(p),
                )
                .budget(Budget::Trials(opts.trials))
                .master_seed(s0 + j as u64),
            );
        }
    }

    let records = run_spec(&opts, &spec);

    println!("# κ_p estimation on the path (paper reports κ_p ≈ 0.6 via simulation)");
    println!("# normalisation: t / (n² log₂ n)  — the paper's Table 1 uses 'log', base unstated\n");
    let mut t = TextTable::new([
        "n",
        "t_seq/(n² ln n)",
        "t_seq/(n² log₂ n)",
        "t_par/(n² log₂ n)",
        "E[M]/(n² log₂ n)",
    ]);
    for ((k, &n), cells) in sizes.iter().enumerate().zip(records.chunks(2)) {
        if cells.iter().any(|r| r.error.is_some()) {
            continue;
        }
        let s0 = opts.seed + 10 * k as u64;
        let m = par_trials(opts.trials.min(60), opts.threads, s0 + 2, |_, rng| {
            max_hitting_sample(n, rng)
        });
        let m_mean = if m.is_empty() {
            f64::NAN
        } else {
            Summary::from_samples(&m).mean
        };
        let (seq, par) = (cells[0].mean("time"), cells[1].mean("time"));
        let nf = n as f64;
        let norm_ln = nf * nf * nf.ln();
        let norm_log2 = nf * nf * nf.log2();
        t.push_row([
            n.to_string(),
            fmt_f(seq / norm_ln),
            fmt_f(seq / norm_log2),
            fmt_f(par / norm_log2),
            fmt_f(m_mean / norm_log2),
        ]);
    }
    print!("{}", opts.render(&t));
    println!("\n(Theorem 5.4: all three normalised columns converge to the same κ_p)");
    report_errors(&records);
}
