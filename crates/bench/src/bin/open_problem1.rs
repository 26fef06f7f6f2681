//! Open Problem 1 scaling study: where between `Ω(n log n)` (Prop. 5.10)
//! and `O(n log² n)` (Thm 3.1) does the 2-d torus Parallel dispersion time
//! actually sit?
//!
//! The `grid2d` deep-dive prints both normalisations side by side; this
//! binary turns the question into a *fit*: sweep torus sides across more
//! than a decade of `n`, regress `t_par/(n ln n)` against `ln n`, and
//! report the OLS slope with its standard error. If the truth is
//! `Θ(n log n)` the slope is zero; if it is the conjectured `Θ(n log² n)`
//! the slope is a positive constant and the `t_par/(n ln² n)` column is
//! the one with vanishing drift.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin open_problem1 -- \
//!     [--sizes 24,32,...] [--budget ci:0.03] \
//!     [--topology implicit|explicit] [--resume FILE] [--format json]
//! ```
//!
//! Defaults: implicit torus backend (the closed form past side 256, where
//! no adjacency is materialised; the same records below it), eight
//! sides from 24 to 256 (`n = 576 … 65 536`, two decades), per-side
//! adaptive `ci:` budgets that loosen as the `Θ(n²)`-step fills grow, and
//! trial caps above [`LARGE_N`]. The committed capture
//! (`BENCH_open_problem1.json`) is this binary's `--format json` output:
//! one record per side plus one `fit` record per normalisation.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::spec::{BackendSpec, Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

/// Above this vertex count the per-side budget drops to a fixed trial
/// pair: a fill costs `Θ(n²)` walker steps, so an adaptive CI target
/// would demand unbounded wall-clock exactly where trials are dearest.
const LARGE_N: usize = 20_000;

/// Default torus sides: `n = 576 … 65 536` spans two decades with
/// near-uniform spacing in `ln n` — what the regression wants.
const DEFAULT_SIDES: [usize; 8] = [24, 32, 48, 64, 90, 128, 180, 256];

/// Per-side adaptive budget, unless `--budget`/`--trials` overrides: tight
/// CI where fills are cheap, looser CI in the mid range, a trial pair
/// beyond [`LARGE_N`].
fn side_budget(opts: &Options, n: usize) -> Budget {
    if let Some(b) = opts.budget {
        return match b {
            Budget::Trials(t) => Budget::Trials(t.min(if n > LARGE_N { 2 } else { usize::MAX })),
            ci if n <= LARGE_N => ci,
            _ => Budget::Trials(2),
        };
    }
    if n > LARGE_N {
        Budget::Trials(2)
    } else if n > 4096 {
        Budget::CiHalfWidth {
            rel: 0.05,
            min_trials: 8,
            max_trials: 48,
        }
    } else {
        Budget::CiHalfWidth {
            rel: 0.03,
            min_trials: 16,
            max_trials: 200,
        }
    }
}

/// OLS fit of `y` on `x`: `(slope, slope_stderr, intercept, r²)`.
fn ols(x: &[f64], y: &[f64]) -> (f64, f64, f64, f64) {
    let m = x.len() as f64;
    let xm = x.iter().sum::<f64>() / m;
    let ym = y.iter().sum::<f64>() / m;
    let sxx: f64 = x.iter().map(|v| (v - xm).powi(2)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - xm) * (b - ym)).sum();
    let slope = sxy / sxx;
    let intercept = ym - slope * xm;
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| (b - (intercept + slope * a)).powi(2))
        .sum();
    let ss_tot: f64 = y.iter().map(|b| (b - ym).powi(2)).sum();
    let stderr = (ss_res / (m - 2.0).max(1.0) / sxx).sqrt();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        f64::NAN
    };
    (slope, stderr, intercept, r2)
}

fn main() {
    let opts = Options::from_env().reject_positional();
    let sides = opts.sizes_or(&DEFAULT_SIDES);
    let backend = opts.backend.unwrap_or(BackendSpec::Implicit);

    let mut spec = ExperimentSpec::new(opts.seed);
    for (k, &side) in sides.iter().enumerate() {
        let n = side * side;
        let origin = ((side / 2) * side + side / 2) as u32;
        let fam = FamilySpec {
            family: Family::Torus2d,
            size: n,
            backend,
            graph_seed: 0,
            origin: Some(origin),
        };
        spec.push(
            CellSpec::new(fam, Measure::Dispersion(Process::Parallel))
                .budget(side_budget(&opts, n))
                .master_seed(opts.seed + 100 * k as u64),
        );
    }

    eprintln!(
        "# open problem 1: t_par on the 2-d torus, sides {sides:?} \
         (n = {} … {})",
        sides.first().map_or(0, |s| s * s),
        sides.last().map_or(0, |s| s * s),
    );
    let records = run_spec(&opts, &spec);

    let mut t = TextTable::new([
        "side",
        "n",
        "trials",
        "t_par",
        "sem",
        "par/(n ln n)",
        "par/(n ln² n)",
    ]);
    let mut lnn = Vec::new();
    let mut y1 = Vec::new();
    let mut y2 = Vec::new();
    for (k, &side) in sides.iter().enumerate() {
        let r = &records[k];
        if r.error.is_some() {
            continue;
        }
        let n = (side * side) as f64;
        let tp = r.mean("time");
        lnn.push(n.ln());
        y1.push(tp / (n * n.ln()));
        y2.push(tp / (n * n.ln() * n.ln()));
        t.push_row([
            side.to_string(),
            (side * side).to_string(),
            r.trials.to_string(),
            fmt_f(tp),
            fmt_f(r.sem("time")),
            fmt_f(tp / (n * n.ln())),
            fmt_f(tp / (n * n.ln() * n.ln())),
        ]);
    }
    print!("{}", opts.render(&t));

    if lnn.len() >= 3 {
        let mut ft = TextTable::new(["fit", "slope", "stderr", "intercept", "r2", "points"]);
        for (label, ys) in [("t/(n ln n) vs ln n", &y1), ("t/(n ln² n) vs ln n", &y2)] {
            let (slope, stderr, intercept, r2) = ols(&lnn, ys);
            ft.push_row([
                label.to_string(),
                format!("{slope:.4e}"),
                format!("{stderr:.4e}"),
                format!("{intercept:.4e}"),
                format!("{r2:.3}"),
                lnn.len().to_string(),
            ]);
        }
        print!("{}", opts.render(&ft));
        // commentary on stderr so `--format json` stdout stays pure NDJSON
        eprintln!(
            "# (a significantly positive t/(n ln n) slope rejects Θ(n log n);\n\
             #  a flat t/(n ln² n) line supports the paper's n log² n conjecture —\n\
             #  slopes within ~2 stderr of zero are indistinguishable from flat)"
        );
    } else {
        eprintln!("# fewer than 3 completed sides: no fit");
    }
    report_errors(&records);
}
