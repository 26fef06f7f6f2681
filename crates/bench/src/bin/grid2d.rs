//! E3 deep-dive: Open Problem 1 — the 2-d torus dispersion time sits
//! between `Ω(n log n)` (Prop. 5.10) and `O(n log² n)` (Thm 3.1). This
//! binary tracks both normalisations across sizes and measures the
//! aggregate's ball shape (the mechanism behind the lower bound).
//!
//! Alongside the simulated `t_seq`/`t_par` it reports the *exact* maximum
//! hitting time to the origin and the lazy spectral gap, computed through
//! the `dispersion-solve` sparse engine (CG + Lanczos), which keeps working
//! far past the dense-solver ceiling — a 500×500 torus (`n = 250 000`) is
//! fine:
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin grid2d -- [--trials 100]
//!     [--sizes 500] [--process seq|par|unif|both] [--topology explicit|implicit]
//!     [--budget ci:0.05] [--resume FILE]
//! ```
//!
//! `--sizes` takes torus side lengths (`--sizes 500` is the 500×500
//! torus, `n = 250 000`); `--process par` restricts the simulated columns
//! to Parallel-IDLA (the cheap way to drive one huge trial). `--process
//! both` runs all three simulated columns — the event-chain Uniform
//! schedule samples its `Θ(n · t_par)` no-op ticks in one draw per settle,
//! so the `t_unif` column costs the same walker time as `t_seq` and is fine
//! at `n = 250 000` (before the event-driven engine it timed out). The
//! reported `unif/n` normalisation puts the tick count on the Parallel
//! clock for the Thm 4.8 comparison. Sides with `n > 20 000`
//! automatically cap the trial count and skip the shape section.
//!
//! `--topology implicit` runs the simulation on the closed-form
//! `dispersion_graphs::topology::Torus2d` — **no adjacency is
//! materialised** past side 256 (below it the 1 MiB CSR twin of the same
//! torus is faster and gives the same records), so torus sides in the
//! thousands (`--sizes 2000` is the `n = 4·10⁶` torus) are limited by
//! walker time only, not memory. The
//! exact solver columns need the CSR operators and print `-` in implicit
//! mode; use an explicit run at the same side to fill them.
//!
//! The simulated columns and the Prop 5.10 shape section are cells of one
//! `ExperimentSpec` executed by the streaming runner: the runner
//! work-steals across sides, so a slow 500×500 cell no longer serialises
//! the smaller sides behind it, and `--resume FILE` checkpoints the sweep.
//! The shape cells stream two composed observers (`AggregateShape` ball
//! statistics and `PhaseTimes`) through one engine pass per trial and read
//! the dispersion time from the run's outcome — nothing is rerun and no
//! trajectory is materialised. Any argument besides the shared flags and
//! `--process` is a usage error.

use dispersion_bench::{report_errors, run_spec, usage_error, Options};
use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_graphs::generators::grid::{index_of, torus2d};
use dispersion_graphs::traversal::diameter_bounds;
use dispersion_markov::hitting::hitting_times_to_set;
use dispersion_markov::mixing::spectral_gap;
use dispersion_markov::transition::WalkKind;
use dispersion_sim::sink::Record;
use dispersion_sim::spec::{BackendSpec, Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

/// Above this vertex count the simulation trial count is capped (at 2, and
/// at 1 past [`HUGE_N`]) and the shape section skipped; the exact sparse
/// columns carry the analysis — simulated fills cost `Θ(n²)` walker steps,
/// the solvers only `O(m·√κ)`.
const LARGE_N: usize = 20_000;

/// Sizes where even a pair of simulated fills dominates the run.
const HUGE_N: usize = 100_000;

/// Which simulated process columns to produce.
#[derive(Clone, Copy, PartialEq)]
enum Which {
    Seq,
    Par,
    Unif,
    Both,
}

/// Takes `--process seq|par|unif|both` (default both) off the positional
/// arguments.
fn which_process(opts: &mut Options) -> Which {
    match opts.take_flag("--process").as_deref() {
        None | Some("both") => Which::Both,
        Some("seq") => Which::Seq,
        Some("par") => Which::Par,
        Some("unif") => Which::Unif,
        Some(other) => usage_error(&format!(
            "--process must be seq, par, unif or both, got {other:?}"
        )),
    }
}

/// Cell ids of one side's simulated measurements.
struct SideCells {
    seq: Option<usize>,
    par: Option<usize>,
    unif: Option<usize>,
    shape: Option<usize>,
}

fn main() {
    let mut opts = Options::from_env();
    let which = which_process(&mut opts);
    let opts = opts.reject_positional();
    let backend = opts.backend_or_explicit();
    let implicit = backend == BackendSpec::Implicit;
    let sides = if opts.sizes.is_empty() {
        vec![12usize, 16, 24, 32, 48]
    } else {
        opts.sizes.iter().map(|&s| s.max(2)).collect()
    };

    // the simulated columns + shape section as one spec: legacy per-side
    // seeds pinned, trial caps applied per side, runner steals across sides
    let mut spec = ExperimentSpec::new(opts.seed);
    let mut cells: Vec<SideCells> = Vec::with_capacity(sides.len());
    let mut shape_k = 0u64;
    for (k, &side) in sides.iter().enumerate() {
        let n = side * side;
        let origin = index_of(&[side / 2, side / 2], &[side, side]);
        // a simulated fill costs Θ(n²) walker steps, so big sides cap the
        // per-cell trial count no matter what the budget flags ask for;
        // an adaptive CI target on a huge side would demand unbounded fills
        let cap = if n > HUGE_N {
            1
        } else if n > LARGE_N {
            2
        } else {
            usize::MAX
        };
        let budget = match opts.budget_or_trials() {
            Budget::Trials(b) => Budget::Trials(b.min(cap)),
            ci if n <= LARGE_N => ci,
            _ => Budget::Trials(opts.trials.min(cap)),
        };
        let fam = || FamilySpec {
            family: Family::Torus2d,
            size: n,
            backend,
            graph_seed: 0,
            origin: Some(origin),
        };
        let s0 = opts.seed + 10 * k as u64;
        let seq = matches!(which, Which::Seq | Which::Both).then(|| {
            spec.push(
                CellSpec::new(fam(), Measure::Dispersion(Process::Sequential))
                    .budget(budget)
                    .master_seed(s0),
            )
        });
        let par = matches!(which, Which::Par | Which::Both).then(|| {
            spec.push(
                CellSpec::new(fam(), Measure::ParallelWithHalf)
                    .budget(budget)
                    .master_seed(s0 + 1),
            )
        });
        // event-driven Uniform: same walker cost as the sequential fill
        // (the Θ(n · t_par) no-op ticks are sampled, not simulated), so it
        // rides the same per-side trial caps; seq = s0 / par = s0 + 1 stay
        // on their historical streams
        let unif = matches!(which, Which::Unif | Which::Both).then(|| {
            spec.push(
                CellSpec::new(fam(), Measure::Dispersion(Process::Uniform))
                    .budget(budget)
                    .master_seed(s0 + 2),
            )
        });
        let shape = (n <= LARGE_N).then(|| {
            // the shape seed indexes the *filtered* shape list (skipped big
            // sides don't consume a seed), matching the pre-runner loop
            let id = spec.push(
                CellSpec::new(fam(), Measure::TorusShapeHalfFill)
                    .budget(Budget::Trials(opts.trials.min(40)))
                    .master_seed(opts.seed + 1000 + shape_k),
            );
            shape_k += 1;
            id
        });
        cells.push(SideCells {
            seq,
            par,
            unif,
            shape,
        });
    }

    let records = run_spec(&opts, &spec);

    println!("# Open Problem 1: 2-d torus dispersion between Ω(n log n) and O(n log² n)\n");
    if implicit {
        println!(
            "# topology = implicit: closed-form neighbours past side 256 (CSR below, same draws);"
        );
        println!("# exact solver columns need CSR operators and are skipped\n");
    }

    // exact quantities on the solvers' size rule: dense LU/Jacobi up to 512
    // states, sparse CG/Lanczos beyond — this is what unlocks
    // side ≥ 500 (explicit mode only: the solvers need the CSR operators)
    let exacts: Vec<Option<(f64, f64)>> = sides
        .iter()
        .map(|&side| {
            if implicit {
                return None;
            }
            let n = side * side;
            let origin = index_of(&[side / 2, side / 2], &[side, side]);
            let g = torus2d(side);
            // double-sweep bounds are enough for a scale diagnostic and stay
            // O(m) where the exact diameter would be O(n·m)
            if let Some((lo, hi)) = diameter_bounds(&g) {
                eprintln!("# side={side}: n={n}, m={}, diam ∈ [{lo}, {hi}]", g.m());
            }
            let thit = hitting_times_to_set(&g, WalkKind::Simple, &[origin])
                .into_iter()
                .fold(0.0f64, f64::max);
            let gap = spectral_gap(&g, WalkKind::Lazy);
            Some((thit, gap))
        })
        .collect();

    let get = |id: Option<usize>| -> Option<&Record> {
        id.map(|i| &records[i]).filter(|r| r.error.is_none())
    };

    let mut t = TextTable::new([
        "side",
        "n",
        "topology",
        "trials",
        "t_seq",
        "t_par",
        "t_unif",
        "unif/n",
        "par/(n ln n)",
        "par/(n ln² n)",
        "t_hit",
        "thit/(n ln n)",
        "gap(lazy)",
    ]);
    for (k, &side) in sides.iter().enumerate() {
        let n = side * side;
        let nf = n as f64;
        let seq = get(cells[k].seq);
        let par = get(cells[k].par);
        let unif = get(cells[k].unif);
        let exact = exacts[k];
        // adaptive budgets can stop the cells at different counts
        let counts: Vec<u64> = [seq, par, unif]
            .into_iter()
            .flatten()
            .map(|r| r.trials)
            .collect();
        let trials = match counts.as_slice() {
            [] => "0".to_string(),
            [first, rest @ ..] if rest.iter().all(|c| c == first) => first.to_string(),
            all => all.iter().map(u64::to_string).collect::<Vec<_>>().join("/"),
        };
        let opt_f = |r: Option<&Record>| r.map_or("-".into(), |r| fmt_f(r.mean("time")));
        let opt_norm =
            |r: Option<&Record>, d: f64| r.map_or("-".into(), |r| fmt_f(r.mean("time") / d));
        t.push_row([
            side.to_string(),
            n.to_string(),
            backend.label().to_string(),
            trials,
            opt_f(seq),
            opt_f(par),
            opt_f(unif),
            // ticks/n puts Uniform on the Parallel clock (Thm 4.8 scale)
            opt_norm(unif, nf),
            opt_norm(par, nf * nf.ln()),
            opt_norm(par, nf * nf.ln() * nf.ln()),
            exact.map_or("-".into(), |(thit, _)| fmt_f(thit)),
            exact.map_or("-".into(), |(thit, _)| fmt_f(thit / (nf * nf.ln()))),
            // gaps shrink like 1/side²; fmt_f would show 0
            exact.map_or("-".into(), |(_, gap)| format!("{gap:.3e}")),
        ]);
    }
    print!("{}", opts.render(&t));
    println!("\n(if /(n ln n) rises and /(n ln² n) falls, the truth is strictly between —");
    println!(" the paper conjectures n log² n, matching the binary-tree mechanism;");
    println!(" t_unif counts Uniform ticks, so unif/n ≈ t_par is the Thm 4.8 scale;");
    println!(" t_hit is an exact CG solve; the lazy gap is a deflated-Lanczos estimate)\n");

    // aggregate roundness at half fill: the Prop 5.10 mechanism — the
    // sequential fill with k = n/2 particles, streamed by three composed
    // observers in one engine pass per trial
    let shape_rows: Vec<(usize, &Record)> = sides
        .iter()
        .enumerate()
        .filter_map(|(k, &side)| get(cells[k].shape).map(|r| (side, r)))
        .collect();
    if shape_rows.len() < sides.len() {
        println!(
            "## aggregate shape: skipping sides with n > {LARGE_N} (a half fill is O(n²) steps)"
        );
    }
    if shape_rows.is_empty() {
        report_errors(&records);
        return;
    }
    println!("## aggregate shape at half fill (Prop 5.10: a ball of radius ~√(n/2π)),");
    println!("## sequential k = n/2 fill; t_fill and the half-fill clock share the pass");
    let mut t2 = TextTable::new([
        "side",
        "inner r",
        "outer r",
        "fluct",
        "roundness",
        "ball r",
        "t_fill",
        "half t",
    ]);
    for (side, r) in shape_rows {
        let n = side * side;
        let ball_r = ((n / 2) as f64 / std::f64::consts::PI).sqrt();
        t2.push_row([
            side.to_string(),
            fmt_f(r.mean("inner_r")),
            fmt_f(r.mean("outer_r")),
            fmt_f(r.mean("fluct")),
            fmt_f(r.mean("roundness")),
            fmt_f(ball_r),
            fmt_f(r.mean("t_fill")),
            fmt_f(r.mean("half_t")),
        ]);
    }
    print!("{}", opts.render(&t2));
    println!("\n(shape theorems: fluctuation = O(log r), roundness → 1; t_fill is the");
    println!(" longest walk among the n/2 fill particles, 'half t' the total walk");
    println!(" steps consumed when half of them had settled — one engine pass)");
    report_errors(&records);
}
