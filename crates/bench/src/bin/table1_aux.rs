//! E9: the auxiliary columns of Table 1 — cover time, hitting time, mixing
//! time — computed exactly (hitting/mixing) or by simulation (cover) per
//! family at a fixed size.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin table1_aux -- [--sizes 256]
//!     [--trials 50] [--budget ci:0.05] [--resume FILE]
//! ```
//!
//! Sizes up to 1024 use the dense all-pairs machinery (`O(n³)`), exactly as
//! the paper's table does. Larger sizes switch to the `dispersion-solve`
//! sparse engine: `t_hit` becomes the worst-start hitting time of the
//! instance origin (one CG solve), the mixing column becomes the spectral
//! upper bound from the Lanczos relaxation time, and Matthews' bound is
//! assembled from the sparse `t_hit` — so the old "keep sizes moderate"
//! guard is gone where the sparse path applies.
//!
//! The Monte-Carlo cover column goes through the streaming runner (one
//! `CoverTime` cell per family, adaptive under `--budget ci:REL`); the
//! exact columns stay direct solver calls on the same deterministic
//! instances.

use dispersion_bench::{report_errors, run_spec, Options};
use dispersion_graphs::families::Family;
use dispersion_markov::cover::matthews_upper_bound;
use dispersion_markov::hitting::{hitting_times_to_set, max_hitting_time};
use dispersion_markov::mixing::{mixing_time, mixing_time_bounds};
use dispersion_markov::transition::WalkKind;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::spec::{CellSpec, ExperimentSpec, FamilySpec, Measure};
use dispersion_sim::table::{fmt_f, TextTable};

/// Largest size still routed through the dense all-pairs path: beyond this
/// the `O(n³)` fundamental-matrix inverse and `P^t` squaring dominate the
/// run, and the sparse estimates take over.
const DENSE_EXACT_LIMIT: usize = 1024;

fn main() {
    let opts = Options::from_env();
    let size = opts.sizes_or(&[256])[0];
    let budget = opts.budget_or_trials();

    // the simulated cover column: one runner cell per family, sharing the
    // graph seed with the exact columns below so both see the same instance
    let mut spec = ExperimentSpec::new(opts.seed);
    let cover_cells: Vec<usize> = Family::table1()
        .into_iter()
        .enumerate()
        .map(|(fi, family)| {
            spec.push(
                CellSpec::new(
                    FamilySpec::explicit(family, size).graph_seed(opts.seed),
                    Measure::CoverTime,
                )
                .budget(budget)
                .master_seed((opts.seed ^ 0xC0FE).wrapping_add(fi as u64)),
            )
        })
        .collect();
    let records = run_spec(&opts, &spec);

    println!("# Table 1 auxiliary columns (cover / hitting / mixing), n ≈ {size}");
    println!("# paper rows: cover=Θ(n log n) except path/cycle=Θ(n²), 2d-grid=Θ(n log² n)");
    if size > DENSE_EXACT_LIMIT {
        // the mode is decided per row on the family's *rounded* n (hypercube
        // and btree can land back under the limit), hence "rows with"
        println!(
            "# rows with n > {DENSE_EXACT_LIMIT} use sparse mode — t_hit = worst start → origin \
             (CG), t_mix = spectral upper bound (Lanczos); their Matthews ub needs all-pairs \
             t_hit and shows \"-\""
        );
    }
    println!();

    let mut t = TextTable::new([
        "family",
        "n",
        "cover(sim)",
        "trials",
        "Matthews ub",
        "t_hit",
        "t_mix(1/4,lazy)",
        "cover/(n ln n)",
        "thit/n",
    ]);

    for (fi, family) in Family::table1().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, fi as u64));
        let inst = family.instance(size, &mut grng);
        let g = &inst.graph;
        let n = g.n();
        let (thit, tmix, matthews) = if n <= DENSE_EXACT_LIMIT {
            // dense exact path, O(n³): all-pairs hitting + TV mixing
            let thit = max_hitting_time(g, WalkKind::Simple);
            let tmix = mixing_time(g, WalkKind::Lazy, 0.25, 1 << 24)
                .map(|t| t as f64)
                .unwrap_or_else(|| mixing_time_bounds(g, WalkKind::Lazy, 0.25).1);
            let matthews = fmt_f(matthews_upper_bound(g, WalkKind::Simple));
            (thit, tmix, matthews)
        } else {
            // sparse path (n > 1024 is past the solvers' dense limit): one
            // CG solve gives the worst start towards the origin — a lower
            // bound on the all-pairs max, so Matthews'
            // H_{n-1}·max_{u,v} t_hit(u,v) cannot be formed honestly here
            let thit = hitting_times_to_set(g, WalkKind::Simple, &[inst.origin])
                .into_iter()
                .fold(0.0f64, f64::max);
            let tmix = mixing_time_bounds(g, WalkKind::Lazy, 0.25).1;
            (thit, tmix, "-".to_string())
        };
        let cell = &records[cover_cells[fi]];
        debug_assert_eq!(cell.n, n, "runner resolved a different instance");
        let cover = cell.mean("cover");
        let nf = n as f64;
        t.push_row([
            inst.label.to_string(),
            n.to_string(),
            fmt_f(cover),
            cell.trials.to_string(),
            matthews,
            fmt_f(thit),
            fmt_f(tmix),
            fmt_f(cover / (nf * nf.ln())),
            fmt_f(thit / nf),
        ]);
    }
    print!("{}", opts.render(&t));
    report_errors(&records);
}
