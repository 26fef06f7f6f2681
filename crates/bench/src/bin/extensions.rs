//! E20 (Section 6.2 extensions): the paper's suggested variants —
//! * dispersion with `k < n` particles (is `k = n` the worst case?),
//! * random per-particle origins,
//! * the Theorem 3.3 milestone profile `τ_par(G, j)` (rounds until fewer
//!   than `2^j − 1` vertices remain), checking that half the walks settle
//!   within `O(t_mix)`.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin extensions -- [--trials 200]
//!     [--topology explicit|implicit]
//! ```
//!
//! All three sections are generic over the graph backend; with
//! `--topology implicit` the simulated sweeps run on the closed-form
//! `dispersion_graphs::topology` families (clique, torus, cycle,
//! hypercube) with **no adjacency materialised** — implicit runs are
//! dispatched to the concrete topology types (fully monomorphised hot
//! loops), which lets the `k < n` sweeps scale to sizes CSR storage would
//! not fit. The milestone section's `t_mix` reference is an exact Markov
//! quantity that needs the transition operator, so in implicit mode it is
//! only computed while the explicit instance stays affordable
//! ([`TMIX_EXPLICIT_LIMIT`]) and reported as NaN beyond.

use dispersion_bench::{Backend, Options};
use dispersion_core::engine::{EngineConfig, FirstVacant};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::topology::Implicit;
use dispersion_graphs::Topology;
use dispersion_markov::mixing::mixing_time;
use dispersion_markov::transition::WalkKind;
use dispersion_sim::experiment::{mean_phase_profile, phase_time_samples};
use dispersion_sim::parallel::par_samples;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::stats::Summary;
use dispersion_sim::table::{fmt_f, TextTable};

/// Largest `n` for which implicit mode still builds the explicit
/// hypercube to measure the `t_mix` reference column; beyond this the
/// column is NaN instead of silently materialising what the user asked
/// to avoid.
const TMIX_EXPLICIT_LIMIT: usize = 1 << 16;

/// Statically dispatches an [`Implicit`] value to its concrete topology
/// type, so implicit hot loops monomorphise like the explicit ones.
macro_rules! with_concrete {
    ($imp:expr, $t:ident => $e:expr) => {
        match $imp {
            Implicit::Path($t) => $e,
            Implicit::Cycle($t) => $e,
            Implicit::Torus2d($t) => $e,
            Implicit::Hypercube($t) => $e,
            Implicit::Complete($t) => $e,
        }
    };
}

/// The `E[τ_par(k)]` rows of the particle-count sweep on one backend.
fn k_sweep_rows<T: Topology + Sync + ?Sized>(
    t: &T,
    label: &str,
    origin: u32,
    opts: &Options,
    fk: usize,
    cfg: &ProcessConfig,
    table: &mut TextTable,
) {
    let nn = t.n();
    for (ki, frac) in [0.25f64, 0.5, 0.75, 1.0].into_iter().enumerate() {
        let k = ((nn as f64 * frac) as usize).max(1);
        let samples = par_samples(
            opts.trials,
            opts.threads,
            opts.seed + (100 * fk + ki) as u64,
            |_, rng| {
                let ecfg = EngineConfig::with_particles(k, origin, cfg);
                let out = Process::Parallel.run(t, &FirstVacant, &ecfg, &mut (), rng);
                out.unwrap().dispersion_time() as f64
            },
        );
        let s = Summary::from_samples(&samples);
        table.push_row([label.to_string(), format!("{frac:.2}"), fmt_f(s.mean)]);
    }
}

/// One single-origin vs random-origins comparison row on one backend.
fn origins_row<T: Topology + Sync + ?Sized>(
    t: &T,
    label: &str,
    origin: u32,
    opts: &Options,
    fk: usize,
    cfg: &ProcessConfig,
    table: &mut TextTable,
) {
    let nn = t.n();
    let single = par_samples(
        opts.trials,
        opts.threads,
        opts.seed + 200 + fk as u64,
        |_, rng| {
            Process::Sequential
                .try_dispersion_time(t, origin, cfg, rng)
                .unwrap()
        },
    );
    let spread = par_samples(
        opts.trials,
        opts.threads,
        opts.seed + 300 + fk as u64,
        |_, rng| {
            let ecfg = EngineConfig::random_origins(nn, cfg);
            let out = Process::Sequential.run(t, &FirstVacant, &ecfg, &mut (), rng);
            out.unwrap().dispersion_time() as f64
        },
    );
    let ss = Summary::from_samples(&single);
    let sp = Summary::from_samples(&spread);
    table.push_row([
        label.to_string(),
        fmt_f(ss.mean),
        fmt_f(sp.mean),
        fmt_f(ss.mean / sp.mean),
    ]);
}

fn main() {
    let opts = Options::from_env();
    let n = opts.sizes_or(&[256])[0];
    let cfg = ProcessConfig::simple();
    let implicit = opts.backend_or_explicit() == Backend::Implicit;
    let backend = opts.backend_or_explicit().label();

    // ---- particle count sweep ----
    println!(
        "## k-particle Parallel-IDLA (is k = n the slowest?), clique + torus, n = {n}, \
         topology = {backend}"
    );
    let mut t = TextTable::new(["family", "k/n", "E[τ_par(k)]"]);
    for (fk, family) in [Family::Complete, Family::Torus2d].into_iter().enumerate() {
        if implicit {
            let imp = family.implicit(n).expect("family has an implicit form");
            with_concrete!(imp, tp => k_sweep_rows(&tp, family.label(), 0, &opts, fk, &cfg, &mut t));
        } else {
            let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, fk as u64));
            let inst = family.instance(n, &mut grng);
            k_sweep_rows(
                &inst.graph,
                inst.label,
                inst.origin,
                &opts,
                fk,
                &cfg,
                &mut t,
            );
        }
    }
    print!("{}", opts.render(&t));
    println!("(the paper conjectures the dispersion time is maximal at k = n)\n");

    // ---- random origins ----
    println!("## random origins vs single origin (sequential), n = {n}, topology = {backend}");
    let mut t2 = TextTable::new(["family", "single origin", "random origins", "speedup"]);
    for (fk, family) in [Family::Complete, Family::Cycle, Family::Hypercube]
        .into_iter()
        .enumerate()
    {
        let size = if matches!(family, Family::Cycle) {
            n.min(128)
        } else {
            n
        };
        if implicit {
            let imp = family.implicit(size).expect("family has an implicit form");
            with_concrete!(imp, tp => origins_row(&tp, family.label(), 0, &opts, fk, &cfg, &mut t2));
        } else {
            let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x100 + fk as u64));
            let inst = family.instance(size, &mut grng);
            origins_row(
                &inst.graph,
                inst.label,
                inst.origin,
                &opts,
                fk,
                &cfg,
                &mut t2,
            );
        }
    }
    print!("{}", opts.render(&t2));
    println!();

    // ---- milestones ----
    println!(
        "## Theorem 3.3 milestone profile on the hypercube (rounds until < 2^j - 1 unsettled)"
    );
    // t_mix needs the explicit transition operator. In implicit mode the
    // instance is built only below TMIX_EXPLICIT_LIMIT (and dropped right
    // after); past the limit the column is NaN — implicit runs must never
    // materialise an adjacency behind the user's back.
    let tmix_of = |g: &dispersion_graphs::Graph| {
        mixing_time(g, WalkKind::Lazy, 0.25, 1 << 20)
            .map(|t| t as f64)
            .unwrap_or(f64::NAN)
    };
    // milestones stream out of the engine's PhaseTimes observer: no
    // per-run state beyond the profile itself
    let sample_trials = opts.trials.min(50);
    let (runs, tmix) = if implicit {
        let imp = Family::Hypercube
            .implicit(n)
            .expect("hypercube is implicit");
        let tmix = if n <= TMIX_EXPLICIT_LIMIT {
            let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x200));
            tmix_of(&Family::Hypercube.instance(n, &mut grng).graph)
        } else {
            f64::NAN
        };
        let runs = with_concrete!(imp, tp => phase_time_samples(
            &tp,
            0,
            &cfg,
            sample_trials,
            opts.threads,
            opts.seed + 1000,
        ));
        (runs, tmix)
    } else {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x200));
        let inst = Family::Hypercube.instance(n, &mut grng);
        let runs = phase_time_samples(
            &inst.graph,
            inst.origin,
            &cfg,
            sample_trials,
            opts.threads,
            opts.seed + 1000,
        );
        (runs, tmix_of(&inst.graph))
    };
    let profile = mean_phase_profile(&runs);
    let mut t3 = TextTable::new(["j (≤2^j−1 left)", "mean round", "round/t_mix"]);
    for (j, &mean) in profile.iter().enumerate().rev() {
        t3.push_row([j.to_string(), fmt_f(mean), fmt_f(mean / tmix)]);
    }
    print!("{}", opts.render(&t3));
    println!("(lazy t_mix = {tmix}; the paper: at least n/2 walks settle within O(t_mix))");
}
