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
//! hypercube) with **no adjacency materialised** — every instance is a
//! resolved `FamilySpec` dispatched to its concrete topology type by
//! `with_resolved_topology!` (fully monomorphised hot loops), which lets
//! the `k < n` sweeps scale to sizes CSR storage would not fit. The milestone section's `t_mix` reference is an exact Markov
//! quantity that needs the transition operator, so in implicit mode it is
//! only computed while the explicit instance stays affordable
//! ([`TMIX_EXPLICIT_LIMIT`]) and reported as NaN beyond.

use dispersion_bench::{usage_error, Options};
use dispersion_core::engine::observer::PhaseTimes;
use dispersion_core::engine::{EngineConfig, FirstVacant};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::Topology;
use dispersion_markov::mixing::mixing_time;
use dispersion_markov::transition::WalkKind;
use dispersion_sim::parallel::par_trials;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::spec::{BackendSpec, FamilySpec, ResolvedCell, ResolvedTopo};
use dispersion_sim::stats::Summary;
use dispersion_sim::table::{fmt_f, TextTable};
use dispersion_sim::with_resolved_topology;

/// Largest `n` for which implicit mode still builds the explicit
/// hypercube to measure the `t_mix` reference column; beyond this the
/// column is NaN instead of silently materialising what the user asked
/// to avoid.
const TMIX_EXPLICIT_LIMIT: usize = 1 << 16;

/// The instance of `family` at `size` on the selected backend, built from
/// `graph_seed` (only the explicit backend consumes it). A size the family
/// cannot be built at is a usage error.
fn resolve(family: Family, size: usize, backend: BackendSpec, graph_seed: u64) -> ResolvedCell {
    FamilySpec {
        backend,
        ..FamilySpec::explicit(family, size)
    }
    .graph_seed(graph_seed)
    .resolve()
    .unwrap_or_else(|e| usage_error(&format!("--sizes {size}: {e}")))
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
        let samples = par_trials(
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
    let single = par_trials(
        opts.trials,
        opts.threads,
        opts.seed + 200 + fk as u64,
        |_, rng| {
            Process::Sequential
                .try_dispersion_time(t, origin, cfg, rng)
                .unwrap()
        },
    );
    let spread = par_trials(
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
    let backend = opts.backend_or_explicit();
    let topology = backend.label();

    // ---- particle count sweep ----
    // (it runs before its heading prints, so a size the first `resolve`
    // rejects leaves stdout empty)
    let mut t = TextTable::new(["family", "k/n", "E[τ_par(k)]"]);
    for (fk, family) in [Family::Complete, Family::Torus2d].into_iter().enumerate() {
        let cell = resolve(family, n, backend, trial_seed(opts.seed, fk as u64));
        with_resolved_topology!(&cell.topo, tp => {
            k_sweep_rows(tp, cell.label, cell.origin, &opts, fk, &cfg, &mut t);
        });
    }
    println!(
        "## k-particle Parallel-IDLA (is k = n the slowest?), clique + torus, n = {n}, \
         topology = {topology}"
    );
    print!("{}", opts.render(&t));
    println!("(the paper conjectures the dispersion time is maximal at k = n)\n");

    // ---- random origins ----
    println!("## random origins vs single origin (sequential), n = {n}, topology = {topology}");
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
        let cell = resolve(
            family,
            size,
            backend,
            trial_seed(opts.seed, 0x100 + fk as u64),
        );
        with_resolved_topology!(&cell.topo, tp => {
            origins_row(tp, cell.label, cell.origin, &opts, fk, &cfg, &mut t2);
        });
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
    let cell = resolve(Family::Hypercube, n, backend, trial_seed(opts.seed, 0x200));
    let runs = with_resolved_topology!(&cell.topo, tp => {
        par_trials(opts.trials.min(50), opts.threads, opts.seed + 1000, |_, rng| {
            let mut phases = PhaseTimes::for_particles(tp.n());
            Process::Parallel
                .run_observed(tp, cell.origin, &cfg, &mut phases, rng)
                .unwrap();
            phases.phases
        })
    });
    let tmix = match &cell.topo {
        ResolvedTopo::Explicit(g) => tmix_of(g),
        ResolvedTopo::Implicit(_) if n <= TMIX_EXPLICIT_LIMIT => {
            let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x200));
            tmix_of(&Family::Hypercube.instance(n, &mut grng).graph)
        }
        ResolvedTopo::Implicit(_) => f64::NAN,
    };
    // column means: profile[j] is the mean round at which fewer than 2^j
    // particles remained, summed in trial order (which par_trials fixes)
    let profile: Vec<f64> = (0..runs.first().map_or(0, Vec::len))
        .map(|j| runs.iter().map(|s| s[j] as f64).sum::<f64>() / runs.len() as f64)
        .collect();
    let mut t3 = TextTable::new(["j (≤2^j−1 left)", "mean round", "round/t_mix"]);
    for (j, &mean) in profile.iter().enumerate().rev() {
        t3.push_row([j.to_string(), fmt_f(mean), fmt_f(mean / tmix)]);
    }
    print!("{}", opts.render(&t3));
    println!("(lazy t_mix = {tmix}; the paper: at least n/2 walks settle within O(t_mix))");
}
