//! E13/E14/E19: the general bounds of Section 3 against measured dispersion
//! times —
//! * Theorem 3.1: `Pr[τ_par > 6·t_hit·log₂ n] ≤ n⁻²` and
//!   `t_par = O(t_hit log n)`,
//! * Theorems 3.3/3.5: refined set-hitting upper bounds,
//! * Theorem 3.6: `t_seq = Ω(|E|/Δ)`; Theorem 3.7: trees `≥ 2n−3`,
//! * Proposition 3.9: `t_seq = Ω(t_mix)` (lazy).
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin bound_checks -- [--trials 200]
//! ```

use dispersion_bench::Options;
use dispersion_bounds::lower::{prop39_mixing_lower, thm36_edges_over_maxdeg, thm37_tree_lower};
use dispersion_bounds::upper::{thm31_whp_threshold, thm33_spectral, thm35_spectral};
use dispersion_core::engine::observer::PhaseTimes;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::traversal::is_tree;
use dispersion_graphs::{Graph, Vertex};
use dispersion_markov::transition::WalkKind;
use dispersion_sim::parallel::par_trials;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env();
    let n = opts.sizes_or(&[128])[0];
    let families = [
        Family::Complete,
        Family::Cycle,
        Family::Hypercube,
        Family::BinaryTree,
        Family::Star,
        Family::Torus2d,
    ];

    println!(
        "# Section 3 bound checks (n ≈ {n}, trials = {})\n",
        opts.trials
    );
    println!("## Upper bounds (simple walks for Thm 3.1; lazy for Thm 3.3/3.5)");
    let mut up = TextTable::new([
        "family",
        "E[τ_par]",
        "thm3.1 whp",
        "exceed%",
        "max τ_par",
        "t_half(lazy)",
        "thm3.3(lazy)",
        "thm3.5(lazy)",
    ]);
    let cfg = ProcessConfig::simple();
    let lazy = ProcessConfig::lazy();
    // per-trial dispersion times of one process
    let times = |g: &Graph, origin: Vertex, p: Process, cfg: &ProcessConfig, seed: u64| {
        par_trials(opts.trials, opts.threads, seed, |_, rng| {
            p.try_dispersion_time(g, origin, cfg, rng).unwrap()
        })
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    for (k, family) in families.iter().enumerate() {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, k as u64));
        let inst = family.instance(n, &mut grng);
        let g = &inst.graph;
        let s0 = opts.seed + 31 * k as u64;
        let par = times(g, inst.origin, Process::Parallel, &cfg, s0);
        // the lazy runs stream Thm 3.3 phase profiles out of the engine:
        // phases[0] is the dispersion time, the half-milestone the round at
        // which at most n/2 particles remained
        let lazy_profiles = par_trials(opts.trials, opts.threads, s0 + 1, |_, rng| {
            let mut phases = PhaseTimes::for_particles(g.n());
            Process::Parallel
                .run_observed(g, inst.origin, &lazy, &mut phases, rng)
                .unwrap();
            phases.phases
        });
        let threshold = thm31_whp_threshold(g, WalkKind::Simple);
        let exceed = par.iter().filter(|&&x| x > threshold).count() as f64 / par.len() as f64;
        let maxv = lazy_profiles
            .iter()
            .map(|p| p[0] as f64)
            .fold(0.0f64, f64::max);
        let j_half = PhaseTimes::half_index(g.n());
        let half = lazy_profiles.iter().map(|p| p[j_half] as f64).sum::<f64>()
            / lazy_profiles.len() as f64;
        up.push_row([
            inst.label.to_string(),
            fmt_f(mean(&par)),
            fmt_f(threshold),
            fmt_f(100.0 * exceed),
            fmt_f(maxv),
            fmt_f(half),
            fmt_f(thm33_spectral(g)),
            fmt_f(thm35_spectral(g)),
        ]);
    }
    print!("{}", opts.render(&up));
    println!(
        "\n(exceed% should be ~0; thm3.3/3.5 columns must dominate 'max τ_par' of the lazy runs)"
    );

    println!("\n## Lower bounds (Thm 3.6 / Thm 3.7 / Prop 3.9)");
    let mut lo = TextTable::new([
        "family",
        "E[τ_seq]",
        "|E|/Δ",
        "tree 2n-3",
        "t_mix(lazy)",
        "E[τ_seq,lazy]",
    ]);
    for (k, family) in families.iter().enumerate() {
        let mut grng = Xoshiro256pp::new(trial_seed(opts.seed, 0x100 + k as u64));
        let inst = family.instance(n, &mut grng);
        let g = &inst.graph;
        let s0 = opts.seed + 77 * k as u64;
        let seq = times(g, inst.origin, Process::Sequential, &cfg, s0);
        let seq_lazy = times(g, inst.origin, Process::Sequential, &lazy, s0 + 1);
        let tree_bound = if is_tree(g) {
            fmt_f(thm37_tree_lower(g))
        } else {
            "-".into()
        };
        lo.push_row([
            inst.label.to_string(),
            fmt_f(mean(&seq)),
            fmt_f(thm36_edges_over_maxdeg(g)),
            tree_bound,
            fmt_f(prop39_mixing_lower(g)),
            fmt_f(mean(&seq_lazy)),
        ]);
    }
    print!("{}", opts.render(&lo));
    println!("\n(E[τ_seq] must dominate |E|/Δ up to a constant; trees must exceed 2n−3;");
    println!(" E[τ_seq,lazy] must dominate t_mix up to a constant — Prop 3.9)");
}
