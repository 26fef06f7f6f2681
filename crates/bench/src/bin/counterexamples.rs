//! E15/E16/E18: the paper's counterexamples —
//! * Prop 2.1: non-concentration on the clique-with-a-hair (`G₁`) and heavy
//!   upper tail on the clique-with-a-hair-on-a-pimple (`G₂`),
//! * Prop 3.8: `t_seq ≪ t_hit` on the binary tree with a pendant path,
//! * Prop A.1: the modified stopping rule beats first-vacant on `G₁`
//!   (no least-action principle).
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin counterexamples -- [--trials 400]
//! ```

use dispersion_bench::Options;
use dispersion_core::engine::rule::DelayedExcept;
use dispersion_core::engine::EngineConfig;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::{clique_with_hair, clique_with_hair_on_pimple, tree_with_path};
use dispersion_markov::hitting::max_hitting_time;
use dispersion_markov::transition::WalkKind;
use dispersion_sim::histogram::Histogram;
use dispersion_sim::parallel::par_trials;
use dispersion_sim::stats::{quantile, Summary};
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env();
    let cfg = ProcessConfig::simple();

    // ---- Prop 2.1, G1: clique with a hair — bimodal dispersion ----
    let n = opts.sizes_or(&[128])[0];
    if n < 4 {
        // the hair-on-a-pimple gadget needs a clique of at least 2
        eprintln!("counterexamples: --sizes needs n >= 4, got {n}");
        std::process::exit(2);
    }
    let (g1, v, _v_star) = clique_with_hair(n);
    let samples = par_trials(opts.trials, opts.threads, opts.seed, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g1, v, &cfg, rng)
            .unwrap()
    });
    let s = Summary::from_samples(&samples);
    // "fast" runs are O(n); "slow" runs are Ω(n²) — split at n^{1.5}
    let split = (n as f64).powf(1.5);
    let slow_frac = samples.iter().filter(|&&x| x > split).count() as f64 / samples.len() as f64;
    println!("## Prop 2.1 (G₁ = clique with a hair), n = {n}, origin = v");
    let mut t = TextTable::new(["mean", "median", "q90", "max", "Pr[slow Ω(n²) branch]"]);
    t.push_row([
        fmt_f(s.mean),
        fmt_f(s.median),
        fmt_f(quantile(&samples, 0.9)),
        fmt_f(s.max),
        fmt_f(slow_frac),
    ]);
    print!("{}", opts.render(&t));
    println!(
        "(paper: slow branch has probability ≈ 1/e ≈ 0.368; median ≪ mean ⇒ no concentration)"
    );
    // log-scale histogram makes the two branches visible
    let logs: Vec<f64> = samples.iter().map(|x| x.max(1.0).ln()).collect();
    let h = Histogram::from_samples(&logs, 14);
    println!("log(τ) histogram ({} modes detected):", h.modes(0.04));
    print!("{}", h.render(40));
    println!();

    // ---- Prop 2.1, G2: hair on a pimple — heavy tail ----
    let pimple = ((n as f64) / (n as f64).ln()).round() as usize;
    let (g2, v2, _) = clique_with_hair_on_pimple(n, pimple.clamp(1, n - 2));
    let samples2 = par_trials(opts.trials, opts.threads, opts.seed + 1, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g2, v2, &cfg, rng)
            .unwrap()
    });
    let s2 = Summary::from_samples(&samples2);
    let slow2 = samples2.iter().filter(|&&x| x > split).count() as f64 / samples2.len() as f64;
    println!("## Prop 2.1 (G₂ = hair on a pimple, pimple = {pimple}), n = {n}");
    let mut t2 = TextTable::new(["mean", "median", "max", "Pr[≥ n^1.5]"]);
    t2.push_row([
        fmt_f(s2.mean),
        fmt_f(s2.median),
        fmt_f(s2.max),
        fmt_f(slow2),
    ]);
    print!("{}", opts.render(&t2));
    println!("(paper: E ≈ Θ(n) but Pr[Ω(n²)] = Ω(1/n) — rare catastrophic runs)\n");

    // ---- Prop 3.8: tree with path — t_hit >> t_seq ----
    let levels = 9usize; // 511-vertex binary tree
    let eps = 0.25;
    let tree_n = (1usize << levels) - 1;
    let path_len = ((tree_n as f64).powf(0.5 - eps)).round().max(2.0) as usize;
    let (g3, root, _tip) = tree_with_path(levels, path_len);
    let thit = max_hitting_time(&g3, WalkKind::Simple);
    let samples3 = par_trials(opts.trials, opts.threads, opts.seed + 2, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g3, root, &cfg, rng)
            .unwrap()
    });
    let s3 = Summary::from_samples(&samples3);
    println!(
        "## Prop 3.8 (binary tree {tree_n} + path {path_len}), n = {}",
        g3.n()
    );
    let mut t3 = TextTable::new(["t_hit (exact)", "E[τ_seq]", "t_hit / t_seq"]);
    t3.push_row([fmt_f(thit), fmt_f(s3.mean), fmt_f(thit / s3.mean)]);
    print!("{}", opts.render(&t3));
    println!("(paper: t_hit = Ω(n^{{3/2−ε}}) while t_seq = O(n log² n): the ratio grows with n)\n");

    // ---- Prop A.1: modified stopping rule ----
    let nf = n as f64;
    let (g4, v4, v_star4) = clique_with_hair(n);
    let rule = DelayedExcept {
        threshold: (3.0 * nf * nf.ln()) as u64,
        special: v_star4,
    };
    let std_samples = par_trials(opts.trials, opts.threads, opts.seed + 3, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g4, v4, &cfg, rng)
            .unwrap()
    });
    let mod_samples = par_trials(opts.trials, opts.threads, opts.seed + 4, |_, rng| {
        let ecfg = EngineConfig::full(&g4, v4, &cfg);
        Process::Sequential
            .run(&g4, &rule, &ecfg, &mut (), rng)
            .unwrap()
            .dispersion_time() as f64
    });
    let ss = Summary::from_samples(&std_samples);
    let sm = Summary::from_samples(&mod_samples);
    println!("## Prop A.1 (no least-action principle), G₁, n = {n}");
    let mut t4 = TextTable::new(["rule", "mean", "median", "max"]);
    t4.push_row([
        "first-vacant".to_string(),
        fmt_f(ss.mean),
        fmt_f(ss.median),
        fmt_f(ss.max),
    ]);
    t4.push_row([
        "ρ̃ (delayed)".to_string(),
        fmt_f(sm.mean),
        fmt_f(sm.median),
        fmt_f(sm.max),
    ]);
    print!("{}", opts.render(&t4));
    println!("(paper: the delayed rule is O(n log n) while first-vacant is Ω(n²) w.p. Ω(1))");
}
