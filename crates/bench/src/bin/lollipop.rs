//! E17: Prop 5.16 — the lollipop graph (clique + path) started from a
//! clique vertex has dispersion time `Ω(n³ log n)` w.h.p., matching the
//! `O(n³ log n)` worst-case envelope of Corollary 3.2.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin lollipop -- [--sizes 24,32,48] [--trials 50]
//! ```

use dispersion_bench::Options;
use dispersion_bounds::upper::cor32_general;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::generators::lollipop;
use dispersion_sim::fit::fit_power;
use dispersion_sim::parallel::par_samples;
use dispersion_sim::stats::Summary;
use dispersion_sim::table::{fmt_f, TextTable};

fn main() {
    let opts = Options::from_env();
    let sizes = opts.sizes_or(&[16, 24, 32, 48]);
    let cfg = ProcessConfig::simple();

    println!("# Prop 5.16: lollipop dispersion (expected Θ(n³ log n) from a clique vertex)\n");
    let mut t = TextTable::new(["n", "E[τ_seq]", "±95%", "τ/(n³ ln n)", "Cor3.2 envelope"]);
    let mut ns = Vec::new();
    let mut means = Vec::new();
    for (k, &n) in sizes.iter().enumerate() {
        let (g, origin, _, _) = lollipop(n);
        let samples = par_samples(opts.trials, opts.threads, opts.seed + k as u64, |_, rng| {
            Process::Sequential
                .try_dispersion_time(&g, origin, &cfg, rng)
                .unwrap()
        });
        let s = Summary::from_samples(&samples);
        let nf = n as f64;
        t.push_row([
            n.to_string(),
            fmt_f(s.mean),
            fmt_f(1.96 * s.sem),
            fmt_f(s.mean / (nf.powi(3) * nf.ln())),
            fmt_f(cor32_general(n)),
        ]);
        ns.push(nf);
        means.push(s.mean);
    }
    print!("{}", opts.render(&t));
    if ns.len() >= 2 {
        let fit = fit_power(&ns, &means);
        println!(
            "\nfit: τ_seq ~ n^{:.2} (R² = {:.3}); paper predicts exponent ≈ 3 (+ log factor)",
            fit.exponent, fit.r2
        );
    }
}
