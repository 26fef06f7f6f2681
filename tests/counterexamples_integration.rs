//! The paper's counterexamples at integration scale: Prop 2.1
//! (non-concentration), Prop 3.8 (`t_hit ≫ t_seq`), Prop A.1 (no least
//! action).

use dispersion_repro::core::engine::rule::DelayedExcept;
use dispersion_repro::core::engine::EngineConfig;
use dispersion_repro::core::{Process, ProcessConfig};
use dispersion_repro::graphs::generators::{clique_with_hair, tree_with_path};
use dispersion_repro::markov::hitting::max_hitting_time;
use dispersion_repro::markov::transition::WalkKind;
use dispersion_repro::sim::parallel::par_trials;
use dispersion_repro::sim::stats::Summary;

#[test]
fn prop_2_1_clique_with_hair_is_bimodal() {
    let n = 64usize;
    let (g, v, _) = clique_with_hair(n);
    let cfg = ProcessConfig::simple();
    let samples = par_trials(600, 0, 1, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g, v, &cfg, rng)
            .unwrap()
    });
    let s = Summary::from_samples(&samples);
    // slow branch = walks that must re-enter via v: Ω(n²)
    let split = (n * n / 4) as f64;
    let slow = samples.iter().filter(|&&x| x > split).count() as f64 / samples.len() as f64;
    // paper: slow branch probability ≈ 1/e ≈ 0.368 (the hair is missed in
    // round one w.p. (1-1/n)^n)
    assert!((0.15..0.6).contains(&slow), "slow fraction {slow}");
    // no concentration: median ≪ mean
    assert!(
        s.median < 0.6 * s.mean,
        "median {} vs mean {} — distribution should be bimodal",
        s.median,
        s.mean
    );
}

#[test]
fn prop_3_8_path_tip_is_covered_early() {
    // The proof's mechanism: the root is visited Ω(n) times and each visit
    // reaches the path tip w.p. 1/k, so with k = o(√n) the pendant path is
    // completely covered well before the last walk. Hence the vertex with
    // the largest hitting time does not drive the dispersion time.
    let (g, root, tip) = tree_with_path(7, 8); // n = 135, k = 8 < √n
    let n = g.n();
    let cfg = ProcessConfig::simple();
    let late = par_trials(300, 0, 2, |_, rng| {
        let o = Process::Sequential
            .run_observed(&g, root, &cfg, &mut (), rng)
            .unwrap();
        // in Sequential-IDLA the particle index IS the settle order
        let idx = o.settled_at.iter().position(|&v| v == tip).unwrap();
        (idx >= (9 * n) / 10) as u64 as f64
    });
    let late_frac = late.iter().sum::<f64>() / late.len() as f64;
    assert!(
        late_frac < 0.25,
        "path tip settled among the last 10% in {:.0}% of runs — it should be covered early",
        100.0 * late_frac
    );
}

#[test]
fn prop_3_8_hitting_dispersion_gap_grows_with_path_length() {
    // t_hit = Θ(n·k) grows linearly in the pendant-path length k, while
    // t_seq barely moves (Prop 3.8: the asymptotic separation is
    // t_hit = Ω(n^{3/2−ε}) vs t_seq = O(n log² n)). Check the ratio grows.
    let cfg = ProcessConfig::simple();
    let mut ratios = Vec::new();
    for (seed, k) in [(3u64, 2usize), (4, 12)] {
        let (g, root, _) = tree_with_path(7, k);
        let thit = max_hitting_time(&g, WalkKind::Simple);
        let samples = par_trials(250, 0, seed, |_, rng| {
            Process::Sequential
                .try_dispersion_time(&g, root, &cfg, rng)
                .unwrap()
        });
        let s = Summary::from_samples(&samples);
        ratios.push(thit / s.median);
    }
    assert!(
        ratios[1] > 1.5 * ratios[0],
        "t_hit/t_seq ratio should grow with the path: {ratios:?}"
    );
}

#[test]
fn prop_a_1_delayed_rule_beats_first_vacant() {
    let n = 64usize;
    let (g, v, v_star) = clique_with_hair(n);
    let nf = n as f64;
    let rule = DelayedExcept {
        threshold: (3.0 * nf * nf.ln()) as u64,
        special: v_star,
    };
    let cfg = ProcessConfig::simple();
    let standard = par_trials(300, 0, 3, |_, rng| {
        Process::Sequential
            .try_dispersion_time(&g, v, &cfg, rng)
            .unwrap()
    });
    let modified = par_trials(300, 0, 4, |_, rng| {
        let ecfg = EngineConfig::full(&g, v, &cfg);
        Process::Sequential
            .run(&g, &rule, &ecfg, &mut (), rng)
            .unwrap()
            .dispersion_time() as f64
    });
    let sm = Summary::from_samples(&modified);
    let ss = Summary::from_samples(&standard);
    assert!(
        sm.mean < ss.mean,
        "delayed rule mean {} should beat first-vacant mean {}",
        sm.mean,
        ss.mean
    );
    // and the delayed rule kills the quadratic tail
    assert!(sm.max < ss.max, "max {} vs {}", sm.max, ss.max);
}
