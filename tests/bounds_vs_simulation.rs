//! Every Section 3 bound checked against simulated dispersion times.

use dispersion_repro::bounds::lower::{
    prop39_mixing_lower, thm36_edges_over_maxdeg, thm37_tree_lower,
};
use dispersion_repro::bounds::upper::{
    cor32_general, cor32_regular, thm31_whp_threshold, thm33_spectral, thm35_spectral,
};
use dispersion_repro::core::{Process, ProcessConfig};
use dispersion_repro::graphs::families::{Family, Instance};
use dispersion_repro::graphs::traversal::is_tree;
use dispersion_repro::markov::transition::WalkKind;
use dispersion_repro::sim::{default_threads, par_trials, Xoshiro256pp};

const TRIALS: usize = 150;

/// `trials` dispersion times of `p` on `inst` from its origin.
fn times(inst: &Instance, p: Process, cfg: &ProcessConfig, trials: usize, seed: u64) -> Vec<f64> {
    par_trials(trials, default_threads(), seed, |_, rng| {
        p.try_dispersion_time(&inst.graph, inst.origin, cfg, rng)
            .unwrap()
    })
}

fn families() -> Vec<Family> {
    vec![
        Family::Complete,
        Family::Cycle,
        Family::Hypercube,
        Family::BinaryTree,
        Family::Star,
    ]
}

#[test]
fn theorem_3_1_upper_bound_rarely_exceeded() {
    let cfg = ProcessConfig::simple();
    for (k, family) in families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(k as u64);
        let inst = family.instance(32, &mut grng);
        let threshold = thm31_whp_threshold(&inst.graph, WalkKind::Simple);
        let par = times(&inst, Process::Parallel, &cfg, TRIALS, 70 + k as u64);
        let exceed = par.iter().filter(|&&x| x > threshold).count();
        // Pr <= 1/n² = ~0.1%; allow sampling slack
        assert!(
            exceed <= 2,
            "{}: {exceed}/{TRIALS} runs above the Thm 3.1 threshold",
            inst.label
        );
    }
}

#[test]
fn theorems_3_3_and_3_5_dominate_lazy_dispersion() {
    let lazy = ProcessConfig::lazy();
    for (k, family) in families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(10 + k as u64);
        let inst = family.instance(32, &mut grng);
        let par = times(&inst, Process::Parallel, &lazy, TRIALS, 90 + k as u64);
        let seq = times(&inst, Process::Sequential, &lazy, TRIALS, 95 + k as u64);
        let max_par = par.iter().copied().fold(0.0f64, f64::max);
        let max_seq = seq.iter().copied().fold(0.0f64, f64::max);
        let b33 = thm33_spectral(&inst.graph);
        let b35 = thm35_spectral(&inst.graph);
        assert!(
            b33 >= max_par,
            "{}: Thm 3.3 bound {b33} < observed {max_par}",
            inst.label
        );
        assert!(
            b35 >= max_seq,
            "{}: Thm 3.5 bound {b35} < observed {max_seq}",
            inst.label
        );
    }
}

#[test]
fn corollary_3_2_worst_case_envelopes() {
    let cfg = ProcessConfig::simple();
    for (k, family) in families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(20 + k as u64);
        let inst = family.instance(32, &mut grng);
        let n = inst.graph.n();
        let par = times(&inst, Process::Parallel, &cfg, TRIALS, 120 + k as u64);
        let max_par = par.iter().copied().fold(0.0f64, f64::max);
        assert!(max_par <= cor32_general(n), "{}", inst.label);
        if inst.graph.is_regular() {
            assert!(max_par <= cor32_regular(n), "{}", inst.label);
        }
    }
}

#[test]
fn theorem_3_6_lower_bound() {
    let cfg = ProcessConfig::simple();
    for (k, family) in families().into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(30 + k as u64);
        let inst = family.instance(48, &mut grng);
        let seq = times(&inst, Process::Sequential, &cfg, TRIALS, 150 + k as u64);
        let mean = seq.iter().sum::<f64>() / seq.len() as f64;
        let lb = thm36_edges_over_maxdeg(&inst.graph);
        // Ω(|E|/Δ): comfortably satisfied with constant 1/2 at these sizes
        assert!(
            mean >= 0.5 * lb,
            "{}: E[τ_seq] = {mean} vs |E|/Δ = {lb}",
            inst.label
        );
    }
}

#[test]
fn theorem_3_7_tree_lower_bound() {
    let cfg = ProcessConfig::simple();
    for (k, family) in [Family::Star, Family::BinaryTree].into_iter().enumerate() {
        let mut grng = Xoshiro256pp::new(40 + k as u64);
        let inst = family.instance(31, &mut grng);
        assert!(is_tree(&inst.graph));
        let seq = times(&inst, Process::Sequential, &cfg, 300, 170 + k as u64);
        let mean = seq.iter().sum::<f64>() / seq.len() as f64;
        let lb = thm37_tree_lower(&inst.graph);
        assert!(
            mean >= 0.9 * lb,
            "{}: E[τ_seq] = {mean} below tree bound {lb}",
            inst.label
        );
    }
}

#[test]
fn proposition_3_9_mixing_lower_bound() {
    let lazy = ProcessConfig::lazy();
    // the cycle is the natural witness: t_mix = Θ(n²) and t_seq = Θ(n² log n)
    let mut grng = Xoshiro256pp::new(50);
    let inst = Family::Cycle.instance(32, &mut grng);
    let seq = times(&inst, Process::Sequential, &lazy, TRIALS, 190);
    let mean = seq.iter().sum::<f64>() / seq.len() as f64;
    let tmix = prop39_mixing_lower(&inst.graph);
    assert!(mean >= tmix, "E[τ_seq,lazy] = {mean} below t_mix = {tmix}");
}
