//! Small-scale shape checks of Table 1: the orderings and constants the
//! paper reports must already be visible at test sizes.

use dispersion_repro::bounds::constants::{kappa_cc_default, PI2_OVER_6};
use dispersion_repro::core::{Process, ProcessConfig};
use dispersion_repro::graphs::families::Family;
use dispersion_repro::graphs::generators::{complete, cycle, hypercube};
use dispersion_repro::sim::experiment::estimate_dispersion;
use dispersion_repro::sim::Xoshiro256pp;

const SEED: u64 = 0xD15;

#[test]
fn clique_constants_near_kappa_cc_and_pi2_over_6() {
    let n = 192usize;
    let g = complete(n);
    let cfg = ProcessConfig::simple();
    let seq = estimate_dispersion(&g, 0, Process::Sequential, &cfg, 400, 0, SEED);
    let par = estimate_dispersion(&g, 0, Process::Parallel, &cfg, 400, 0, SEED + 1);
    let seq_c = seq.mean / n as f64;
    let par_c = par.mean / n as f64;
    // generous windows: finite-n effects + sampling noise
    assert!(
        (seq_c - kappa_cc_default()).abs() < 0.35,
        "t_seq/n = {seq_c}"
    );
    assert!((par_c - PI2_OVER_6).abs() < 0.4, "t_par/n = {par_c}");
    // the ~30% gap (Remark 5.3) must be visible
    assert!(
        par.mean > 1.1 * seq.mean,
        "par {} vs seq {}",
        par.mean,
        seq.mean
    );
}

#[test]
fn linear_families_scale_linearly() {
    // hypercube and expander rows: t(2n)/t(n) ≈ 2
    let cfg = ProcessConfig::simple();
    let small = estimate_dispersion(&hypercube(5), 0, Process::Parallel, &cfg, 200, 0, SEED + 2);
    let big = estimate_dispersion(&hypercube(6), 0, Process::Parallel, &cfg, 200, 0, SEED + 3);
    let ratio = big.mean / small.mean;
    assert!(
        (1.5..3.0).contains(&ratio),
        "hypercube doubling ratio {ratio}"
    );
}

#[test]
fn cycle_scales_superquadratically() {
    // cycle row: t(2n)/t(n) ≈ 4·(log 2n / log n) > 4
    let cfg = ProcessConfig::simple();
    let small = estimate_dispersion(&cycle(24), 0, Process::Sequential, &cfg, 200, 0, SEED + 4);
    let big = estimate_dispersion(&cycle(48), 0, Process::Sequential, &cfg, 200, 0, SEED + 5);
    let ratio = big.mean / small.mean;
    assert!(ratio > 3.2, "cycle doubling ratio {ratio}");
}

#[test]
fn who_wins_ordering_at_fixed_n() {
    // at n = 64: clique/expander ≪ binary tree ≪ cycle
    let cfg = ProcessConfig::simple();
    let mut grng = Xoshiro256pp::new(SEED);
    let clique = Family::Complete.instance(64, &mut grng);
    let btree = Family::BinaryTree.instance(63, &mut grng);
    let cyc = Family::Cycle.instance(64, &mut grng);
    let t_clique = estimate_dispersion(
        &clique.graph,
        clique.origin,
        Process::Parallel,
        &cfg,
        150,
        0,
        SEED + 6,
    );
    let t_btree = estimate_dispersion(
        &btree.graph,
        btree.origin,
        Process::Parallel,
        &cfg,
        150,
        0,
        SEED + 7,
    );
    let t_cycle = estimate_dispersion(
        &cyc.graph,
        cyc.origin,
        Process::Parallel,
        &cfg,
        150,
        0,
        SEED + 8,
    );
    assert!(
        t_clique.mean < t_btree.mean && t_btree.mean < t_cycle.mean,
        "ordering violated: clique {} tree {} cycle {}",
        t_clique.mean,
        t_btree.mean,
        t_cycle.mean
    );
}

#[test]
fn lazy_factor_two() {
    // Theorem 4.3 on the clique at n = 128
    let g = complete(128);
    let seq_s = estimate_dispersion(
        &g,
        0,
        Process::Sequential,
        &ProcessConfig::simple(),
        300,
        0,
        SEED + 9,
    );
    let seq_l = estimate_dispersion(
        &g,
        0,
        Process::Sequential,
        &ProcessConfig::lazy(),
        300,
        0,
        SEED + 10,
    );
    let ratio = seq_l.mean / seq_s.mean;
    assert!((1.6..2.4).contains(&ratio), "lazy/simple = {ratio}");
}

#[test]
fn ctu_matches_parallel() {
    // Theorem 4.8 on the clique at n = 128
    let g = complete(128);
    let cfg = ProcessConfig::simple();
    let ctu = estimate_dispersion(&g, 0, Process::Ctu, &cfg, 300, 0, SEED + 11);
    let par = estimate_dispersion(&g, 0, Process::Parallel, &cfg, 300, 0, SEED + 12);
    let ratio = ctu.mean / par.mean;
    assert!((0.8..1.25).contains(&ratio), "ctu/par = {ratio}");
}

#[test]
fn path_and_cycle_agree() {
    // Theorem 5.4 / Theorem 5.9: path and cycle are both κ·n² log n with
    // path ≈ cycle up to a constant ≈ 2-4 at equal n (path has reflective
    // ends); just check same order of magnitude.
    let cfg = ProcessConfig::simple();
    let p = estimate_dispersion(
        &dispersion_repro::graphs::generators::path(32),
        0,
        Process::Sequential,
        &cfg,
        150,
        0,
        SEED + 13,
    );
    let c = estimate_dispersion(&cycle(32), 0, Process::Sequential, &cfg, 150, 0, SEED + 14);
    let ratio = p.mean / c.mean;
    assert!((0.5..8.0).contains(&ratio), "path/cycle = {ratio}");
}
