//! Small-scale shape checks of Table 1: the orderings and constants the
//! paper reports must already be visible at test sizes.

use dispersion_repro::bounds::constants::{kappa_cc_default, PI2_OVER_6};
use dispersion_repro::core::{Process, ProcessConfig};
use dispersion_repro::graphs::families::Family;
use dispersion_repro::sim::sink::MemorySink;
use dispersion_repro::sim::{
    default_threads, Budget, CellSpec, ExperimentSpec, FamilySpec, Measure, Runner,
};

const SEED: u64 = 0xD15;

/// Mean dispersion time of each `(family, size, process, config, trials,
/// master seed)` cell, run as one spec.
fn means(cells: &[(Family, usize, Process, ProcessConfig, usize, u64)]) -> Vec<f64> {
    let mut spec = ExperimentSpec::new(SEED);
    for &(family, n, p, cfg, trials, seed) in cells {
        spec.push(
            CellSpec::new(FamilySpec::explicit(family, n), Measure::Dispersion(p))
                .budget(Budget::Trials(trials))
                .config(cfg)
                .master_seed(seed),
        );
    }
    let records = Runner::new(default_threads()).run(&spec, &[], &mut MemorySink::default());
    records
        .iter()
        .map(|r| {
            assert!(r.error.is_none(), "{}: {:?}", r.key, r.error);
            r.mean("time")
        })
        .collect()
}

#[test]
fn clique_constants_near_kappa_cc_and_pi2_over_6() {
    let n = 192usize;
    let cfg = ProcessConfig::simple();
    let m = means(&[
        (Family::Complete, n, Process::Sequential, cfg, 400, SEED),
        (Family::Complete, n, Process::Parallel, cfg, 400, SEED + 1),
    ]);
    let (seq, par) = (m[0], m[1]);
    let seq_c = seq / n as f64;
    let par_c = par / n as f64;
    // generous windows: finite-n effects + sampling noise
    assert!(
        (seq_c - kappa_cc_default()).abs() < 0.35,
        "t_seq/n = {seq_c}"
    );
    assert!((par_c - PI2_OVER_6).abs() < 0.4, "t_par/n = {par_c}");
    // the ~30% gap (Remark 5.3) must be visible
    assert!(par > 1.1 * seq, "par {par} vs seq {seq}");
}

#[test]
fn linear_families_scale_linearly() {
    // hypercube and expander rows: t(2n)/t(n) ≈ 2
    let cfg = ProcessConfig::simple();
    let m = means(&[
        (Family::Hypercube, 32, Process::Parallel, cfg, 200, SEED + 2),
        (Family::Hypercube, 64, Process::Parallel, cfg, 200, SEED + 3),
    ]);
    let ratio = m[1] / m[0];
    assert!(
        (1.5..3.0).contains(&ratio),
        "hypercube doubling ratio {ratio}"
    );
}

#[test]
fn cycle_scales_superquadratically() {
    // cycle row: t(2n)/t(n) ≈ 4·(log 2n / log n) > 4
    let cfg = ProcessConfig::simple();
    let m = means(&[
        (Family::Cycle, 24, Process::Sequential, cfg, 200, SEED + 4),
        (Family::Cycle, 48, Process::Sequential, cfg, 200, SEED + 5),
    ]);
    let ratio = m[1] / m[0];
    assert!(ratio > 3.2, "cycle doubling ratio {ratio}");
}

#[test]
fn who_wins_ordering_at_fixed_n() {
    // at n = 64: clique/expander ≪ binary tree ≪ cycle
    let cfg = ProcessConfig::simple();
    let p = Process::Parallel;
    let m = means(&[
        (Family::Complete, 64, p, cfg, 150, SEED + 6),
        (Family::BinaryTree, 63, p, cfg, 150, SEED + 7),
        (Family::Cycle, 64, p, cfg, 150, SEED + 8),
    ]);
    let (t_clique, t_btree, t_cycle) = (m[0], m[1], m[2]);
    assert!(
        t_clique < t_btree && t_btree < t_cycle,
        "ordering violated: clique {t_clique} tree {t_btree} cycle {t_cycle}"
    );
}

#[test]
fn lazy_factor_two() {
    // Theorem 4.3 on the clique at n = 128
    let seq = Process::Sequential;
    let m = means(&[
        (
            Family::Complete,
            128,
            seq,
            ProcessConfig::simple(),
            300,
            SEED + 9,
        ),
        (
            Family::Complete,
            128,
            seq,
            ProcessConfig::lazy(),
            300,
            SEED + 10,
        ),
    ]);
    let ratio = m[1] / m[0];
    assert!((1.6..2.4).contains(&ratio), "lazy/simple = {ratio}");
}

#[test]
fn ctu_matches_parallel() {
    // Theorem 4.8 on the clique at n = 128
    let cfg = ProcessConfig::simple();
    let m = means(&[
        (Family::Complete, 128, Process::Ctu, cfg, 300, SEED + 11),
        (
            Family::Complete,
            128,
            Process::Parallel,
            cfg,
            300,
            SEED + 12,
        ),
    ]);
    let ratio = m[0] / m[1];
    assert!((0.8..1.25).contains(&ratio), "ctu/par = {ratio}");
}

#[test]
fn path_and_cycle_agree() {
    // Theorem 5.4 / Theorem 5.9: path and cycle are both κ·n² log n with
    // path ≈ cycle up to a constant ≈ 2-4 at equal n (path has reflective
    // ends); just check same order of magnitude.
    let cfg = ProcessConfig::simple();
    let m = means(&[
        (Family::Path, 32, Process::Sequential, cfg, 150, SEED + 13),
        (Family::Cycle, 32, Process::Sequential, cfg, 150, SEED + 14),
    ]);
    let ratio = m[0] / m[1];
    assert!((0.5..8.0).contains(&ratio), "path/cycle = {ratio}");
}
