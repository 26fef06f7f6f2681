//! Cross-backend validation: the sparse CG/Lanczos engine
//! (`dispersion-solve`) must reproduce the dense LU/Jacobi oracles on every
//! Table 1 family — hitting times, effective resistances, and spectral
//! gaps — to ≤ 1e-8 relative error, plus a clean error path on
//! disconnected graphs where CG cannot converge. The dense side is the
//! plain `dispersion-markov` function, which solves densely at these sizes
//! (n ≤ 512).

use dispersion_repro::graphs::families::Family;
use dispersion_repro::graphs::{Graph, Vertex};
use dispersion_repro::markov::hitting::hitting_times_to_set;
use dispersion_repro::markov::mixing::{lambda_star, spectral_gap};
use dispersion_repro::markov::resistance::effective_resistance;
use dispersion_repro::markov::transition::WalkKind;
use dispersion_repro::solve::{
    effective_resistance_sparse, hitting_times_to_set_sparse, lambda_star_sparse,
    spectral_gap_sparse, CgSettings, SolveError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Relative tolerance between the sparse and dense backends.
const REL_TOL: f64 = 1e-8;

fn table1_instance(family_idx: usize, size: usize, seed: u64) -> (Graph, Vertex, &'static str) {
    let families = Family::table1();
    let family = families[family_idx % families.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = family.instance(size, &mut rng);
    (inst.graph, inst.origin, inst.label)
}

fn sparse_hitting(g: &Graph, kind: WalkKind, origin: Vertex) -> Vec<f64> {
    hitting_times_to_set_sparse(g, kind, &[origin], &CgSettings::default()).unwrap()
}

fn sparse_resistance(g: &Graph, u: Vertex, v: Vertex) -> f64 {
    effective_resistance_sparse(g, u, v, &CgSettings::default()).unwrap()
}

fn assert_rel_close(a: f64, b: f64, label: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= REL_TOL * scale,
        "{label}: dense {a} vs sparse {b} (rel err {})",
        (a - b).abs() / scale
    );
}

proptest! {
    // case counts are tuned so the whole file stays debug-test friendly:
    // the *dense oracle* is the expensive side (O(n³) LU, O(n³)-per-sweep
    // Jacobi), not the sparse engine under test
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CG hitting times match the dense `(I − Q)` solve from every start.
    #[test]
    fn sparse_hitting_matches_dense(
        fam in 0usize..8,
        size in 16usize..=200,
        seed in any::<u64>(),
    ) {
        let (g, origin, label) = table1_instance(fam, size, seed);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let dense = hitting_times_to_set(&g, kind, &[origin]);
            let sparse = sparse_hitting(&g, kind, origin);
            for (v, (d, s)) in dense.iter().zip(&sparse).enumerate() {
                let scale = d.abs().max(1.0);
                prop_assert!(
                    (d - s).abs() <= REL_TOL * scale,
                    "{label} n={} {kind:?} t_hit({v}→{origin}): {d} vs {s}",
                    g.n()
                );
            }
        }
    }

    /// CG effective resistances match the dense grounded-Laplacian solve.
    #[test]
    fn sparse_resistance_matches_dense(
        fam in 0usize..8,
        size in 16usize..=200,
        seed in any::<u64>(),
    ) {
        let (g, origin, label) = table1_instance(fam, size, seed);
        let far = (g.n() / 2) as Vertex;
        for (u, v) in [(origin, far), (0, (g.n() - 1) as Vertex)] {
            let dense = effective_resistance(&g, u, v);
            let sparse = sparse_resistance(&g, u, v);
            let scale = dense.abs().max(1.0);
            prop_assert!(
                (dense - sparse).abs() <= REL_TOL * scale,
                "{label} n={} R({u},{v}): {dense} vs {sparse}",
                g.n()
            );
        }
    }

    /// Lanczos λ* (and the gap) match the dense Jacobi spectrum. Sizes are
    /// kept a bit smaller: the dense oracle is O(n³) *per Jacobi sweep*.
    #[test]
    fn sparse_spectral_gap_matches_dense(
        fam in 0usize..8,
        size in 16usize..=96,
        seed in any::<u64>(),
    ) {
        let (g, _, label) = table1_instance(fam, size, seed);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let ls_d = lambda_star(&g, kind);
            let ls_s = lambda_star_sparse(&g, kind);
            prop_assert!(
                (ls_d - ls_s).abs() <= REL_TOL * ls_d.abs().max(1.0),
                "{label} n={} {kind:?} λ*: {ls_d} vs {ls_s}",
                g.n()
            );
            let gap_d = spectral_gap(&g, kind);
            let gap_s = spectral_gap_sparse(&g, kind);
            // the gap is a difference of near-1 quantities: 1e-8 *absolute*
            // is the meaningful cross-backend guarantee there
            prop_assert!(
                (gap_d - gap_s).abs() <= REL_TOL,
                "{label} n={} {kind:?} gap: {gap_d} vs {gap_s}",
                g.n()
            );
        }
    }
}

/// One deterministic pass over every Table 1 family at the size ceiling the
/// acceptance criterion names (n ≤ ~200 after family rounding): the CG
/// quantities (hitting times, resistance) at size 200, the Lanczos λ* at a
/// smaller size where the dense Jacobi oracle stays debug-test friendly.
#[test]
fn all_table1_families_agree_at_size_200() {
    for (idx, _family) in Family::table1().into_iter().enumerate() {
        let (g, origin, label) = table1_instance(idx, 200, 7 + idx as u64);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let dense = hitting_times_to_set(&g, kind, &[origin]);
            let sparse = sparse_hitting(&g, kind, origin);
            for (d, s) in dense.iter().zip(&sparse) {
                assert_rel_close(*d, *s, &format!("{label} {kind:?} hitting"));
            }
        }
        let far = (g.n() / 2) as Vertex;
        assert_rel_close(
            effective_resistance(&g, origin, far),
            sparse_resistance(&g, origin, far),
            &format!("{label} resistance"),
        );
        let (g_small, _, _) = table1_instance(idx, 64, 11 + idx as u64);
        let d = lambda_star(&g_small, WalkKind::Lazy);
        let s = lambda_star_sparse(&g_small, WalkKind::Lazy);
        assert_rel_close(d, s, &format!("{label} λ*"));
    }
}

/// The CG error path: on a disconnected graph the grounded system is
/// singular, the solver reports `NotConverged`, and the panicking wrapper
/// surfaces a diagnosable message. Two 300-vertex paths: past the 512
/// states where `hitting_times_to_set` switches to the sparse engine.
#[test]
fn cg_reports_non_convergence_on_disconnected_graph() {
    let edges: Vec<(Vertex, Vertex)> = (0..600)
        .filter(|&v| v % 300 != 299)
        .map(|v| (v, v + 1))
        .collect();
    let g = Graph::from_edges(600, &edges);
    let err = hitting_times_to_set_sparse(&g, WalkKind::Simple, &[0], &CgSettings::default())
        .unwrap_err();
    assert!(matches!(err, SolveError::NotConverged { .. }), "{err:?}");
    assert!(err.to_string().contains("disconnected"));

    let panic =
        std::panic::catch_unwind(|| hitting_times_to_set(&g, WalkKind::Simple, &[0])).unwrap_err();
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("disconnected"), "unexpected panic: {msg}");
}
