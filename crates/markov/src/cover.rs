//! Cover-time bounds.
//!
//! The paper contrasts its dispersion bounds with Matthews' bound for the
//! cover time (`t_cov ≤ H_n · t_hit`, Remark after Theorem 2): the
//! `O(t_hit log n)` dispersion upper bound "matches Matthews bound in order
//! of magnitude" yet the dispersion time is usually of order `t_hit`.

use crate::hitting::all_pairs_hitting;
use crate::transition::WalkKind;
use dispersion_graphs::Graph;

/// The harmonic number `H_k = 1 + 1/2 + ... + 1/k`.
pub fn harmonic(k: usize) -> f64 {
    (1..=k).map(|i| 1.0 / i as f64).sum()
}

/// Matthews upper bound: `t_cov ≤ H_{n-1} · max_{u,v} t_hit(u, v)`.
pub fn matthews_upper_bound(g: &Graph, kind: WalkKind) -> f64 {
    let h = all_pairs_hitting(g, kind);
    let n = g.n();
    let mut thit: f64 = 0.0;
    for u in 0..n {
        for v in 0..n {
            thit = thit.max(h[(u, v)]);
        }
    }
    harmonic(n - 1) * thit
}

/// Matthews lower bound over a given subset `A` of vertices:
/// `t_cov ≥ H_{|A|-1} · min_{u≠v ∈ A} t_hit(u, v)`.
// LINT: unused-pub-ok — Matthews' lower bound, checked against exact cover
// times by cover::tests::matthews_bounds_bracket_exact_cover_times
pub fn matthews_lower_bound(
    g: &Graph,
    kind: WalkKind,
    subset: &[dispersion_graphs::Vertex],
) -> f64 {
    assert!(subset.len() >= 2, "Matthews lower bound needs |A| >= 2");
    let h = all_pairs_hitting(g, kind);
    let mut min_hit = f64::INFINITY;
    for &u in subset {
        for &v in subset {
            if u != v {
                min_hit = min_hit.min(h[(u as usize, v as usize)]);
            }
        }
    }
    harmonic(subset.len() - 1) * min_hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, path};
    use dispersion_graphs::Vertex;

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - 25.0 / 12.0).abs() < 1e-12);
        // H_k ≈ ln k + γ
        assert!((harmonic(100_000) - (100_000f64).ln() - 0.5772156649).abs() < 1e-4);
    }

    fn bounds(g: &Graph) -> (f64, f64) {
        let all: Vec<Vertex> = g.vertices().collect();
        (
            matthews_lower_bound(g, WalkKind::Simple, &all),
            matthews_upper_bound(g, WalkKind::Simple),
        )
    }

    #[test]
    fn matthews_bounds_bracket_exact_cover_times() {
        // K_n: coupon collector over the n−1 other vertices, (n−1)·H_{n−1};
        // every hitting time is n−1, so both bounds are exact
        let exact = 7.0 * harmonic(7);
        let (lb, ub) = bounds(&complete(8));
        assert!((lb - exact).abs() < 1e-9, "K_8 lower {lb} vs {exact}");
        assert!((ub - exact).abs() < 1e-9, "K_8 upper {ub} vs {exact}");
        // C_n from any vertex: n(n−1)/2; P_n from an endpoint: (n−1)²
        for (name, g, exact) in [("C_10", cycle(10), 45.0), ("P_8", path(8), 49.0)] {
            let (lb, ub) = bounds(&g);
            assert!(
                lb <= exact && exact <= ub,
                "{name}: {lb} <= {exact} <= {ub}"
            );
        }
    }

    #[test]
    fn bounds_bracket() {
        let g = complete(10);
        let all: Vec<Vertex> = g.vertices().collect();
        let lb = matthews_lower_bound(&g, WalkKind::Simple, &all);
        let ub = matthews_upper_bound(&g, WalkKind::Simple);
        assert!(lb <= ub);
    }
}
