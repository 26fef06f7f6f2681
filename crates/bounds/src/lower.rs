//! Lower bounds on the dispersion time (Theorems 3.6, 3.7 and
//! Proposition 3.9).

use dispersion_graphs::traversal::is_tree;
use dispersion_graphs::Graph;
use dispersion_markov::mixing::relaxation_time;
use dispersion_markov::transition::WalkKind;

/// Theorem 3.6: `t_seq(G) = Ω(|E|/Δ)`. Returns the explicit quantity
/// `|E|/Δ` (the proof gives `t_seq ≥ c·|E|/Δ` for an absolute constant; for
/// almost-regular graphs this is `Ω(n)`).
pub fn thm36_edges_over_maxdeg(g: &Graph) -> f64 {
    g.m() as f64 / g.max_degree() as f64
}

/// Theorem 3.7: for any tree on `n` vertices, `t_seq(T) ≥ 2n − 3`.
///
/// # Panics
///
/// Panics if `g` is not a tree.
pub fn thm37_tree_lower(g: &Graph) -> f64 {
    assert!(is_tree(g), "Theorem 3.7 applies to trees only");
    (2 * g.n()) as f64 - 3.0
}

/// Proposition 3.9: `t_seq = Ω(t_mix) = Ω(λ₂/(1−λ₂)) = Ω(1/Φ)` for lazy
/// walks. Returns the lazy mixing time (exact for small `n`, spectral lower
/// bound otherwise).
pub fn prop39_mixing_lower(g: &Graph) -> f64 {
    crate::lazy_mixing_quarter(g).0
}

/// The relaxation-time form of Proposition 3.9: `λ₂/(1 − λ₂)` of the lazy
/// walk.
// LINT: unused-pub-ok — Proposition 3.9 (relaxation form), checked by
// lower::tests::relaxation_lower_consistent_with_mixing
pub fn prop39_relaxation_lower(g: &Graph) -> f64 {
    (relaxation_time(g, WalkKind::Lazy) - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{binary_tree, complete, cycle, hypercube, path, star};

    #[test]
    fn thm36_values() {
        // regular graphs: |E|/Δ = n/2
        let g = cycle(20);
        assert!((thm36_edges_over_maxdeg(&g) - 10.0).abs() < 1e-12);
        let k = complete(10);
        assert!((thm36_edges_over_maxdeg(&k) - 5.0).abs() < 1e-12);
        // star: |E|/Δ = (n-1)/(n-1) = 1 (the bound is weak on irregular graphs)
        let s = star(8);
        assert!((thm36_edges_over_maxdeg(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thm37_values() {
        assert_eq!(thm37_tree_lower(&path(10)), 17.0);
        assert_eq!(thm37_tree_lower(&star(10)), 17.0);
        assert_eq!(thm37_tree_lower(&binary_tree(4)), 27.0);
    }

    #[test]
    #[should_panic(expected = "trees only")]
    fn thm37_rejects_non_trees() {
        let _ = thm37_tree_lower(&cycle(8));
    }

    #[test]
    fn prop39_orders() {
        // cycle mixes slowly (Θ(n²)); clique mixes in O(1)
        let slow = prop39_mixing_lower(&cycle(32));
        let fast = prop39_mixing_lower(&complete(32));
        assert!(slow > 10.0 * fast, "cycle {slow} vs clique {fast}");
    }

    #[test]
    fn relaxation_lower_consistent_with_mixing() {
        // t_mix ≥ (t_rel − 1)·ln 2 > (t_rel − 1)/2
        for g in [cycle(24), hypercube(4), star(12)] {
            let t = prop39_mixing_lower(&g);
            let r = prop39_relaxation_lower(&g);
            assert!(t >= r * 0.5 - 1.0, "tmix {t} vs trel-1 {r}");
        }
    }
}
