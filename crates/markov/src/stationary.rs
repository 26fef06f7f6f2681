//! Stationary distribution of the random walk.
//!
//! For a (possibly lazy) random walk on an undirected graph, the stationary
//! distribution is degree-proportional: `π(v) = deg(v) / Σ_u deg(u)`. Lazy
//! and simple walks share the same `π`.

use dispersion_graphs::Graph;

/// Degree-proportional stationary distribution `π`.
pub fn stationary(g: &Graph) -> Vec<f64> {
    let total = g.total_degree() as f64;
    assert!(total > 0.0, "graph has no edges; stationary undefined");
    g.vertices().map(|v| g.degree(v) as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::{transition_matrix, WalkKind};
    use dispersion_graphs::generators::{complete, cycle, star};

    #[test]
    fn uniform_on_regular_graphs() {
        for g in [cycle(6), complete(5)] {
            let pi = stationary(&g);
            let n = g.n() as f64;
            for p in &pi {
                assert!((p - 1.0 / n).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn star_centre_has_half_mass() {
        let g = star(5); // centre degree 4, leaves degree 1, total 8
        let pi = stationary(&g);
        assert!((pi[0] - 0.5).abs() < 1e-12);
        for &p in &pi[1..5] {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn sums_to_one() {
        for g in [cycle(9), star(7), complete(4)] {
            let s: f64 = stationary(&g).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn invariant_under_transition() {
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let g = star(6);
            let pi = stationary(&g);
            let p = transition_matrix(&g, kind);
            let next = p.vecmat(&pi);
            for (a, b) in pi.iter().zip(&next) {
                assert!((a - b).abs() < 1e-12, "π not invariant under {kind:?}");
            }
        }
    }
}
