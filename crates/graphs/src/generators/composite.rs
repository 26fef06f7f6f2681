//! Composite gadget graphs used by the paper's worst cases and
//! counterexamples: lollipop, clique-with-a-hair, and
//! clique-with-a-hair-on-a-pimple.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};

/// Lollipop graph: a clique on `⌈n/2⌉` vertices attached by a single edge to
/// an endpoint of a path with `⌊n/2⌋` vertices (Prop. 5.16: the dispersion
/// time from a clique vertex is `Ω(n³ log n)` w.h.p., matching the general
/// `O(n³ log n)` upper bound of Corollary 3.2).
///
/// Returns `(graph, clique_origin, junction, path_tip)`:
/// * `clique_origin` — a clique vertex distinct from the junction (the
///   start vertex required by Prop. 5.16),
/// * `junction` — the clique vertex `v` adjacent to the path,
/// * `path_tip` — the far end of the path (the hardest vertex to hit).
pub fn lollipop(n: usize) -> (Graph, Vertex, Vertex, Vertex) {
    assert!(n >= 4, "lollipop needs at least 4 vertices");
    let clique_n = n.div_ceil(2);
    let path_n = n / 2;
    let mut b = GraphBuilder::with_capacity(n, clique_n * (clique_n - 1) / 2 + path_n);
    for u in 0..clique_n {
        for v in (u + 1)..clique_n {
            b.add_edge(u as Vertex, v as Vertex);
        }
    }
    // junction is clique vertex clique_n-1; path vertices clique_n..n
    let junction = (clique_n - 1) as Vertex;
    let mut prev = junction;
    for p in clique_n..n {
        b.add_edge(prev, p as Vertex);
        prev = p as Vertex;
    }
    let origin = 0 as Vertex; // clique vertex != junction since clique_n >= 2
    (b.build(), origin, junction, prev)
}

/// Clique with a hair (Prop. 2.1, graph `G₁`): `K_{n-1}` plus an extra vertex
/// `v*` attached by a single edge to clique vertex `v`.
///
/// Returns `(graph, v, v_star)`. Starting the dispersion process at `v`, the
/// dispersion time is `O(n)` w.p. `≈ 1 − 1/e` but `Ω(n²)` w.p. `≈ 1/e`:
/// expectation and typical value disagree (no concentration).
pub fn clique_with_hair(n: usize) -> (Graph, Vertex, Vertex) {
    assert!(n >= 3, "clique with hair needs at least 3 vertices");
    let clique_n = n - 1;
    let mut b = GraphBuilder::with_capacity(n, clique_n * (clique_n - 1) / 2 + 1);
    for u in 0..clique_n {
        for v in (u + 1)..clique_n {
            b.add_edge(u as Vertex, v as Vertex);
        }
    }
    let v = 0 as Vertex;
    let v_star = (n - 1) as Vertex;
    b.add_edge(v, v_star);
    (b.build(), v, v_star)
}

/// Clique with a hair on a pimple (Prop. 2.1, graph `G₂`): an edge `{v, v*}`
/// where `v` is attached to `pimple` vertices of a `K_{n-2}`.
///
/// Returns `(graph, v, v_star)`. With `pimple = n/log n` the expected
/// dispersion from `v` is `Θ(n)` yet `Pr[D ≥ Ω(n²)] = Ω(1/n)`: a heavy upper
/// tail.
pub fn clique_with_hair_on_pimple(n: usize, pimple: usize) -> (Graph, Vertex, Vertex) {
    assert!(n >= 4, "needs at least 4 vertices");
    let clique_n = n - 2;
    assert!(
        (1..=clique_n).contains(&pimple),
        "pimple degree must be in 1..=n-2"
    );
    let mut b = GraphBuilder::with_capacity(n, clique_n * (clique_n - 1) / 2 + pimple + 1);
    // clique vertices: 0..clique_n; v = n-2; v_star = n-1
    for u in 0..clique_n {
        for w in (u + 1)..clique_n {
            b.add_edge(u as Vertex, w as Vertex);
        }
    }
    let v = (n - 2) as Vertex;
    let v_star = (n - 1) as Vertex;
    for u in 0..pimple {
        b.add_edge(v, u as Vertex);
    }
    b.add_edge(v, v_star);
    (b.build(), v, v_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_distances, is_connected};

    #[test]
    fn lollipop_shape() {
        let (g, origin, junction, tip) = lollipop(10);
        assert_eq!(g.n(), 10);
        assert!(is_connected(&g));
        // clique part: 5 vertices, path part: 5 vertices
        assert_eq!(g.degree(origin), 4);
        assert_eq!(g.degree(junction), 5); // clique 4 + path 1
        assert_eq!(g.degree(tip), 1);
        let d = bfs_distances(&g, junction);
        assert_eq!(d[tip as usize], 5);
    }

    #[test]
    fn lollipop_odd_sizes() {
        let (g, _, _, _) = lollipop(11);
        assert_eq!(g.n(), 11);
        assert!(is_connected(&g));
    }

    #[test]
    fn clique_with_hair_shape() {
        let (g, v, v_star) = clique_with_hair(8);
        assert_eq!(g.n(), 8);
        assert!(is_connected(&g));
        assert_eq!(g.degree(v_star), 1);
        assert_eq!(g.degree(v), 7); // 6 clique neighbours + hair
        assert!(g.has_edge(v, v_star));
    }

    #[test]
    fn clique_with_hair_on_pimple_shape() {
        let (g, v, v_star) = clique_with_hair_on_pimple(12, 4);
        assert_eq!(g.n(), 12);
        assert!(is_connected(&g));
        assert_eq!(g.degree(v), 5); // 4 pimple edges + hair
        assert_eq!(g.degree(v_star), 1);
        assert!(g.has_edge(v, v_star));
    }

    #[test]
    #[should_panic]
    fn pimple_degree_validated() {
        let _ = clique_with_hair_on_pimple(10, 9);
    }
}
