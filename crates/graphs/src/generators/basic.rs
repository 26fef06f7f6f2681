//! Elementary graph families: path, cycle, complete graph, star.
//!
//! These are the one-dimensional and mean-field rows of Table 1 of the paper:
//! the path/cycle have dispersion time `Θ(n² log n)` and the complete graph is
//! the coupon-collector regime with `t_seq ∼ κ_cc·n` and `t_par ∼ (π²/6)·n`.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};

/// Path `P_n` on vertices `0 - 1 - ... - n-1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires at least one vertex");
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    b.build()
}

/// Cycle `C_n` on vertices `0 - 1 - ... - n-1 - 0`.
///
/// For `n == 1` this is a single self-loop, for `n == 2` a doubled edge, so
/// that the random walk remains well defined.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn cycle(n: usize) -> Graph {
    assert!(n > 0, "cycle requires at least one vertex");
    let mut b = GraphBuilder::with_capacity(n, n);
    if n == 1 {
        b.add_edge(0, 0);
        return b.build();
    }
    for i in 0..n {
        b.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    b.build()
}

/// Complete graph `K_n`: row `v` lists `0, …, v-1, v+1, …, n-1`, the
/// order [`GraphBuilder`] gives the edges `{u, w}`, `u < w`, inserted in
/// ascending order. The CSR is written directly, without the builder's
/// `n(n−1)`-arc transient.
///
/// # Panics
///
/// Panics if `n == 0` or the `n(n−1)` arcs overflow the `u32` offsets.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph requires at least one vertex");
    let d = n - 1;
    let arcs = n
        .checked_mul(d)
        .filter(|&a| a <= u32::MAX as usize)
        .unwrap_or_else(|| panic!("complete graph on {n} vertices overflows u32 offsets"));
    let offsets = (0..=n).map(|v| (v * d) as u32).collect();
    let mut neighbours = Vec::with_capacity(arcs);
    for v in 0..n as Vertex {
        neighbours.extend(0..v);
        neighbours.extend(v + 1..n as Vertex);
    }
    Graph::from_parts(offsets, neighbours)
}

/// Star `S_n`: centre `0` joined to leaves `1..n`.
///
/// The paper notes `t_seq(S_n) = 2·t_seq(K_n) ≈ 2.51 n`, which witnesses the
/// tightness of the tree lower bound (Theorem 3.7).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star requires at least one vertex");
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n {
        b.add_edge(0, v as Vertex);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn complete_matches_builder() {
        for n in 1..=64usize {
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    b.add_edge(u as Vertex, v as Vertex);
                }
            }
            assert_eq!(complete(n), b.build(), "K_{n}");
        }
    }

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(4), 1);
        for v in 1..4 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn path_single_vertex() {
        let g = path(1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.m(), 6);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 2);
        assert!(is_connected(&g));
        assert!(g.has_edge(5, 0));
    }

    #[test]
    fn cycle_degenerate_sizes() {
        assert_eq!(cycle(1).degree(0), 1); // self-loop
        let c2 = cycle(2);
        assert_eq!(c2.degree(0), 2); // doubled edge
        assert_eq!(c2.m(), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(7);
        assert_eq!(g.m(), 21);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 6);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn star_shape() {
        let g = star(8);
        assert_eq!(g.m(), 7);
        assert_eq!(g.degree(0), 7);
        for v in 1..8 {
            assert_eq!(g.degree(v), 1);
        }
        assert!(is_connected(&g));
    }
}
