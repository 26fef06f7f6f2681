//! The Boolean hypercube `H_n` with `n = 2^k` vertices.
//!
//! Table 1: cover time `Θ(n log n)`, hitting time `Θ(n)`, mixing time
//! `log n · log log n`, dispersion time `Θ(n)` for both processes
//! (Theorem 5.7).

use crate::builder::csr_from_edges;
use crate::graph::{Graph, Vertex};

/// `k`-dimensional hypercube: vertices are bitstrings of length `k`,
/// adjacent iff they differ in exactly one bit. `n = 2^k`.
///
/// # Panics
///
/// Panics if `k == 0` or `k >= 31`.
pub fn hypercube(k: usize) -> Graph {
    assert!(k > 0, "hypercube dimension must be positive");
    assert!(k < 31, "hypercube dimension too large for u32 ids");
    let n = 1usize << k;
    csr_from_edges(n, |edge| {
        for v in 0..n {
            for bit in 0..k {
                let u = v ^ (1 << bit);
                if u > v {
                    edge(v as Vertex, u as Vertex);
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_distances, is_connected};

    #[test]
    fn shape() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32); // n*k/2
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn adjacency_is_hamming_one() {
        let g = hypercube(3);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), (u ^ v).count_ones() == 1);
            }
        }
    }

    #[test]
    fn graph_distance_equals_hamming() {
        let g = hypercube(5);
        let d = bfs_distances(&g, 0);
        for v in g.vertices() {
            assert_eq!(d[v as usize], v.count_ones() as usize);
        }
    }

    #[test]
    fn k1_is_single_edge() {
        let g = hypercube(1);
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }
}
