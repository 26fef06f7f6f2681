//! Incremental construction of CSR graphs.
//!
//! The builder accumulates an arc list and performs a single counting-sort
//! pass into CSR form, so building is `O(n + m)` with two allocations.

use crate::graph::{arc_buffer, Graph, Vertex};

/// Accumulates undirected edges and produces a [`Graph`].
///
/// A self-loop `add_edge(v, v)` contributes **one** slot to `v`'s adjacency
/// list (the walk takes the loop with probability `1/deg(v)`).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    // Directed arc list; every non-loop edge is stored in both directions.
    arcs: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        GraphBuilder {
            n,
            arcs: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` undirected edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.arcs.reserve(2 * m);
        b
    }

    /// Number of vertices this builder targets.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` (or a self-loop when `u == v`).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert!(
            (u as usize) < self.n,
            "endpoint {u} out of range (n = {})",
            self.n
        );
        assert!(
            (v as usize) < self.n,
            "endpoint {v} out of range (n = {})",
            self.n
        );
        self.arcs.push((u, v));
        if u != v {
            self.arcs.push((v, u));
        }
        self
    }

    /// Finalises into CSR form.
    pub fn build(&self) -> Graph {
        let n = self.n;
        let mut counts = vec![0u32; n + 1];
        for &(u, _) in &self.arcs {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut neighbours = arc_buffer(self.arcs.len());
        neighbours.resize(self.arcs.len(), 0);
        for &(u, v) in &self.arcs {
            let slot = cursor[u as usize] as usize;
            neighbours[slot] = v;
            cursor[u as usize] += 1;
        }
        Graph::from_parts(offsets, neighbours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn parallel_edges_kept() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn self_loop_single_slot() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbours(0), &[0]);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn csr_adjacency_matches_inserted_edges() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let g = Graph::from_edges(4, &edges);
        for &(u, v) in &edges {
            assert!(g.has_edge(u, v), "missing edge ({u},{v})");
        }
        assert_eq!(g.m(), edges.len());
    }

    #[test]
    fn with_capacity_equivalent() {
        let mut a = GraphBuilder::new(3);
        let mut b = GraphBuilder::with_capacity(3, 2);
        a.add_edge(0, 1).add_edge(1, 2);
        b.add_edge(0, 1).add_edge(1, 2);
        assert_eq!(a.build(), b.build());
    }
}
