//! Incremental construction of CSR graphs.
//!
//! The builder accumulates an edge list and counting-sorts it into CSR
//! form, so building is `O(n + m)`. Generators that can enumerate their
//! edges twice skip the list: `csr_from_edges`, the counting sort, counts
//! the degrees in one pass and writes the rows in the next.

use crate::graph::{arc_buffer, Graph, Vertex};

/// Accumulates undirected edges and produces a [`Graph`].
///
/// A self-loop `add_edge(v, v)` contributes **one** slot to `v`'s adjacency
/// list (the walk takes the loop with probability `1/deg(v)`).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Undirected edges in insertion order, each stored once.
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` undirected edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
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
        check_endpoint(u, self.n);
        check_endpoint(v, self.n);
        self.edges.push((u, v));
        self
    }

    /// Finalises into CSR form.
    pub fn build(&self) -> Graph {
        csr_from_edges(self.n, |edge| {
            for &(u, v) in &self.edges {
                edge(u, v);
            }
        })
    }
}

fn check_endpoint(v: Vertex, n: usize) {
    assert!((v as usize) < n, "endpoint {v} out of range (n = {n})");
}

/// The graph on `n` vertices whose undirected edges `edges` passes, in
/// order, to the sink it is given: the graph a [`GraphBuilder`] fed the
/// same edges builds, row for row. `edges` runs twice, once to count the
/// degrees and once to write the rows, so no edge list is held; it must
/// pass the same edges both times.
///
/// # Panics
///
/// Panics if `n` does not fit in `u32` or an endpoint is not below `n`.
pub(crate) fn csr_from_edges(n: usize, edges: impl Fn(&mut dyn FnMut(Vertex, Vertex))) -> Graph {
    assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
    let mut counts = vec![0u32; n + 1];
    edges(&mut |u, v| {
        check_endpoint(u, n);
        check_endpoint(v, n);
        counts[u as usize + 1] += 1;
        if u != v {
            counts[v as usize + 1] += 1;
        }
    });
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let arcs = offsets[n] as usize;
    let mut neighbours = arc_buffer(arcs);
    neighbours.resize(arcs, 0);
    // each edge takes the next free slot of `u`'s row, then of `v`'s
    let mut put = |u: Vertex, v: Vertex| {
        let slot = &mut cursor[u as usize];
        neighbours[*slot as usize] = v;
        *slot += 1;
    };
    edges(&mut |u, v| {
        put(u, v);
        if u != v {
            put(v, u);
        }
    });
    Graph::from_parts(offsets, neighbours)
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
    fn rows_follow_insertion_order() {
        // each edge fills `u`'s row, then `v`'s; a loop takes one slot
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(2, 0), (0, 1), (3, 3), (1, 2), (0, 2), (3, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.neighbours(0), &[2, 1, 2, 3]);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.neighbours(2), &[0, 1, 0]);
        assert_eq!(g.neighbours(3), &[3, 0]);
    }

    #[test]
    #[should_panic(expected = "endpoint 4 out of range (n = 4)")]
    fn enumerated_endpoints_are_checked() {
        csr_from_edges(4, |edge| edge(0, 4));
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
