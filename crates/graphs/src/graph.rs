//! Compressed-sparse-row (CSR) graph storage.
//!
//! All simulators in this workspace spend their hot loop scanning neighbour
//! lists, so the graph is stored as two flat arrays (`offsets`, `neighbours`)
//! with `u32` vertex ids. This keeps a vertex's adjacency contiguous in memory
//! and the whole structure small enough to stay cache-resident for the sizes
//! the paper's experiments use.

use crate::builder::GraphBuilder;
use crate::walk::Below;

/// A vertex identifier. Graphs in this workspace are capped at `u32::MAX`
/// vertices; experiments never exceed a few million.
pub type Vertex = u32;

/// An undirected, unweighted, connected multigraph in CSR form.
///
/// Self-loops are permitted (they are how lazy walks are modelled when a
/// caller prefers an explicit loop graph, cf. Section 4.4 of the paper) and
/// count once towards the degree per occurrence.
///
/// # Invariants
///
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, `offsets[n] == neighbours.len()`.
/// * For every undirected edge `{u, v}` with `u != v`, `v` appears in `u`'s
///   slice and `u` in `v`'s slice exactly once per parallel edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbours: Vec<Vertex>,
    /// The neighbour sampler of a regular graph of positive degree `d`,
    /// whose row `v` then starts at `v · d`; `None` otherwise.
    pub(crate) regular: Option<Below>,
}

impl Graph {
    /// Builds a graph from an explicit edge list over `n` vertices.
    ///
    /// Each `(u, v)` pair contributes an undirected edge; `u == v` contributes
    /// a self-loop (degree contribution of 1, matching the convention used in
    /// Section 4.4 where a loop is taken with probability `1/deg`).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    pub(crate) fn from_parts(offsets: Vec<u32>, neighbours: Vec<Vertex>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbours.len());
        let d = offsets.get(1).map_or(0, |&o| u64::from(o));
        let regular = (d > 0 && offsets.windows(2).all(|w| u64::from(w[1] - w[0]) == d))
            .then(|| Below::new(d));
        Graph {
            offsets,
            neighbours,
            regular,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges. Each self-loop counts as one edge.
    #[inline]
    pub fn m(&self) -> usize {
        let mut loops = 0usize;
        for v in 0..self.n() {
            loops += self
                .neighbours(v as Vertex)
                .iter()
                .filter(|&&w| w as usize == v)
                .count();
        }
        (self.neighbours.len() - loops) / 2 + loops
    }

    /// Total number of directed arcs (`sum of degrees`); self-loops count once.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.neighbours.len()
    }

    /// Degree of `v` (self-loops count once per occurrence).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbour slice of `v`.
    #[inline]
    pub fn neighbours(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.neighbours[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterator over all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n() as Vertex
    }

    /// Iterator over undirected edges as `(u, v)` with `u <= v`.
    /// Parallel edges appear with multiplicity.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbours(u)
                .iter()
                .copied()
                .filter(move |&v| u <= v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree Δ(G).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree δ(G).
    pub fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// The paper calls a graph *almost-regular* when `Δ/δ = O(1)`; this
    /// reports the ratio so callers can apply their own threshold.
    pub fn degree_ratio(&self) -> f64 {
        let min = self.min_degree();
        if min == 0 {
            f64::INFINITY
        } else {
            self.max_degree() as f64 / min as f64
        }
    }

    /// True if `{u, v}` is an edge (linear scan of the shorter list).
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if self.degree(u) <= self.degree(v) {
            self.neighbours(u).contains(&v)
        } else {
            self.neighbours(v).contains(&u)
        }
    }

    /// Returns the sum of degrees (2m for loop-free graphs), used as the
    /// normaliser of the random-walk stationary distribution `π(v) = deg(v)/Σdeg`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.neighbours.len()
    }

    /// Adds `k` self-loops at every vertex, returning a new graph.
    ///
    /// `with_self_loops(deg(v))` realises the `G̃` construction in the proof of
    /// Theorem 4.3: the walk on `G̃` is the lazy walk on `G`.
    ///
    /// This **materialises** a second adjacency (`O(n + m)` memory).
    /// Simulations that only need the walk semantics should use
    /// `WalkKind::Lazy` or the zero-allocation
    /// [`lazified_view`](Graph::lazified_view) instead; this constructor
    /// remains for callers that need an explicit loop graph (transition
    /// matrices, spectral code).
    pub fn with_loops_per_vertex<F: Fn(Vertex) -> usize>(&self, loops: F) -> Graph {
        let mut b = GraphBuilder::new(self.n());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        for v in self.vertices() {
            for _ in 0..loops(v) {
                b.add_edge(v, v);
            }
        }
        b.build()
    }

    /// The `G̃` graph of Theorem 4.3: every vertex receives as many self-loops
    /// as it has neighbours, so a simple walk on the result is exactly the
    /// lazy walk on `self`.
    ///
    /// Like [`with_loops_per_vertex`](Graph::with_loops_per_vertex) this
    /// duplicates the graph's memory; lazy *runs* should prefer
    /// `WalkKind::Lazy` or [`lazified_view`](Graph::lazified_view), which
    /// present the identical walk without the copy.
    pub fn lazified(&self) -> Graph {
        let degs: Vec<usize> = self.vertices().map(|v| self.degree(v)).collect();
        self.with_loops_per_vertex(move |v| degs[v as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.total_degree(), 6);
    }

    #[test]
    fn degrees_and_neighbours() {
        let g = triangle();
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
            assert_eq!(g.neighbours(v).len(), 2);
        }
        assert!(g.is_regular());
        assert_eq!(g.degree_ratio(), 1.0);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), 3);
        assert!(e.contains(&(0, 1)));
        assert!(e.contains(&(1, 2)));
        assert!(e.contains(&(0, 2)));
    }

    #[test]
    fn self_loops_count_once_in_degree() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 0)]);
        assert_eq!(g.degree(0), 2); // one real neighbour + one loop slot
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn lazified_doubles_degree() {
        let g = triangle();
        let lz = g.lazified();
        for v in lz.vertices() {
            assert_eq!(lz.degree(v), 4);
            // half of the slots are self loops
            let loops = lz.neighbours(v).iter().filter(|&&w| w == v).count();
            assert_eq!(loops, 2);
        }
        assert_eq!(lz.n(), g.n());
    }

    #[test]
    fn star_edge_count() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert!(!g.is_regular());
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_panics() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }
}
