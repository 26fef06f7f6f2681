//! Compressed-sparse-row (CSR) graph storage.
//!
//! All simulators in this workspace spend their hot loop scanning neighbour
//! lists, so the graph is stored as two flat arrays (`offsets`, `arcs`)
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
/// * `offsets.len() == n + 1`, `offsets[n] == arcs.len()`; `offsets[0]` is
///   the length of the padded row table in front of the CSR rows (0 when
///   there is none).
/// * For every undirected edge `{u, v}` with `u != v`, `v` appears in `u`'s
///   slice and `u` in `v`'s slice exactly once per parallel edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub(crate) offsets: Vec<u32>,
    /// A padded row table, if the graph has one, then the CSR rows:
    /// `arcs[offsets[v]..offsets[v + 1]]` for vertex `v`.
    pub(crate) arcs: Vec<Vertex>,
    /// The sampler over the width `W` of the row table the walk steps
    /// through: row `v` is `arcs[v · W..(v + 1) · W]`, and its slot `r`
    /// holds neighbour `r mod deg(v)`, so every degree divides `W`. A
    /// regular graph of degree `d` is its own table (`W = d`). An
    /// irregular graph whose degrees are all at most 64, and whose degree
    /// lcm `L` keeps `n · L` within [`PAD_LIMIT`] times its arc count, gets
    /// a padded table with `W = L` (a binary tree: `L = 6`). `None` for any
    /// other graph, which walks through `offsets` instead.
    pub(crate) rows: Option<Below>,
}

/// Largest `n · W / (arc count)` a padded row table may reach: the table
/// costs at most this many times the CSR rows it copies.
const PAD_LIMIT: usize = 4;

/// Degrees up to this bound may be padded into a row table.
const PAD_MAX_DEGREE: usize = 64;

/// The row-table width of the CSR graph `(offsets, arcs)`, if its degrees
/// allow one; a padded table is put in front of `arcs`, and `offsets`
/// shifted past it.
fn row_table(offsets: &mut [u32], arcs: &mut Vec<Vertex>) -> Option<Below> {
    let degrees = offsets.windows(2).map(|w| (w[1] - w[0]) as usize);
    let d = degrees.clone().next()?;
    if d > 0 && degrees.clone().all(|e| e == d) {
        return Some(Below::new(d as u64));
    }
    let n = offsets.len() - 1;
    let mut seen = 0u64;
    for d in degrees {
        if !(1..=PAD_MAX_DEGREE).contains(&d) {
            return None;
        }
        seen |= 1 << (d - 1);
    }
    let mut width = 1;
    for d in (1..=PAD_MAX_DEGREE).filter(|d| seen >> (d - 1) & 1 == 1) {
        width = lcm(width, d);
        if n * width > PAD_LIMIT * arcs.len() {
            return None;
        }
    }
    let shift = u32::try_from(n * width).ok()?;
    u32::try_from(arcs.len()).ok()?.checked_add(shift)?;
    let mut table = Vec::with_capacity(n * width + arcs.len());
    for row in offsets.windows(2) {
        let row = &arcs[row[0] as usize..row[1] as usize];
        table.extend(row.iter().cycle().take(width));
    }
    table.append(arcs);
    *arcs = table;
    for o in offsets.iter_mut() {
        *o += shift;
    }
    Some(Below::new(width as u64))
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
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

    pub(crate) fn from_parts(mut offsets: Vec<u32>, mut arcs: Vec<Vertex>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, arcs.len());
        let rows = row_table(&mut offsets, &mut arcs);
        Graph {
            offsets,
            arcs,
            rows,
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
        (self.arc_count() - loops) / 2 + loops
    }

    /// Total number of directed arcs (`sum of degrees`); self-loops count once.
    #[inline]
    pub fn arc_count(&self) -> usize {
        (self.offsets[self.n()] - self.offsets[0]) as usize
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
        &self.arcs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
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
    fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
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
        self.arc_count()
    }

    /// The `G̃` graph of Theorem 4.3: every vertex receives as many self-loops
    /// as it has neighbours, so a simple walk on the result is exactly the
    /// lazy walk on `self`.
    ///
    /// This **materialises** a second adjacency (`O(n + m)` memory); lazy
    /// *runs* use [`WalkKind::Lazy`](crate::WalkKind::Lazy), which takes
    /// the identical walk without the copy. This is the explicit `G̃`
    /// reference for transition-matrix and spectral code.
    pub fn lazified(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        for v in self.vertices() {
            for _ in 0..self.degree(v) {
                b.add_edge(v, v);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        binary_tree, complete, grid, hypercube, lollipop, path, star, torus2d,
    };
    use crate::topology::Topology;
    use crate::walk::tests::Replay;
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};

    /// `(W, padded)` of a graph's row table, `None` without one.
    type RowTable = Option<(u64, bool)>;

    fn table_of(g: &Graph) -> RowTable {
        g.rows.map(|b| (b.width(), g.offsets[0] > 0))
    }

    /// Regular graphs (both sides of the power-of-two mask, and a degree
    /// above 64), padded irregular graphs and fallback graphs.
    fn walk_graphs() -> Vec<(&'static str, Graph, RowTable)> {
        vec![
            ("torus2d(8)", torus2d(8), Some((4, false))),
            ("hypercube(5)", hypercube(5), Some((5, false))),
            ("complete(1024)", complete(1024), Some((1023, false))),
            ("binary_tree(10)", binary_tree(10), Some((6, true))),
            ("path(50)", path(50), Some((2, true))),
            ("grid(12x12)", grid(&[12, 12]), Some((12, true))),
            (
                "lazified binary_tree(10)",
                binary_tree(10).lazified(),
                Some((12, true)),
            ),
            ("star(100)", star(100), None),
            ("lollipop(200)", lollipop(200).0, None),
        ]
    }

    #[test]
    fn row_table_follows_the_degrees() {
        for (name, g, table) in walk_graphs() {
            assert_eq!(table_of(&g), table, "{name}");
            if let Some(b) = g.rows {
                let w = b.width() as usize;
                let t = &g.arcs[..g.n() * w];
                for v in g.vertices() {
                    let ns = g.neighbours(v);
                    for r in 0..w {
                        assert_eq!(t[v as usize * w + r], ns[r % ns.len()], "{name} row {v}");
                    }
                }
            }
        }
        // the pad limit: star(5) pads (degrees 1 and 4, n·L = 20 ≤ 4·8),
        // star(10) does not (90 > 4·18); nor does an isolated vertex
        assert_eq!(table_of(&star(5)), Some((4, true)));
        assert_eq!(table_of(&star(10)), None);
        assert_eq!(table_of(&lollipop(16).0), None);
        assert_eq!(table_of(&Graph::from_edges(3, &[(0, 1)])), None);
        assert_eq!(table_of(&Graph::from_edges(1, &[])), None);
    }

    #[test]
    fn step_equals_the_draw() {
        for (name, g, _) in walk_graphs() {
            let mut got = StdRng::seed_from_u64(0x5eed ^ g.n() as u64);
            let mut want = got.clone();
            let mut v = 0;
            for step in 0..100_000 {
                let w = g.random_step(v, &mut got);
                let expect = g.neighbours(v)[want.random_range(0..g.degree(v))];
                assert_eq!(w, expect, "{name}: step {step} from {v}");
                v = w;
            }
            assert_eq!(got.next_u64(), want.next_u64(), "{name}: draws consumed");
        }
    }

    #[test]
    fn declined_draws_take_the_exact_sampler() {
        // draws in the top 64 values of u64, where a row table declines
        // (W not a power of two) and some rows reject and draw again
        let top = (0..64).map(|k| u64::MAX - k);
        for (name, g, _) in walk_graphs() {
            let mut declined = 0;
            for x in top.clone() {
                if g.rows.is_some_and(|b| b.direct(x).is_none()) {
                    declined += 1;
                }
                for v in g.vertices().step_by(g.n().div_ceil(40)) {
                    let mut got = Replay(vec![x, 12345].into_iter());
                    let mut want = Replay(vec![x, 12345].into_iter());
                    let expect = g.neighbours(v)[want.random_range(0..g.degree(v))];
                    assert_eq!(g.random_step(v, &mut got), expect, "{name}: {x} from {v}");
                    assert_eq!(got.0.len(), want.0.len(), "{name}: {x} from {v}: draws");
                }
            }
            let w = g.rows.map_or(1, |b| b.width());
            let expect = if w.is_power_of_two() { 0 } else { w.min(64) };
            assert_eq!(declined, expect, "{name}: declined draws");
        }
    }

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
