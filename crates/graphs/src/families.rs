//! The named graph families of Table 1, behind one enum so experiment
//! drivers can sweep families uniformly.

use crate::generators::{basic, composite, grid, hypercube, random, tree};
use crate::graph::{Graph, Vertex};
use crate::topology::{self, Implicit};
use rand::Rng;

/// A graph family from Table 1 of the paper (plus the gadget families used
/// by its counterexamples).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Path `P_n` — dispersion `κ_p · n² log n`.
    Path,
    /// Cycle `C_n` — dispersion `Θ(n² log n)`.
    Cycle,
    /// Two-dimensional torus — between `Ω(n log n)` and `O(n log² n)`.
    Torus2d,
    /// Three-dimensional torus — `Θ(n)`.
    Torus3d,
    /// Hypercube `H_{2^k}` — `Θ(n)`.
    Hypercube,
    /// Complete binary tree — `Θ(n log² n)`.
    BinaryTree,
    /// Complete graph `K_n` — `t_seq ∼ κ_cc n`, `t_par ∼ (π²/6) n`.
    Complete,
    /// Random `d`-regular expander — `Θ(n)`.
    RandomRegular(usize),
    /// Star `S_n` — tree lower-bound witness.
    Star,
    /// Lollipop — worst case `Ω(n³ log n)`.
    Lollipop,
}

/// A concrete instance: a graph plus the origin vertex the paper's analysis
/// starts the process from.
pub struct Instance {
    /// Human-readable label, e.g. `"cycle"`.
    pub label: &'static str,
    /// The graph.
    pub graph: Graph,
    /// Origin vertex for the dispersion process.
    pub origin: Vertex,
}

impl Family {
    /// Short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Torus2d => "grid2d",
            Family::Torus3d => "grid3d",
            Family::Hypercube => "hypercube",
            Family::BinaryTree => "btree",
            Family::Complete => "clique",
            Family::RandomRegular(_) => "expander",
            Family::Star => "star",
            Family::Lollipop => "lollipop",
        }
    }

    /// Whether [`Family::instance`] draws from its RNG, so that two seeds
    /// can build different graphs. Exhaustive on purpose: a new random
    /// family must answer here, or callers that share instances across
    /// seeds would share it silently.
    pub fn is_random(self) -> bool {
        match self {
            Family::RandomRegular(_) => true,
            Family::Path
            | Family::Cycle
            | Family::Torus2d
            | Family::Torus3d
            | Family::Hypercube
            | Family::BinaryTree
            | Family::Complete
            | Family::Star
            | Family::Lollipop => false,
        }
    }

    /// Builds an instance with *approximately* `n` vertices (families with
    /// structural constraints round to the nearest feasible size).
    ///
    /// The origin follows the paper's conventions: path endpoint, tree root,
    /// lollipop clique vertex; symmetric graphs use vertex 0.
    pub fn instance<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> Instance {
        let label = self.label();
        match self {
            Family::Path => Instance {
                label,
                graph: basic::path(n),
                origin: 0,
            },
            Family::Cycle => Instance {
                label,
                graph: basic::cycle(n),
                origin: 0,
            },
            Family::Torus2d => Instance {
                label,
                graph: grid::torus2d(torus2d_side(n)),
                origin: 0,
            },
            Family::Torus3d => {
                let s = (n as f64).cbrt().round().max(2.0) as usize;
                Instance {
                    label,
                    graph: grid::torus3d(s),
                    origin: 0,
                }
            }
            Family::Hypercube => Instance {
                label,
                graph: hypercube::hypercube(hypercube_dim(n)),
                origin: 0,
            },
            Family::BinaryTree => {
                let levels = ((n + 1) as f64).log2().round().max(1.0) as usize;
                Instance {
                    label,
                    graph: tree::binary_tree(levels),
                    origin: tree::BINARY_TREE_ROOT,
                }
            }
            Family::Complete => Instance {
                label,
                graph: basic::complete(n),
                origin: 0,
            },
            Family::RandomRegular(d) => {
                // ensure n*d even
                let n = if n * d % 2 == 1 { n + 1 } else { n };
                Instance {
                    label,
                    graph: random::random_regular_connected(n, d, rng),
                    origin: 0,
                }
            }
            Family::Star => Instance {
                label,
                graph: basic::star(n),
                origin: 0,
            },
            Family::Lollipop => {
                let (graph, origin, _, _) = composite::lollipop(n);
                Instance {
                    label,
                    graph,
                    origin,
                }
            }
        }
    }

    /// Closed-form implicit [`Topology`](crate::Topology) for the families
    /// that admit one, sized with the **same rounding rules** as
    /// [`Family::instance`] so implicit and explicit sweeps line up
    /// row-for-row. Families without closed-form neighbour math
    /// (trees, expanders, gadgets) return `None`.
    pub fn implicit(self, n: usize) -> Option<Implicit> {
        match self {
            Family::Path => Some(Implicit::Path(topology::Path::new(n))),
            Family::Cycle => Some(Implicit::Cycle(topology::Cycle::new(n))),
            Family::Torus2d => Some(Implicit::Torus2d(topology::Torus2d::new(torus2d_side(n)))),
            Family::Hypercube => Some(Implicit::Hypercube(topology::Hypercube::new(
                hypercube_dim(n),
            ))),
            Family::Complete => Some(Implicit::Complete(topology::Complete::new(n))),
            _ => None,
        }
    }

    /// The bytes of the row table a walk on the CSR graph of
    /// [`Family::instance`]`(n)` reads: one row per vertex, as wide as the
    /// family's degree bound (2 on the path and cycle, 4 on the torus, `k`
    /// on the `k`-cube), one [`Vertex`] a slot. Defined for the families
    /// whose [`Family::implicit`] form has a degree bound; `None` for the
    /// others and for a size whose table would overflow `usize`. The
    /// clique's `None` means its rows are unbounded: a spec cell walks its
    /// closed form on either backend, never its `n²` arcs. Builds nothing.
    pub fn row_table_bytes(self, n: usize) -> Option<usize> {
        let (vertices, width) = match self {
            Family::Path | Family::Cycle => (n, 2),
            Family::Torus2d => {
                let s = torus2d_side(n);
                (s.checked_mul(s)?, 4)
            }
            Family::Hypercube => {
                let k = hypercube_dim(n);
                (1usize.checked_shl(u32::try_from(k).ok()?)?, k)
            }
            _ => return None,
        };
        vertices.checked_mul(width * size_of::<Vertex>())
    }

    /// The Table 1 families in paper order.
    pub fn table1() -> Vec<Family> {
        vec![
            Family::Path,
            Family::Cycle,
            Family::Torus2d,
            Family::Torus3d,
            Family::Hypercube,
            Family::BinaryTree,
            Family::Complete,
            Family::RandomRegular(5),
        ]
    }
}

/// The side of the square torus sized `n`: `√n` rounded, at least 2.
fn torus2d_side(n: usize) -> usize {
    (n as f64).sqrt().round().max(2.0) as usize
}

/// The dimension of the hypercube sized `n`: `log₂ n` rounded, at least 1.
fn hypercube_dim(n: usize) -> usize {
    (n as f64).log2().round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_families_build_connected_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for fam in Family::table1() {
            let inst = fam.instance(64, &mut rng);
            assert!(
                is_connected(&inst.graph),
                "{} instance disconnected",
                inst.label
            );
            assert!((inst.origin as usize) < inst.graph.n());
            assert!(inst.graph.n() >= 8, "{} too small", inst.label);
        }
    }

    #[test]
    fn sizes_approximately_requested() {
        let mut rng = StdRng::seed_from_u64(8);
        for fam in Family::table1() {
            let inst = fam.instance(256, &mut rng);
            let n = inst.graph.n() as f64;
            assert!(
                (n - 256.0).abs() / 256.0 < 0.5,
                "{}: got n = {n}, wanted ≈256",
                inst.label
            );
        }
    }

    #[test]
    fn only_random_families_read_the_seed() {
        let mut families = Family::table1();
        families.extend([Family::Star, Family::Lollipop]);
        for fam in families {
            let a = fam.instance(64, &mut StdRng::seed_from_u64(1)).graph;
            let b = fam.instance(64, &mut StdRng::seed_from_u64(2)).graph;
            assert_eq!(a != b, fam.is_random(), "{}", fam.label());
        }
    }

    #[test]
    fn expander_odd_nd_fixed_up() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = Family::RandomRegular(3).instance(33, &mut rng);
        assert_eq!(inst.graph.n() % 2, 0);
    }

    #[test]
    fn row_table_bytes_count_the_regular_arcs() {
        let mut rng = StdRng::seed_from_u64(1);
        for (fam, n) in [
            (Family::Cycle, 40),
            (Family::Torus2d, 1000),
            (Family::Hypercube, 512),
        ] {
            let g = fam.instance(n, &mut rng).graph;
            let bytes = 2 * g.m() * size_of::<Vertex>();
            assert_eq!(fam.row_table_bytes(n), Some(bytes), "{}", fam.label());
        }
        assert_eq!(Family::Path.row_table_bytes(10), Some(80));
        assert_eq!(Family::Complete.row_table_bytes(64), None);
        assert_eq!(Family::BinaryTree.row_table_bytes(63), None);
        assert_eq!(Family::Hypercube.row_table_bytes(usize::MAX), None);
        assert_eq!(Family::Torus2d.row_table_bytes(usize::MAX), None);
    }

    #[test]
    fn labels_distinct() {
        let labels: Vec<_> = Family::table1().iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
