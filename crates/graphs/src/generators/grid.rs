//! d-dimensional grids and tori.
//!
//! Table 1 distinguishes the 2-dimensional grid (dispersion between
//! `Ω(n log n)` and `O(n log² n)`, Open Problem 1) from `d > 2` where the
//! dispersion time is `Θ(n)`.

use crate::builder::csr_from_edges;
use crate::graph::{Graph, Vertex};

/// Converts multi-index `coords` (length `d`) to a linear vertex id for side
/// lengths `dims`.
pub fn index_of(coords: &[usize], dims: &[usize]) -> Vertex {
    debug_assert_eq!(coords.len(), dims.len());
    let mut idx = 0usize;
    for (c, d) in coords.iter().zip(dims) {
        debug_assert!(c < d);
        idx = idx * d + c;
    }
    idx as Vertex
}

/// Inverse of [`index_of`].
pub fn coords_of(mut v: usize, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; dims.len()];
    for i in (0..dims.len()).rev() {
        coords[i] = v % dims[i];
        v /= dims[i];
    }
    coords
}

fn lattice(dims: &[usize], wrap: bool) -> Graph {
    assert!(!dims.is_empty(), "need at least one dimension");
    assert!(
        dims.iter().all(|&d| d > 0),
        "all side lengths must be positive"
    );
    let n: usize = dims.iter().product();
    // the id step of one unit along each axis in row-major order
    let strides: Vec<usize> = (0..dims.len())
        .map(|axis| dims[axis + 1..].iter().product())
        .collect();
    csr_from_edges(n, |edge| {
        let mut coords = vec![0usize; dims.len()];
        for u in 0..n {
            // enumerate coords incrementally (row-major order)
            debug_assert_eq!(index_of(&coords, dims) as usize, u);
            for (axis, (&side, &stride)) in dims.iter().zip(&strides).enumerate() {
                if coords[axis] + 1 < side {
                    edge(u as Vertex, (u + stride) as Vertex);
                } else if wrap && side > 2 {
                    // wrap-around edge; skipped for side <= 2 to avoid doubling
                    edge(u as Vertex, (u - coords[axis] * stride) as Vertex);
                }
            }
            // increment coords
            for axis in (0..dims.len()).rev() {
                coords[axis] += 1;
                if coords[axis] < dims[axis] {
                    break;
                }
                coords[axis] = 0;
            }
        }
    })
}

/// Axis-aligned grid (box) with the given side lengths; `n = Π dims`.
pub fn grid(dims: &[usize]) -> Graph {
    lattice(dims, false)
}

/// Torus with the given side lengths (periodic boundary). Sides of length 2
/// are treated as a single edge (no parallel wrap edge), keeping the graph
/// simple.
pub fn torus(dims: &[usize]) -> Graph {
    lattice(dims, true)
}

/// Square 2-d torus of side `s` (`n = s²`).
pub fn torus2d(s: usize) -> Graph {
    torus(&[s, s])
}

/// Cubic 3-d torus of side `s` (`n = s³`).
pub fn torus3d(s: usize) -> Graph {
    torus(&[s, s, s])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::traversal::is_connected;

    #[test]
    fn grid2d_shape() {
        let g = grid(&[4, 4]);
        assert_eq!(g.n(), 16);
        // edges: 2 * s * (s-1) = 24
        assert_eq!(g.m(), 24);
        assert!(is_connected(&g));
        // corner degree 2, edge degree 3, inner degree 4
        assert_eq!(g.degree(index_of(&[0, 0], &[4, 4])), 2);
        assert_eq!(g.degree(index_of(&[0, 1], &[4, 4])), 3);
        assert_eq!(g.degree(index_of(&[1, 1], &[4, 4])), 4);
    }

    #[test]
    fn torus2d_regular() {
        let g = torus2d(5);
        assert_eq!(g.n(), 25);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.m(), 50);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus3d_regular_degree6() {
        let g = torus3d(3);
        assert_eq!(g.n(), 27);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 6);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_side2_has_no_parallel_edges() {
        let g = torus(&[2, 2]);
        // 2x2 torus with collapsing: a 4-cycle
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn one_dimensional_grid_is_path_torus_is_cycle() {
        let g = grid(&[7]);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 1);
        let t = torus(&[7]);
        assert_eq!(t.m(), 7);
        assert!(t.is_regular());
    }

    #[test]
    fn coords_roundtrip() {
        let dims = [3usize, 4, 5];
        for v in 0..60usize {
            let c = coords_of(v, &dims);
            assert_eq!(index_of(&c, &dims) as usize, v);
        }
    }

    #[test]
    fn rows_match_the_builder_order() {
        // the edges in the order the lattice enumerates them, one at a time
        // through the builder, which lays rows out in insertion order
        for (dims, wrap) in [
            (vec![5, 5], true),
            (vec![2, 3, 4], true),
            (vec![3, 1, 4], true),
            (vec![4, 3], false),
        ] {
            let n: usize = dims.iter().product();
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                let coords = coords_of(u, &dims);
                for axis in 0..dims.len() {
                    let mut c2 = coords.clone();
                    if coords[axis] + 1 < dims[axis] {
                        c2[axis] += 1;
                    } else if wrap && dims[axis] > 2 {
                        c2[axis] = 0;
                    } else {
                        continue;
                    }
                    b.add_edge(u as Vertex, index_of(&c2, &dims));
                }
            }
            assert_eq!(lattice(&dims, wrap), b.build(), "{dims:?} wrap {wrap}");
        }
    }

    #[test]
    fn rectangular_grid_connected() {
        let g = grid(&[2, 3, 4]);
        assert_eq!(g.n(), 24);
        assert!(is_connected(&g));
    }
}
