//! Effective resistance via Laplacian solves.
//!
//! Treat every edge as a unit resistor. The effective resistance `R(u, v)`
//! satisfies the commute-time identity `t_com(u, v) = 2m · R(u, v)`
//! (used in the proof of Theorem 3.6). Computing it independently of the
//! hitting-time machinery gives a strong cross-check.

use dispersion_graphs::{Graph, Vertex};
use dispersion_linalg::{Lu, Matrix};
use dispersion_solve::CgSettings;

/// Graph Laplacian `L = D − A` as a dense matrix. Self-loops cancel out of
/// the Laplacian (they contribute to neither current flow nor potential).
pub fn laplacian(g: &Graph) -> Matrix {
    let n = g.n();
    let mut l = Matrix::zeros(n, n);
    for u in g.vertices() {
        for &v in g.neighbours(u) {
            if v != u {
                l[(u as usize, u as usize)] += 1.0;
                l[(u as usize, v as usize)] -= 1.0;
            }
        }
    }
    l
}

/// Effective resistance between `u` and `v` by solving `L x = e_u − e_v`
/// with a grounded vertex: dense LU up to 512 states, sparse CG beyond
/// (`u == v` returns 0 without a solve).
///
/// # Panics
///
/// Panics on disconnected graphs (singular LU on the dense path, CG
/// non-convergence on the sparse one).
pub fn effective_resistance(g: &Graph, u: Vertex, v: Vertex) -> f64 {
    if u == v {
        return 0.0;
    }
    if !crate::dense(g.n()) {
        return dispersion_solve::effective_resistance_sparse(g, u, v, &CgSettings::default())
            .expect("grounded Laplacian unsolvable: graph disconnected?");
    }
    let n = g.n();
    assert!(n >= 2);
    // choose a ground distinct from u (grounding is arbitrary)
    let ground = if u as usize == n - 1 || v as usize == n - 1 {
        // pick a vertex different from both; n >= 2 guarantees existence
        (0..n)
            .find(|&w| w != u as usize && w != v as usize)
            .unwrap_or(0)
    } else {
        n - 1
    };
    let l = laplacian(g);
    let keep: Vec<usize> = (0..n).filter(|&w| w != ground).collect();
    let k = keep.len();
    let mut a = Matrix::zeros(k, k);
    for (i, &p) in keep.iter().enumerate() {
        for (j, &q) in keep.iter().enumerate() {
            a[(i, j)] = l[(p, q)];
        }
    }
    let mut b = vec![0.0; k];
    for (i, &p) in keep.iter().enumerate() {
        if p == u as usize {
            b[i] += 1.0;
        }
        if p == v as usize {
            b[i] -= 1.0;
        }
    }
    let x = Lu::factor(&a)
        .expect("grounded Laplacian singular: graph disconnected?")
        .solve(&b);
    let potential = |w: Vertex| -> f64 {
        if w as usize == ground {
            0.0
        } else {
            let i = keep.iter().position(|&p| p == w as usize).unwrap();
            x[i]
        }
    };
    potential(u) - potential(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting::commute_time;
    use crate::transition::WalkKind;
    use dispersion_graphs::generators::{complete, cycle, path, star};

    const TOL: f64 = 1e-8;

    #[test]
    fn series_resistance_on_path() {
        let g = path(5);
        for u in 0..5u32 {
            for v in 0..5u32 {
                let expect = (u as f64 - v as f64).abs();
                assert!((effective_resistance(&g, u, v) - expect).abs() < TOL);
            }
        }
    }

    #[test]
    fn parallel_resistance_on_cycle() {
        // C_n between vertices at distance d: d(n-d)/n.
        let n = 8u32;
        let g = cycle(n as usize);
        for v in 1..n {
            let d = (v.min(n - v)) as f64;
            let expect = d * (n as f64 - d) / n as f64;
            assert!((effective_resistance(&g, 0, v) - expect).abs() < TOL);
        }
    }

    #[test]
    fn complete_graph_resistance() {
        // K_n: R(u,v) = 2/n for u != v.
        let n = 7usize;
        let g = complete(n);
        let r = effective_resistance(&g, 0, 3);
        assert!((r - 2.0 / n as f64).abs() < TOL);
    }

    #[test]
    fn commute_time_identity_holds() {
        // t_com(u,v) = 2m R(u,v) — cross-check of two independent solvers.
        for g in [path(6), cycle(9), star(6), complete(5)] {
            let m = g.m() as f64;
            for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3)] {
                if (v as usize) < g.n() {
                    let lhs = commute_time(&g, WalkKind::Simple, u, v);
                    let rhs = 2.0 * m * effective_resistance(&g, u, v);
                    assert!((lhs - rhs).abs() < 1e-6, "({u},{v}): {lhs} vs {rhs}");
                }
            }
        }
    }

    #[test]
    fn resistance_symmetric() {
        let g = star(6);
        for u in 0..6u32 {
            for v in 0..6u32 {
                let a = effective_resistance(&g, u, v);
                let b = effective_resistance(&g, v, u);
                assert!((a - b).abs() < TOL);
            }
        }
    }

    #[test]
    fn triangle_inequality() {
        // Effective resistance is a metric.
        let g = cycle(7);
        for u in 0..7u32 {
            for v in 0..7u32 {
                for w in 0..7u32 {
                    let ruv = effective_resistance(&g, u, v);
                    let ruw = effective_resistance(&g, u, w);
                    let rwv = effective_resistance(&g, w, v);
                    assert!(ruv <= ruw + rwv + TOL);
                }
            }
        }
    }

    #[test]
    fn backends_agree_on_resistance() {
        for g in [path(7), cycle(9), star(6), complete(6)] {
            for &(u, v) in &[(0u32, 1u32), (0, 4), (2, 5)] {
                let dense = effective_resistance(&g, u, v);
                let sparse =
                    dispersion_solve::effective_resistance_sparse(&g, u, v, &CgSettings::default())
                        .unwrap();
                assert!(
                    (dense - sparse).abs() < 1e-9,
                    "({u},{v}): {dense} vs {sparse}"
                );
            }
        }
    }

    #[test]
    fn loops_do_not_change_resistance() {
        let g = path(4);
        let lz = g.lazified();
        for v in 1..4u32 {
            let a = effective_resistance(&g, 0, v);
            let b = effective_resistance(&lz, 0, v);
            assert!((a - b).abs() < TOL);
        }
    }
}
