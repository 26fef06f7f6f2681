//! Exact expected hitting times via linear solves.
//!
//! `t_hit(u, v) = E[τ_hit(u, v)]` satisfies, for `u ≠ v`,
//! `h(u) = 1 + Σ_w P(u, w) h(w)` with `h(v) = 0`, i.e. `(I − Q) h = 1` where
//! `Q` is `P` with the target row and column deleted. For all-pairs we use
//! the fundamental matrix `Z = (I − P + 1π)⁻¹`, giving
//! `t_hit(u, v) = (Z[v, v] − Z[u, v]) / π(v)` with a single `O(n³)` inverse.
//!
//! Single-target/set solves also run on the sparse CG engine
//! (`dispersion-solve`): the `_with` variants take a [`Solver`], and the
//! plain functions use [`Solver::Auto`], which switches from dense LU to
//! sparse CG above 512 states.

use crate::stationary::stationary;
use crate::transition::{transition_matrix, WalkKind};
use dispersion_graphs::{Graph, Vertex};
use dispersion_linalg::{Lu, Matrix};
use dispersion_solve::{CgSettings, Solver};

/// Expected hitting time of the set `targets` from every vertex
/// (`0` on the targets themselves), on the automatically chosen backend.
///
/// # Panics
///
/// Panics if `targets` is empty or the complement system is singular
/// (disconnected graph).
pub fn hitting_times_to_set(g: &Graph, kind: WalkKind, targets: &[Vertex]) -> Vec<f64> {
    hitting_times_to_set_with(g, kind, targets, Solver::Auto)
}

/// [`hitting_times_to_set`] on an explicit [`Solver`] backend.
///
/// # Panics
///
/// Panics if `targets` is empty or the system cannot be solved
/// (disconnected graph: singular LU on [`Solver::Dense`], CG
/// non-convergence on [`Solver::SparseCg`]).
pub fn hitting_times_to_set_with(
    g: &Graph,
    kind: WalkKind,
    targets: &[Vertex],
    solver: Solver,
) -> Vec<f64> {
    match solver.resolve(g.n()) {
        Solver::SparseCg => {
            dispersion_solve::hitting_times_to_set_sparse(g, kind, targets, &CgSettings::default())
                .expect("hitting-time system unsolvable: graph disconnected?")
        }
        _ => hitting_times_to_set_dense(g, kind, targets),
    }
}

fn hitting_times_to_set_dense(g: &Graph, kind: WalkKind, targets: &[Vertex]) -> Vec<f64> {
    assert!(!targets.is_empty(), "need at least one target");
    let n = g.n();
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t as usize] = true;
    }
    // enumerate non-target states
    let free: Vec<usize> = (0..n).filter(|&v| !is_target[v]).collect();
    let mut index_of = vec![usize::MAX; n];
    for (i, &v) in free.iter().enumerate() {
        index_of[v] = i;
    }
    let k = free.len();
    if k == 0 {
        return vec![0.0; n];
    }
    let p = transition_matrix(g, kind);
    // I - Q over the free states
    let mut a = Matrix::zeros(k, k);
    for (i, &u) in free.iter().enumerate() {
        for (j, &v) in free.iter().enumerate() {
            let q = p[(u, v)];
            a[(i, j)] = if i == j { 1.0 - q } else { -q };
        }
    }
    let lu = Lu::factor(&a).expect("hitting-time system singular: graph disconnected?");
    let h = lu.solve(&vec![1.0; k]);
    let mut out = vec![0.0; n];
    for (i, &v) in free.iter().enumerate() {
        out[v] = h[i];
    }
    out
}

/// Expected hitting time from `u` to `v`, by one linear solve.
// LINT: unused-pub-ok — the single-pair reference that hitting::tests checks
// `all_pairs_hitting` against (and the crate example's entry point)
pub fn hitting_time(g: &Graph, kind: WalkKind, u: Vertex, v: Vertex) -> f64 {
    if u == v {
        return 0.0;
    }
    hitting_times_to_set(g, kind, &[v])[u as usize]
}

/// All-pairs hitting-time matrix `H[u][v] = t_hit(u, v)` via the fundamental
/// matrix (one `O(n³)` inverse).
///
/// # Panics
///
/// Panics on disconnected graphs.
pub fn all_pairs_hitting(g: &Graph, kind: WalkKind) -> Matrix {
    let n = g.n();
    let p = transition_matrix(g, kind);
    let pi = stationary(g);
    // A = I - P + 1π
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = (if i == j { 1.0 } else { 0.0 }) - p[(i, j)] + pi[j];
        }
    }
    let z = Lu::factor(&a)
        .expect("fundamental matrix singular: graph disconnected?")
        .inverse();
    Matrix::from_fn(n, n, |u, v| (z[(v, v)] - z[(u, v)]) / pi[v])
}

/// The worst-case hitting time `t_hit(G) = max_{u,v} t_hit(u, v)`.
pub fn max_hitting_time(g: &Graph, kind: WalkKind) -> f64 {
    let h = all_pairs_hitting(g, kind);
    let mut best: f64 = 0.0;
    for u in 0..g.n() {
        for v in 0..g.n() {
            best = best.max(h[(u, v)]);
        }
    }
    best
}

/// Commute time `t_com(u, v) = t_hit(u, v) + t_hit(v, u)`, by two
/// single-target solves.
pub fn commute_time(g: &Graph, kind: WalkKind, u: Vertex, v: Vertex) -> f64 {
    hitting_time(g, kind, u, v) + hitting_time(g, kind, v, u)
}

/// Expected hitting time of set `S` when the start is drawn from the
/// distribution `mu` (the paper's `t_hit(μ, S)`; use the stationary
/// distribution for `t_hit(π, S)`).
///
/// # Panics
///
/// Panics if `mu` is not a distribution over `V` within `1e-9`.
fn hitting_time_from_distribution(g: &Graph, kind: WalkKind, mu: &[f64], set: &[Vertex]) -> f64 {
    assert_eq!(mu.len(), g.n());
    let total: f64 = mu.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "mu must sum to 1, got {total}");
    let h = hitting_times_to_set(g, kind, set);
    mu.iter().zip(&h).map(|(m, hh)| m * hh).sum()
}

/// `t_hit(π, S)`: expected time to hit `S` from stationarity.
pub fn hitting_time_from_stationary(g: &Graph, kind: WalkKind, set: &[Vertex]) -> f64 {
    hitting_time_from_distribution(g, kind, &stationary(g), set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, path, star};

    const TOL: f64 = 1e-8;

    #[test]
    fn complete_graph_hitting_is_n_minus_1() {
        // K_n: hitting time between distinct vertices is n-1.
        let g = complete(6);
        for u in 0..6u32 {
            for v in 0..6u32 {
                let expect = if u == v { 0.0 } else { 5.0 };
                assert!((hitting_time(&g, WalkKind::Simple, u, v) - expect).abs() < TOL);
            }
        }
    }

    #[test]
    fn path_end_to_end_is_n_minus_1_squared() {
        // P_n: t_hit(0, n-1) = (n-1)^2.
        for n in [2usize, 3, 5, 8] {
            let g = path(n);
            let h = hitting_time(&g, WalkKind::Simple, 0, (n - 1) as Vertex);
            let expect = ((n - 1) * (n - 1)) as f64;
            assert!((h - expect).abs() < TOL, "n={n}: {h} vs {expect}");
        }
    }

    #[test]
    fn cycle_antipodal() {
        // C_n: t_hit(u, v) = d(n-d) for graph distance d.
        let n = 8;
        let g = cycle(n);
        for v in 1..n as Vertex {
            let d = (v as usize).min(n - v as usize) as f64;
            let expect = d * (n as f64 - d);
            let h = hitting_time(&g, WalkKind::Simple, 0, v);
            assert!((h - expect).abs() < TOL, "v={v}: {h} vs {expect}");
        }
    }

    #[test]
    fn lazy_doubles_hitting_times() {
        let g = cycle(7);
        for v in 1..7u32 {
            let hs = hitting_time(&g, WalkKind::Simple, 0, v);
            let hl = hitting_time(&g, WalkKind::Lazy, 0, v);
            assert!((hl - 2.0 * hs).abs() < TOL);
        }
    }

    #[test]
    fn all_pairs_matches_direct_solve() {
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            for g in [path(7), star(6), cycle(9)] {
                let ap = all_pairs_hitting(&g, kind);
                for u in g.vertices() {
                    for v in g.vertices() {
                        let direct = hitting_time(&g, kind, u, v);
                        assert!(
                            (ap[(u as usize, v as usize)] - direct).abs() < 1e-6,
                            "({u},{v}): {} vs {direct}",
                            ap[(u as usize, v as usize)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn star_hitting_times() {
        // Star: centre→leaf = 2n-3; leaf→centre = 1.
        let n = 7;
        let g = star(n);
        assert!((hitting_time(&g, WalkKind::Simple, 1, 0) - 1.0).abs() < TOL);
        let expect = (2 * n - 3) as f64;
        assert!((hitting_time(&g, WalkKind::Simple, 0, 1) - expect).abs() < TOL);
    }

    #[test]
    fn commute_time_identity_on_tree_edge() {
        // Commute time across an edge of a tree = 2m * R(u,v) = 2m (unit
        // resistance per edge).
        let g = path(6);
        let m = g.m() as f64;
        for v in 0..5u32 {
            let c = commute_time(&g, WalkKind::Simple, v, v + 1);
            assert!((c - 2.0 * m).abs() < TOL, "edge ({v},{}): {c}", v + 1);
        }
    }

    #[test]
    fn essential_edge_lemma_on_trees() {
        // Aldous–Fill Lemma 5.1 (used by Theorem 3.7): for a tree edge
        // {u,v}, t_hit(u,v) = 2|A(u,v)| - 1 where A is u's component after
        // removing the edge.
        let g = path(6);
        // edge (2,3): component of 2 is {0,1,2} → 2*3-1 = 5
        let h = hitting_time(&g, WalkKind::Simple, 2, 3);
        assert!((h - 5.0).abs() < TOL);
    }

    #[test]
    fn set_hitting_less_than_single() {
        let g = cycle(10);
        let single = hitting_times_to_set(&g, WalkKind::Simple, &[5]);
        let pair = hitting_times_to_set(&g, WalkKind::Simple, &[5, 6]);
        for v in 0..10 {
            assert!(pair[v] <= single[v] + TOL);
        }
    }

    #[test]
    fn hitting_from_stationary_complete_graph() {
        // K_n from stationarity: Pr[hit {v} per step] = (n-1)/n * 1/(n-1)
        // = 1/n if not already there... direct value: pi(v)*0 + (1-pi(v))*(n-1).
        let n = 8usize;
        let g = complete(n);
        let t = hitting_time_from_stationary(&g, WalkKind::Simple, &[0]);
        let expect = (1.0 - 1.0 / n as f64) * (n as f64 - 1.0);
        assert!((t - expect).abs() < TOL, "{t} vs {expect}");
    }

    #[test]
    fn whole_vertex_set_hits_instantly() {
        let g = cycle(5);
        let all: Vec<Vertex> = g.vertices().collect();
        let h = hitting_times_to_set(&g, WalkKind::Simple, &all);
        assert!(h.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn max_hitting_time_path() {
        let g = path(9);
        let t = max_hitting_time(&g, WalkKind::Simple);
        assert!((t - 64.0).abs() < 1e-6);
    }

    #[test]
    fn backends_agree_on_set_hitting() {
        use dispersion_solve::Solver;
        let g = cycle(11);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let dense = hitting_times_to_set_with(&g, kind, &[3, 7], Solver::Dense);
            let sparse = hitting_times_to_set_with(&g, kind, &[3, 7], Solver::SparseCg);
            for (a, b) in dense.iter().zip(&sparse) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
