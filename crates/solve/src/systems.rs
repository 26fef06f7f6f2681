//! Graph-level sparse solvers: hitting times, effective resistance, and
//! spectral gaps straight from a [`Graph`], no dense matrix in sight.
//!
//! The reductions all run through the grounded Laplacian. For hitting times
//! to a target set `S`, multiply the first-step equations
//! `h(u) = 1 + Σ_w P(u, w)·h(w)` by `deg(u)`: the left side becomes exactly
//! the Laplacian restricted to `V ∖ S` (self-loops cancel) and the right
//! side the degree vector, so one SPD solve replaces the dense
//! `(I − Q)` factorisation. The lazy walk halves `I − Q`, so its hitting
//! times are exactly twice the simple ones (Theorem 4.3's exact identity at
//! the generator level).

use crate::cg::{pcg_jacobi, CgSettings, SolveError};
use crate::lanczos::{lanczos_extremes, SpectrumEdge};
use crate::sparse::SparseMatrix;
use dispersion_graphs::walk::WalkKind;
use dispersion_graphs::{Graph, Vertex};

/// Expected hitting time of `targets` from every vertex (`0` on the targets
/// themselves), via one Jacobi-preconditioned CG solve on the grounded
/// Laplacian — `O(m·√κ)` instead of the dense `O(n³)`.
///
/// # Errors
///
/// [`SolveError`] if CG does not converge (disconnected graph).
///
/// # Panics
///
/// Panics if `targets` is empty or contains an out-of-range vertex.
pub fn hitting_times_to_set_sparse(
    g: &Graph,
    kind: WalkKind,
    targets: &[Vertex],
    settings: &CgSettings,
) -> Result<Vec<f64>, SolveError> {
    assert!(!targets.is_empty(), "need at least one target");
    let n = g.n();
    let mut keep = vec![true; n];
    for &t in targets {
        keep[t as usize] = false;
    }
    if keep.iter().all(|&k| !k) {
        return Ok(vec![0.0; n]);
    }
    let (l, free) = SparseMatrix::grounded_laplacian(g, &keep);
    // RHS: deg(u)·1 (full degree, self-loops included — they cancel from L
    // but not from the step count), doubled for the lazy walk
    let lazy_factor = match kind {
        WalkKind::Simple => 1.0,
        WalkKind::Lazy => 2.0,
    };
    let b: Vec<f64> = free
        .iter()
        .map(|&u| lazy_factor * g.degree(u) as f64)
        .collect();
    let h = pcg_jacobi(&l, &b, settings)?;
    let mut out = vec![0.0; n];
    for (i, &u) in free.iter().enumerate() {
        out[u as usize] = h[i];
    }
    Ok(out)
}

/// Effective resistance `R(u, v)` by a grounded-Laplacian CG solve of
/// `L x = e_u − e_v` (unit resistors on every edge, Theorem 3.6's
/// commute-time quantity).
///
/// # Errors
///
/// [`SolveError`] if CG does not converge (disconnected graph).
///
/// # Panics
///
/// Panics if a vertex is out of range or `n < 2` with `u != v`.
pub fn effective_resistance_sparse(
    g: &Graph,
    u: Vertex,
    v: Vertex,
    settings: &CgSettings,
) -> Result<f64, SolveError> {
    if u == v {
        return Ok(0.0);
    }
    let n = g.n();
    assert!(n >= 2, "resistance needs at least two vertices");
    // ground any vertex other than u (the choice is arbitrary); on a
    // 2-vertex graph that is v itself, which the potential lookup below
    // handles as 0
    let ground = (0..n)
        .rev()
        .find(|&w| w != u as usize && w != v as usize)
        .unwrap_or(v as usize);
    let mut keep = vec![true; n];
    keep[ground] = false;
    let (l, free) = SparseMatrix::grounded_laplacian(g, &keep);
    let mut b = vec![0.0; free.len()];
    let mut iu = usize::MAX;
    let mut iv = usize::MAX;
    for (i, &w) in free.iter().enumerate() {
        if w == u {
            b[i] = 1.0;
            iu = i;
        } else if w == v {
            b[i] = -1.0;
            iv = i;
        }
    }
    let x = pcg_jacobi(&l, &b, settings)?;
    let pot = |i: usize| if i == usize::MAX { 0.0 } else { x[i] };
    Ok(pot(iu) - pot(iv))
}

/// `λ₂` and `λ_min` of the walk operator (via the similar symmetric
/// `N = D^{-1/2} A D^{-1/2}`), by Lanczos with the stationary eigenvector
/// `φ ∝ D^{1/2}·1` deflated. Check [`SpectrumEdge::converged`]: when it is
/// `false` (step cap hit on a huge, near-degenerate spectrum), the extremes
/// are Ritz estimates that approach `λ₂`/`λ_min` from inside the spectrum,
/// so a derived "upper bound" (relaxation time, Lemma C.2) may be slightly
/// low. The scalar helpers below print a one-line stderr warning in that
/// case rather than fail.
///
/// # Panics
///
/// Panics if `n < 2` or some vertex is isolated.
fn walk_spectrum_edge_sparse(g: &Graph, kind: WalkKind) -> SpectrumEdge {
    let n = g.n();
    assert!(n >= 2, "spectral gap needs at least two vertices");
    let a = SparseMatrix::normalized_adjacency(g, kind);
    let mut phi: Vec<f64> = g.vertices().map(|v| (g.degree(v) as f64).sqrt()).collect();
    let norm = phi.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in &mut phi {
        *x /= norm;
    }
    lanczos_extremes(&a, &[phi], None)
}

fn spectrum_edge_warned(g: &Graph, kind: WalkKind) -> SpectrumEdge {
    let edge = walk_spectrum_edge_sparse(g, kind);
    if !edge.converged {
        eprintln!(
            "# warning: Lanczos hit its step cap after {} steps on n={}; \
             spectral edge is a best-effort Ritz estimate",
            edge.steps,
            g.n()
        );
    }
    edge
}

/// Second-largest walk eigenvalue `λ₂` (sparse Lanczos estimate; warns on
/// stderr if the iteration hit its step cap before going stationary).
pub fn lambda2_sparse(g: &Graph, kind: WalkKind) -> f64 {
    spectrum_edge_warned(g, kind).max
}

/// `λ* = max(|λ₂|, |λ_n|)` — the paper's expander quantity (sparse Lanczos
/// estimate; warns on stderr if unconverged).
pub fn lambda_star_sparse(g: &Graph, kind: WalkKind) -> f64 {
    let edge = spectrum_edge_warned(g, kind);
    edge.max.abs().max(edge.min.abs())
}

/// Spectral gap `1 − λ*` of the walk, clamped into `[0, 2]` to absorb the
/// last-digit noise of the iterative estimate.
pub fn spectral_gap_sparse(g: &Graph, kind: WalkKind) -> f64 {
    (1.0 - lambda_star_sparse(g, kind)).clamp(0.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, hypercube, path, star};
    use dispersion_graphs::Graph;

    const TOL: f64 = 1e-9;

    fn default_settings() -> CgSettings {
        CgSettings::default()
    }

    #[test]
    fn path_end_to_end_hitting() {
        // P_n: t_hit(0, n-1) = (n-1)²
        for n in [2usize, 5, 17, 120] {
            let g = path(n);
            let h = hitting_times_to_set_sparse(
                &g,
                WalkKind::Simple,
                &[(n - 1) as Vertex],
                &default_settings(),
            )
            .unwrap();
            let expect = ((n - 1) * (n - 1)) as f64;
            assert!(
                (h[0] - expect).abs() <= TOL * expect.max(1.0),
                "n={n}: {} vs {expect}",
                h[0]
            );
        }
    }

    #[test]
    fn lazy_hitting_doubles_simple() {
        let g = cycle(9);
        let s =
            hitting_times_to_set_sparse(&g, WalkKind::Simple, &[4], &default_settings()).unwrap();
        let l = hitting_times_to_set_sparse(&g, WalkKind::Lazy, &[4], &default_settings()).unwrap();
        for (a, b) in s.iter().zip(&l) {
            assert!((2.0 * a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn whole_vertex_set_hits_instantly() {
        let g = star(5);
        let all: Vec<Vertex> = g.vertices().collect();
        let h =
            hitting_times_to_set_sparse(&g, WalkKind::Simple, &all, &default_settings()).unwrap();
        assert!(h.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn disconnected_hitting_fails() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let err = hitting_times_to_set_sparse(&g, WalkKind::Simple, &[0], &default_settings());
        assert!(err.is_err());
    }

    #[test]
    fn series_and_parallel_resistance() {
        let g = path(9);
        for v in 1..9u32 {
            let r = effective_resistance_sparse(&g, 0, v, &default_settings()).unwrap();
            assert!((r - v as f64).abs() < TOL);
        }
        let n = 10u32;
        let c = cycle(n as usize);
        for v in 1..n {
            let d = v.min(n - v) as f64;
            let expect = d * (n as f64 - d) / n as f64;
            let r = effective_resistance_sparse(&c, 0, v, &default_settings()).unwrap();
            assert!((r - expect).abs() < TOL);
        }
    }

    #[test]
    fn resistance_on_two_vertex_graph() {
        // n == 2 forces grounding at v itself
        let g = path(2);
        let r = effective_resistance_sparse(&g, 0, 1, &default_settings()).unwrap();
        assert!((r - 1.0).abs() < TOL);
        let multi = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        let r = effective_resistance_sparse(&multi, 0, 1, &default_settings()).unwrap();
        assert!((r - 0.5).abs() < TOL);
    }

    #[test]
    fn resistance_on_clique() {
        let n = 40;
        let g = complete(n);
        let r = effective_resistance_sparse(&g, 1, 7, &default_settings()).unwrap();
        assert!((r - 2.0 / n as f64).abs() < TOL);
    }

    #[test]
    fn spectral_gap_known_families() {
        // K_n simple walk: λ₂ = λ_n = -1/(n-1) → λ* = 1/(n-1)
        let n = 16;
        let gap = spectral_gap_sparse(&complete(n), WalkKind::Simple);
        assert!(
            (gap - (1.0 - 1.0 / (n as f64 - 1.0))).abs() < 1e-9,
            "gap {gap}"
        );
        // lazy hypercube H_{2^k}: gap = 1/k
        for k in [3usize, 5] {
            let gap = spectral_gap_sparse(&hypercube(k), WalkKind::Lazy);
            assert!((gap - 1.0 / k as f64).abs() < 1e-9, "k={k}: {gap}");
        }
        // cycle: λ₂ = cos(2π/n)
        let n = 12;
        let l2 = lambda2_sparse(&cycle(n), WalkKind::Simple);
        let expect = (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((l2 - expect).abs() < 1e-9, "{l2} vs {expect}");
    }

    #[test]
    fn bipartite_simple_walk_has_zero_gap() {
        // path is bipartite: λ_n = -1 for the simple walk
        let gap = spectral_gap_sparse(&path(8), WalkKind::Simple);
        assert!(gap.abs() < 1e-9, "gap {gap}");
    }
}
