//! BFS-based structural queries: connectivity, distances, diameter,
//! bipartiteness, tree test.

use crate::graph::{Graph, Vertex};
use std::collections::VecDeque;

/// BFS distances from `src`; unreachable vertices get `usize::MAX`.
pub fn bfs_distances(g: &Graph, src: Vertex) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbours(u) {
            if dist[v as usize] == usize::MAX {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Whether the graph is connected (vacuously true for `n <= 1`).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != usize::MAX)
}

/// Double-sweep diameter bounds `(lower, upper)` in three BFS passes
/// (`O(m)`), for callers that only need a scale estimate and cannot afford
/// an `O(n·m)` all-pairs BFS — e.g. diagnostics while building the
/// `n ≥ 10⁵` instances the sparse solvers unlock.
///
/// The lower bound is the best eccentricity seen (exact on trees, where the
/// double sweep provably finds a diametral pair); the upper bound is twice
/// the smallest eccentricity seen, since `diam ≤ 2·ecc(v)` for every `v`.
/// Returns `None` on disconnected graphs.
pub fn diameter_bounds(g: &Graph) -> Option<(usize, usize)> {
    if g.n() <= 1 {
        return Some((0, 0));
    }
    // sweep 1: from an arbitrary vertex to its farthest vertex u
    let d0 = bfs_distances(g, 0);
    if d0.contains(&usize::MAX) {
        return None;
    }
    let ecc0 = *d0.iter().max().unwrap();
    let u = d0.iter().position(|&d| d == ecc0).unwrap() as Vertex;
    // sweep 2: ecc(u) is the classic double-sweep lower bound
    let du = bfs_distances(g, u);
    let ecc_u = *du.iter().max().unwrap();
    let w = du.iter().position(|&d| d == ecc_u).unwrap() as Vertex;
    // sweep 3: the far endpoint's eccentricity can only tighten both sides
    let dw = bfs_distances(g, w);
    let ecc_w = *dw.iter().max().unwrap();
    let lower = ecc0.max(ecc_u).max(ecc_w);
    let upper = 2 * ecc0.min(ecc_u).min(ecc_w);
    if lower == upper || is_tree(g) {
        return Some((lower, lower));
    }
    Some((lower, upper))
}

/// Whether the graph is bipartite (no odd cycle). Self-loops make a graph
/// non-bipartite.
///
/// Bipartiteness matters here because the *non-lazy* walk on a bipartite
/// graph is periodic; Section 3.1.1 of the paper switches to lazy walks for
/// exactly this reason.
pub fn is_bipartite(g: &Graph) -> bool {
    let mut colour = vec![u8::MAX; g.n()];
    for start in g.vertices() {
        if colour[start as usize] != u8::MAX {
            continue;
        }
        colour[start as usize] = 0;
        let mut q = VecDeque::from([start]);
        while let Some(u) = q.pop_front() {
            let cu = colour[u as usize];
            for &v in g.neighbours(u) {
                if v == u {
                    return false; // self-loop
                }
                if colour[v as usize] == u8::MAX {
                    colour[v as usize] = 1 - cu;
                    q.push_back(v);
                } else if colour[v as usize] == cu {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether the graph is a tree: connected with exactly `n - 1` edges and no
/// self-loops.
pub fn is_tree(g: &Graph) -> bool {
    g.n() >= 1
        && g.m() == g.n() - 1
        && is_connected(&g.clone())
        && g.vertices().all(|v| !g.neighbours(v).contains(&v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::basic::{complete, cycle, path, star};
    use crate::generators::hypercube::hypercube;

    /// Exact diameter by all-pairs BFS: the reference for the double sweep.
    fn diameter(g: &Graph) -> Option<usize> {
        g.vertices()
            .map(|v| bfs_distances(g, v).into_iter().max())
            .max()
            .flatten()
    }

    #[test]
    fn path_distances() {
        let g = path(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn disconnected_detection() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
        assert_eq!(diameter_bounds(&g), None);
    }

    #[test]
    fn bipartite_families() {
        assert!(is_bipartite(&path(7)));
        assert!(is_bipartite(&cycle(8)));
        assert!(!is_bipartite(&cycle(9)));
        assert!(is_bipartite(&hypercube(4)));
        assert!(!is_bipartite(&complete(3)));
        // self-loop is an odd cycle
        assert!(!is_bipartite(&Graph::from_edges(2, &[(0, 1), (1, 1)])));
    }

    #[test]
    fn tree_tests() {
        assert!(is_tree(&path(5)));
        assert!(is_tree(&star(6)));
        assert!(!is_tree(&cycle(5)));
        assert!(!is_tree(&Graph::from_edges(4, &[(0, 1), (2, 3)])));
    }

    #[test]
    fn diameter_bounds_exact_on_trees() {
        use crate::generators::tree::binary_tree;
        for g in [path(9), star(7), binary_tree(4)] {
            let exact = diameter(&g).unwrap();
            assert_eq!(diameter_bounds(&g), Some((exact, exact)));
        }
    }

    #[test]
    fn diameter_bounds_bracket_exact_value() {
        for g in [cycle(8), cycle(9), complete(6), hypercube(4)] {
            let exact = diameter(&g).unwrap();
            let (lo, hi) = diameter_bounds(&g).unwrap();
            assert!(lo <= exact && exact <= hi, "{exact} not in [{lo},{hi}]");
            assert!(hi <= 2 * lo.max(1));
        }
    }

    #[test]
    fn diameter_bounds_none_when_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter_bounds(&g), None);
    }

    #[test]
    fn diameter_bounds_singleton() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(diameter_bounds(&g), Some((0, 0)));
    }
}
