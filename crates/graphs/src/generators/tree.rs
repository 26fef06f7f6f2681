//! Trees: complete binary trees, the Prop. 3.8 counterexample
//! (binary tree with a pendant path), and combs.
//!
//! The binary tree is the paper's hardest tailored analysis: dispersion time
//! `Θ(n log² n)` (Theorem 5.14) via the clustering of the last unoccupied
//! vertices (Lemma 5.12). The tree-with-path shows `t_hit` is *not* a lower
//! bound for `t_seq` (Prop. 3.8).

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};

/// Complete binary tree with `n = 2^levels - 1` vertices, rooted at `0`.
///
/// Vertex `i` has children `2i+1` and `2i+2` (heap layout).
///
/// # Panics
///
/// Panics if `levels == 0` or `levels >= 31`.
pub fn binary_tree(levels: usize) -> Graph {
    assert!(levels > 0, "need at least one level");
    assert!(levels < 31, "too many levels for u32 ids");
    let n = (1usize << levels) - 1;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 0..n {
        let l = 2 * i + 1;
        let r = 2 * i + 2;
        if l < n {
            b.add_edge(i as Vertex, l as Vertex);
        }
        if r < n {
            b.add_edge(i as Vertex, r as Vertex);
        }
    }
    b.build()
}

/// Number of vertices of a complete binary tree with the given `levels`.
pub fn binary_tree_size(levels: usize) -> usize {
    (1usize << levels) - 1
}

/// The root vertex of [`binary_tree`].
pub const BINARY_TREE_ROOT: Vertex = 0;

/// Heap-layout parent of a binary-tree vertex (`None` for the root).
pub fn parent(v: Vertex) -> Option<Vertex> {
    if v == 0 {
        None
    } else {
        Some((v - 1) / 2)
    }
}

/// Depth (distance from root) of a binary-tree vertex in heap layout.
pub fn depth(v: Vertex) -> usize {
    let mut d = 0usize;
    let mut v = v;
    while v != 0 {
        v = (v - 1) / 2;
        d += 1;
    }
    d
}

/// Prop. 3.8 counterexample: a complete binary tree with `tree_n` vertices
/// and a pendant path of `path_len` extra vertices attached to the root.
///
/// Returns `(graph, root, path_tip)` where `root` is the binary-tree root and
/// `path_tip` the far endpoint of the path. With `path_len = n^{1/2-ε}` the
/// maximum hitting time is `Ω(n^{3/2-ε})` while `t_seq = O(n log² n)`.
pub fn tree_with_path(levels: usize, path_len: usize) -> (Graph, Vertex, Vertex) {
    let tree_n = binary_tree_size(levels);
    let n = tree_n + path_len;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 0..tree_n {
        let l = 2 * i + 1;
        let r = 2 * i + 2;
        if l < tree_n {
            b.add_edge(i as Vertex, l as Vertex);
        }
        if r < tree_n {
            b.add_edge(i as Vertex, r as Vertex);
        }
    }
    // pendant path: root - tree_n - tree_n+1 - ... - tree_n+path_len-1
    let mut prev = BINARY_TREE_ROOT;
    for p in 0..path_len {
        let v = (tree_n + p) as Vertex;
        b.add_edge(prev, v);
        prev = v;
    }
    (b.build(), BINARY_TREE_ROOT, prev)
}

/// Arbitrary tree from a parent array: `parents[i]` is the parent of vertex
/// `i + 1` (vertex 0 is the root).
pub fn tree_from_parents(parents: &[Vertex]) -> Graph {
    let n = parents.len() + 1;
    let mut b = GraphBuilder::with_capacity(n, parents.len());
    for (i, &p) in parents.iter().enumerate() {
        assert!(
            (p as usize) < n,
            "parent id {p} out of range for tree on {n} vertices"
        );
        b.add_edge(p, (i + 1) as Vertex);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_distances, is_tree};

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(4);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert!(is_tree(&g));
        assert_eq!(g.degree(0), 2);
        // leaves have degree 1
        for v in 7..15 {
            assert_eq!(g.degree(v), 1);
        }
        // internal non-root have degree 3
        for v in 1..7 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn depth_matches_bfs() {
        let g = binary_tree(5);
        let d = bfs_distances(&g, BINARY_TREE_ROOT);
        for v in g.vertices() {
            assert_eq!(d[v as usize], depth(v));
        }
    }

    #[test]
    fn parent_child_consistency() {
        assert_eq!(parent(0), None);
        assert_eq!(parent(1), Some(0));
        assert_eq!(parent(2), Some(0));
        assert_eq!(parent(5), Some(2));
        assert_eq!(parent(6), Some(2));
    }

    #[test]
    fn tree_with_path_shape() {
        let (g, root, tip) = tree_with_path(3, 4);
        assert_eq!(g.n(), 7 + 4);
        assert!(is_tree(&g));
        assert_eq!(root, 0);
        assert_eq!(g.degree(tip), 1);
        let d = bfs_distances(&g, root);
        assert_eq!(d[tip as usize], 4);
    }

    #[test]
    fn tree_with_zero_path_is_binary_tree() {
        let (g, _, tip) = tree_with_path(3, 0);
        assert_eq!(g.n(), 7);
        assert_eq!(tip, BINARY_TREE_ROOT);
        assert!(is_tree(&g));
    }

    #[test]
    fn tree_from_parents_star() {
        let g = tree_from_parents(&[0, 0, 0]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.degree(0), 3);
        assert!(is_tree(&g));
    }
}
