//! Compressed-sparse-row matrices built directly from [`Graph`]s.
//!
//! The dense `Matrix` in `dispersion-linalg` stores `n²` entries, which caps
//! exact Markov computations near `n ≈ 2000`. Every operator this crate
//! needs (Laplacian, transition, normalised adjacency) has only `O(m)`
//! non-zeros on a graph with `m` edges, so CSR storage plus an `O(m)`
//! mat-vec is what lets the iterative solvers in [`crate::cg`] and
//! [`crate::lanczos`] reach `n ≈ 10⁵⁺`.

use dispersion_graphs::walk::WalkKind;
use dispersion_graphs::{Graph, Vertex};

/// A sparse `f64` matrix in compressed-sparse-row form.
///
/// # Invariants
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`.
/// * Within each row, column indices are strictly increasing (entries are
///   merged at construction time).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a matrix from (row, col, value) triplets; duplicate
    /// coordinates are summed, explicit zeros are kept.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
            per_row[r].push((c as u32, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0usize);
        for row in &mut per_row {
            push_merged_row(row, &mut col_idx, &mut values);
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The stored entries of row `r` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The main diagonal as a dense vector (zeros where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        for (r, slot) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            if let Ok(k) = cols.binary_search(&(r as u32)) {
                *slot = vals[k];
            }
        }
        d
    }

    /// Dense mat-vec `y = A·x` in `O(nnz)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// In-place mat-vec `y = A·x`, reusing the output buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// Whether the matrix is symmetric to within `tol` (entry-wise).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let (tcols, tvals) = self.row(c as usize);
                let w = match tcols.binary_search(&(r as u32)) {
                    Ok(k) => tvals[k],
                    Err(_) => 0.0,
                };
                if (v - w).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Graph Laplacian `L = D − A` in CSR form. Self-loops cancel (they
    /// appear in neither the degree term nor the adjacency term), matching
    /// the dense `laplacian` in `dispersion-markov`.
    pub fn laplacian(g: &Graph) -> SparseMatrix {
        let keep = vec![true; g.n()];
        Self::grounded_laplacian(g, &keep).0
    }

    /// The Laplacian restricted to the vertices with `keep[v] == true`
    /// (rows *and* columns of the others deleted). Returns the restricted
    /// matrix plus the kept vertices in index order, so `result.0[(i, j)]`
    /// refers to original vertices `result.1[i]`, `result.1[j]`.
    ///
    /// Grounding at least one vertex per connected component makes the
    /// restriction symmetric positive definite — the form the CG solver
    /// needs for hitting times and effective resistances.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != g.n()`.
    pub fn grounded_laplacian(g: &Graph, keep: &[bool]) -> (SparseMatrix, Vec<Vertex>) {
        assert_eq!(keep.len(), g.n(), "keep mask length mismatch");
        let free: Vec<Vertex> = g.vertices().filter(|&v| keep[v as usize]).collect();
        let mut index_of = vec![u32::MAX; g.n()];
        for (i, &v) in free.iter().enumerate() {
            index_of[v as usize] = i as u32;
        }
        let k = free.len();
        let mut row_ptr = Vec::with_capacity(k + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for (i, &u) in free.iter().enumerate() {
            scratch.clear();
            let mut degree_no_loops = 0.0;
            for &v in g.neighbours(u) {
                if v == u {
                    continue; // self-loops cancel out of L
                }
                degree_no_loops += 1.0;
                if keep[v as usize] {
                    scratch.push((index_of[v as usize], -1.0));
                }
            }
            scratch.push((i as u32, degree_no_loops));
            push_merged_row(&mut scratch, &mut col_idx, &mut values);
            row_ptr.push(col_idx.len());
        }
        (
            SparseMatrix {
                rows: k,
                cols: k,
                row_ptr,
                col_idx,
                values,
            },
            free,
        )
    }

    /// Transition matrix `P` (or the lazy `P̃ = (I + P)/2`) in CSR form.
    ///
    /// # Panics
    ///
    /// Panics if some vertex is isolated (the walk is undefined).
    pub fn transition(g: &Graph, kind: WalkKind) -> SparseMatrix {
        Self::walk_operator(g, kind, |_, _| 1.0)
    }

    /// The symmetric normalised adjacency `N = D^{-1/2} A D^{-1/2}` (for
    /// [`WalkKind::Lazy`], `(I + N)/2`), similar to `P` and therefore sharing
    /// its spectrum — the operator the Lanczos estimator runs on.
    ///
    /// # Panics
    ///
    /// Panics if some vertex is isolated.
    pub fn normalized_adjacency(g: &Graph, kind: WalkKind) -> SparseMatrix {
        let inv_sqrt: Vec<f64> = g
            .vertices()
            .map(|v| 1.0 / (g.degree(v) as f64).sqrt())
            .collect();
        Self::walk_operator(g, kind, |u, v| {
            // rescale the row weight 1/deg(u) to 1/sqrt(deg u · deg v)
            inv_sqrt[v as usize] / inv_sqrt[u as usize]
        })
    }

    /// Shared builder for the row-normalised walk operators: entry
    /// `(u, v)` gets `weight(u, v)·(multiplicity)/deg(u)`, then the lazy
    /// variant is `(I + ·)/2`.
    fn walk_operator<F: Fn(Vertex, Vertex) -> f64>(
        g: &Graph,
        kind: WalkKind,
        weight: F,
    ) -> SparseMatrix {
        let n = g.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        let (scale, diag_shift) = match kind {
            WalkKind::Simple => (1.0, 0.0),
            WalkKind::Lazy => (0.5, 0.5),
        };
        for u in g.vertices() {
            let deg = g.degree(u);
            assert!(deg > 0, "vertex {u} is isolated; the walk is undefined");
            let w = scale / deg as f64;
            scratch.clear();
            for &v in g.neighbours(u) {
                scratch.push((v, w * weight(u, v)));
            }
            if diag_shift != 0.0 {
                scratch.push((u, diag_shift));
            }
            push_merged_row(&mut scratch, &mut col_idx, &mut values);
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Sorts a scratch row by column, merges duplicate columns by summing, and
/// appends the result to the CSR arrays — the one place the
/// strictly-increasing-columns invariant is established.
fn push_merged_row(scratch: &mut [(u32, f64)], col_idx: &mut Vec<u32>, values: &mut Vec<f64>) {
    scratch.sort_unstable_by_key(|&(c, _)| c);
    let mut i = 0;
    while i < scratch.len() {
        let c = scratch[i].0;
        let mut v = scratch[i].1;
        let mut j = i + 1;
        while j < scratch.len() && scratch[j].0 == c {
            v += scratch[j].1;
            j += 1;
        }
        col_idx.push(c);
        values.push(v);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, path, star};

    #[test]
    fn triplets_merge_and_sort() {
        let a = SparseMatrix::from_triplets(
            2,
            3,
            &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 0.5), (1, 1, -1.0)],
        );
        assert_eq!(a.values.len(), 3);
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[2.0, 1.5]);
        assert_eq!(a.diagonal(), vec![2.0, -1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        for g in [path(6), cycle(7), complete(5), star(6)] {
            let l = SparseMatrix::laplacian(&g);
            assert!(l.is_symmetric(0.0));
            let ones = vec![1.0; g.n()];
            for y in l.matvec(&ones) {
                assert_eq!(y, 0.0);
            }
        }
    }

    #[test]
    fn laplacian_ignores_self_loops() {
        let g = path(4);
        let lz = g.lazified();
        assert_eq!(SparseMatrix::laplacian(&g), SparseMatrix::laplacian(&lz));
    }

    #[test]
    fn grounded_laplacian_drops_rows_and_columns() {
        let g = path(4);
        let mut keep = vec![true; 4];
        keep[3] = false;
        let (l, free) = SparseMatrix::grounded_laplacian(&g, &keep);
        assert_eq!(free, vec![0, 1, 2]);
        assert_eq!(l.rows(), 3);
        // vertex 2 keeps its full degree 2 on the diagonal even though the
        // neighbour 3 column is gone — that is what makes it nonsingular
        assert_eq!(l.diagonal(), vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn transition_rows_stochastic() {
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let g = star(6);
            let p = SparseMatrix::transition(&g, kind);
            let sums = p.matvec(&vec![1.0; g.n()]);
            for s in sums {
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn normalized_adjacency_symmetric_and_matches_dense() {
        let g = star(7);
        for kind in [WalkKind::Simple, WalkKind::Lazy] {
            let n = SparseMatrix::normalized_adjacency(&g, kind);
            assert!(n.is_symmetric(1e-12));
            let dense = dispersion_markov_free_normalized(&g, kind);
            for r in 0..g.n() {
                let mut e = vec![0.0; g.n()];
                e[r] = 1.0;
                let row = n.matvec(&e);
                for c in 0..g.n() {
                    assert!((row[c] - dense[c][r]).abs() < 1e-12);
                }
            }
        }
    }

    // tiny dense reference, independent of dispersion-markov (which depends
    // on this crate)
    fn dispersion_markov_free_normalized(g: &Graph, kind: WalkKind) -> Vec<Vec<f64>> {
        let n = g.n();
        let mut m = vec![vec![0.0; n]; n];
        for u in g.vertices() {
            for &v in g.neighbours(u) {
                m[u as usize][v as usize] +=
                    1.0 / ((g.degree(u) as f64).sqrt() * (g.degree(v) as f64).sqrt());
            }
        }
        if kind == WalkKind::Lazy {
            for (i, row) in m.iter_mut().enumerate() {
                for x in row.iter_mut() {
                    *x *= 0.5;
                }
                row[i] += 0.5;
            }
        }
        m
    }
}
