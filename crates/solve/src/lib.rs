//! # dispersion-solve
//!
//! Sparse spectral/linear-algebra engine for the dispersion-time
//! reproduction. The dense `dispersion-linalg` path caps every exact Markov
//! quantity — hitting times (Thm 3.1/3.3), effective resistances (Thm 3.6),
//! spectral gaps (Prop 3.9), the Appendix C set-hitting estimates — at
//! `n ≈ 2000`; this crate lifts them to `n ≈ 10⁵⁺`:
//!
//! * [`sparse`] — CSR [`SparseMatrix`] built straight from a `Graph`
//!   (Laplacian, grounded Laplacian, transition, normalised adjacency) with
//!   `O(m)` mat-vec,
//! * [`cg`] — Jacobi-preconditioned conjugate gradients for the SPD
//!   grounded-Laplacian systems behind hitting times and resistances,
//! * [`lanczos`] — extreme-eigenvalue estimation with deflation for
//!   spectral gaps and relaxation times,
//! * [`systems`] — the graph-level wrappers tying the three together;
//!   `dispersion-markov` calls them above 512 states.
//!
//! ```
//! use dispersion_graphs::generators::path;
//! use dispersion_graphs::walk::WalkKind;
//! use dispersion_solve::{hitting_times_to_set_sparse, CgSettings};
//!
//! // end-to-end hitting time of the path is (n-1)², via CG
//! let g = path(40);
//! let h = hitting_times_to_set_sparse(&g, WalkKind::Simple, &[39], &CgSettings::default())
//!     .unwrap();
//! assert!((h[0] - 39.0 * 39.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod lanczos;
pub mod sparse;
pub mod systems;

pub use cg::{pcg_jacobi, CgSettings, SolveError};
pub use lanczos::{lanczos_extremes, SpectrumEdge};
pub use sparse::SparseMatrix;
pub use systems::{
    effective_resistance_sparse, hitting_times_to_set_sparse, lambda2_sparse, lambda_star_sparse,
    spectral_gap_sparse,
};
