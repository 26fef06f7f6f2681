//! # dispersion-markov
//!
//! Random-walk and Markov-chain toolkit for the dispersion-time
//! reproduction:
//!
//! * [`transition`] — dense transition matrices for simple (`P`) and lazy
//!   (`P̃ = (I+P)/2`) walks, plus the symmetric normalised form,
//! * [`mod@stationary`] — degree-proportional stationary distribution,
//! * [`hitting`] — exact expected hitting times of vertices and sets
//!   (single-target linear solves and the all-pairs fundamental matrix),
//! * [`resistance`] — effective resistances via Laplacian solves (the
//!   commute-time identity used by Theorem 3.6),
//! * [`mixing`] — spectral gap `1 − λ*`, relaxation time, and exact
//!   total-variation mixing times,
//! * [`cover`] — Matthews cover-time bounds,
//! * [`multiwalk`] — the Theorem C.4 estimate for `j` independent walks.
//!
//! Every exact solve picks its engine by size: dense LU/Jacobi up to 512
//! states, sparse CG/Lanczos from `dispersion-solve` beyond.
//!
//! ```
//! use dispersion_graphs::generators::path;
//! use dispersion_markov::{hitting::hitting_time, transition::WalkKind};
//!
//! // the end-to-end hitting time of the path is (n-1)²
//! let g = path(5);
//! let h = hitting_time(&g, WalkKind::Simple, 0, 4);
//! assert!((h - 16.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod hitting;
pub mod mixing;
pub mod multiwalk;
pub mod resistance;
pub mod stationary;
pub mod transition;

pub use hitting::{all_pairs_hitting, hitting_time, max_hitting_time};
pub use mixing::mixing_time;
pub use stationary::stationary;
pub use transition::{transition_matrix, WalkKind};

/// Largest state-space size the exact quantities still solve densely.
/// Below this, dense LU beats CG's iteration overhead and gives
/// bit-reproducible results; above it, `O(n³)` dense factorisations (and
/// especially the `O(n³)`-per-sweep Jacobi eigensolver) become the
/// bottleneck the sparse engine exists to remove.
const DENSE_LIMIT: usize = 512;

/// Whether an exact quantity on `n` states runs on the dense
/// `dispersion-linalg` path rather than the sparse `dispersion-solve` one.
fn dense(n: usize) -> bool {
    n <= DENSE_LIMIT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_up_to_the_limit_sparse_beyond() {
        assert!(dense(1));
        assert!(dense(512));
        assert!(!dense(513));
    }
}
