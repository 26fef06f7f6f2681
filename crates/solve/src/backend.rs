//! The solver backend switch threaded through `dispersion-markov` and
//! `dispersion-bounds`.
//!
//! Exact Markov quantities have two interchangeable engines: the dense
//! LU/Jacobi path in `dispersion-linalg` (bit-reproducible, `O(n³)`, fine to
//! `n ≈ 2000`) and the sparse CG/Lanczos path in this crate (`O(m·√κ)`,
//! scales to `n ≈ 10⁵⁺`). [`Solver::Auto`] picks per call site by comparing
//! the state-space size against `DENSE_LIMIT` (512); callers that care pass
//! [`Solver::Dense`] or [`Solver::SparseCg`] explicitly through the `_with`
//! variants (`hitting_times_to_set_with`, `effective_resistance_with`,
//! `spectral_gap_with`, …).

/// Largest state-space size the automatic backend still solves densely.
/// Below this, dense LU beats CG's iteration overhead and gives
/// bit-reproducible results; above it, `O(n³)` dense factorisations (and
/// especially the `O(n³)`-per-sweep Jacobi eigensolver) become the
/// bottleneck the sparse engine exists to remove.
const DENSE_LIMIT: usize = 512;

/// Which linear-algebra engine an exact computation should run on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Solver {
    /// Pick by problem size: [`Solver::Dense`] up to `DENSE_LIMIT` (512)
    /// states, [`Solver::SparseCg`] beyond. The default everywhere, so
    /// existing call sites keep their exact dense behaviour on small
    /// graphs and transparently scale past the old `n ≈ 2000` ceiling.
    #[default]
    Auto,
    /// Dense LU / Jacobi eigensolver from `dispersion-linalg`.
    Dense,
    /// Sparse conjugate-gradient / Lanczos engine from this crate.
    SparseCg,
}

impl Solver {
    /// Resolves [`Solver::Auto`] against a concrete state-space size;
    /// never returns `Auto`.
    #[inline]
    pub fn resolve(self, n: usize) -> Solver {
        match self {
            Solver::Auto => {
                if n <= DENSE_LIMIT {
                    Solver::Dense
                } else {
                    Solver::SparseCg
                }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_size() {
        assert_eq!(Solver::Auto.resolve(DENSE_LIMIT), Solver::Dense);
        assert_eq!(Solver::Auto.resolve(DENSE_LIMIT + 1), Solver::SparseCg);
    }

    #[test]
    fn explicit_choices_stick() {
        assert_eq!(Solver::Dense.resolve(1_000_000), Solver::Dense);
        assert_eq!(Solver::SparseCg.resolve(4), Solver::SparseCg);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(Solver::default(), Solver::Auto);
    }
}
