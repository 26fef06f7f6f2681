//! # dispersion-bounds
//!
//! The theoretical bound formulas of *"The Dispersion Time of Random Walks
//! on Finite Graphs"*, evaluated on concrete graphs:
//!
//! * [`upper`] — Theorem 3.1 (`6·t_hit·log₂ n`), Corollary 3.2 worst-case
//!   envelopes, Theorems 3.3/3.5 (phase sums over hitting times of large
//!   sets),
//! * [`lower`] — Theorem 3.6 (`Ω(|E|/Δ)`), Theorem 3.7 (trees: `2n−3`),
//!   Proposition 3.9 (`Ω(t_mix)`),
//! * [`sets`] — the Appendix C spectral estimates for `t_hit(π, S)` plus
//!   exact brute-force oracles to validate them,
//! * [`constants`] — `κ_cc` (Lemma 5.1) and `π²/6`.
//!
//! ```
//! use dispersion_bounds::constants::{kappa_cc_default, PI2_OVER_6};
//! assert!(kappa_cc_default() < PI2_OVER_6); // sequential beats parallel on K_n
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appendix_c;
pub mod constants;
pub mod lower;
pub mod sets;
pub mod upper;

pub use constants::{kappa_cc_default, PI2_OVER_6};
pub use lower::{prop39_mixing_lower, thm36_edges_over_maxdeg, thm37_tree_lower};
pub use upper::{thm31_whp_threshold, thm33_spectral, thm35_spectral};

use dispersion_graphs::Graph;
use dispersion_markov::mixing::{mixing_time, mixing_time_bounds};
use dispersion_markov::transition::WalkKind;

/// The lazy walk's `t_mix(1/4)` as a `(lower, upper)` pair: the exact
/// value twice when `n ≤ 256` and the TV computation converges within
/// 2²² steps, the spectral bounds otherwise. Lower bounds read `.0`,
/// upper bounds `.1`.
fn lazy_mixing_quarter(g: &Graph) -> (f64, f64) {
    if g.n() <= 256 {
        if let Some(t) = mixing_time(g, WalkKind::Lazy, 0.25, 1 << 22) {
            return (t as f64, t as f64);
        }
    }
    mixing_time_bounds(g, WalkKind::Lazy, 0.25)
}
