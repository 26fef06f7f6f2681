//! Theorem C.4: the multi-walk phase bound
//! `t_par ≤ Σ_{j=1}^{k} ( t_mix(1/n⁴) + t^j_hit(π, S_j) )`
//! where phase `j` has `j` unsettled walks and `j` unoccupied sites.

use dispersion_graphs::Graph;
use dispersion_markov::multiwalk::multiwalk_hitting_upper_estimate;

/// Evaluates the Theorem C.4 sum with the independence estimate for each
/// `t^j_hit` term: `set_hit(j)` must upper-bound `t_hit(π, S)` for the
/// worst set of size `j`.
fn thm_c4_sum<F: Fn(usize) -> f64>(k: usize, tmix_fine: f64, set_hit: F) -> f64 {
    (1..=k)
        .map(|j| tmix_fine + multiwalk_hitting_upper_estimate(tmix_fine, set_hit(j), j))
        .sum()
}

/// Evaluation on a graph: uses the exact lazy `t_mix(1/4)` scaled to the
/// `1/n⁴` accuracy by the standard sub-multiplicativity
/// `t_mix(2^{-ℓ}) ≤ ℓ·t_mix(1/4)`, and the Lemma C.2 spectral estimate for
/// the set-hitting terms.
// LINT: unused-pub-ok — Theorem C.4 on a graph, checked by appendix_c::tests::
// spectral_evaluation_finite_and_dominates_linear_time
pub fn thm_c4_spectral(g: &Graph) -> f64 {
    let n = g.n();
    let tmix_quarter = crate::lazy_mixing_quarter(g).1;
    // 1/n⁴ = 2^{-4 log2 n}
    let levels = (4.0 * (n as f64).log2()).ceil().max(1.0);
    let tmix_fine = levels * tmix_quarter;
    thm_c4_sum(n, tmix_fine, |j| {
        crate::sets::set_hitting_upper_estimate(g, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, hypercube};

    #[test]
    fn sum_is_monotone_in_k() {
        let set_hit = |j: usize| 100.0 / j as f64;
        let a = thm_c4_sum(4, 2.0, set_hit);
        let b = thm_c4_sum(8, 2.0, set_hit);
        assert!(b > a);
    }

    #[test]
    fn spectral_evaluation_finite_and_dominates_linear_time() {
        for g in [complete(32), hypercube(5)] {
            let bound = thm_c4_spectral(&g);
            assert!(bound.is_finite());
            // any valid upper bound must exceed the true Θ(n) dispersion
            assert!(bound >= g.n() as f64, "bound {bound} below n");
        }
    }

    #[test]
    fn terms_shrink_with_more_walks() {
        // the j-walk estimate decreases in j for fixed set size... here the
        // set also shrinks with j; check the summand for j=1 exceeds the
        // average summand, i.e. early phases dominate.
        let g = complete(64);
        let tmix = 2.0;
        let first = tmix
            + multiwalk_hitting_upper_estimate(
                tmix,
                crate::sets::set_hitting_upper_estimate(&g, 1),
                1,
            );
        let total = thm_c4_sum(64, tmix, |j| crate::sets::set_hitting_upper_estimate(&g, j));
        assert!(
            first > total / 64.0,
            "first {first} vs avg {}",
            total / 64.0
        );
    }
}
