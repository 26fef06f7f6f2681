//! Multiple independent random walks: the `t^j_hit(π, S)` quantities of
//! Theorem C.4.
//!
//! Theorem C.4 bounds the parallel dispersion time by
//! `t_par ≤ Σ_{j=1}^{k} ( t_mix(1/n⁴) + t^j_hit(π, S_j) )` where
//! `t^j_hit(π, S)` is the expected time until at least one of `j`
//! independent stationary walks hits `S`. This module provides an
//! independence-based upper estimate of it.

/// Independence upper estimate: the minimum of `j` i.i.d. nonnegative
/// variables satisfies `E[min] ≤ E[X]/j` **when `X` has an (approximately)
/// geometric tail**; we expose the general Markov-style estimate
/// `t^j_hit(π, S) ≤ c·(t_mix + t_hit(π, S))/j + t_mix` used in the paper's
/// applications, with `c = 5/(1−e⁻¹)` from the Lemma C.2 machinery.
pub fn multiwalk_hitting_upper_estimate(tmix: f64, thit_pi: f64, j: usize) -> f64 {
    assert!(j >= 1);
    let c = 5.0 / (1.0 - (-1.0f64).exp());
    tmix + c * (tmix + thit_pi) / j as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting::hitting_time_from_stationary;
    use crate::transition::WalkKind;
    use dispersion_graphs::generators::hypercube;

    #[test]
    fn upper_estimate_dominates_one_walk_and_shrinks_to_tmix() {
        let g = hypercube(5);
        let tmix = crate::mixing::mixing_time(&g, WalkKind::Lazy, 0.25, 1 << 16).unwrap() as f64;
        // one walk: t^1_hit(π, S) is exactly the stationary hitting time
        let thit = hitting_time_from_stationary(&g, WalkKind::Lazy, &[0]);
        assert!(multiwalk_hitting_upper_estimate(tmix, thit, 1) >= thit);
        let ests: Vec<f64> = [1usize, 2, 8, 1 << 20]
            .iter()
            .map(|&j| multiwalk_hitting_upper_estimate(tmix, thit, j))
            .collect();
        assert!(ests.windows(2).all(|w| w[1] < w[0]), "{ests:?}");
        assert!(ests[3] - tmix < 1e-3 * tmix);
    }
}
