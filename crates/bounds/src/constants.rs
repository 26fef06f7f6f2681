//! The explicit constants of Section 5.
//!
//! * `κ_cc` (Lemma 5.1): `lim E[T_n]/n` for the maximum of `n` independent
//!   geometrics with parameters `i/n` — the Sequential-IDLA constant on the
//!   clique (`t_seq(K_n) ∼ κ_cc·n ≈ 1.255 n`).
//! * `π²/6 ≈ 1.645`: the Parallel-IDLA clique constant (Theorem 5.2).

/// `π²/6`, the Parallel-IDLA constant on the clique (Theorem 5.2):
/// `t_par(K_n) ∼ (π²/6) · n`.
pub const PI2_OVER_6: f64 = std::f64::consts::PI * std::f64::consts::PI / 6.0;

/// Computes the coupon-collector constant of Lemma 5.1,
/// `κ_cc = Σ_{i≥1} (−1)^{i+1} ( 2/(i(3i−1)) + 2/(i(3i+1)) ) ≈ 1.2552`,
/// truncating when terms drop below `tol`.
///
/// Note: the paper prints the series without the alternating sign and with
/// a minus inside; that expression evaluates to ≈ 0.5917, not the quoted
/// 1.255. The alternating form (from the pentagonal-number expansion in
/// Brennan–Kariv–Knopfmacher) both matches the quoted value and matches a
/// direct evaluation of `E[max_i Geom(i/n)]/n` (see the tests), so we
/// implement that.
fn kappa_cc(tol: f64) -> f64 {
    let mut sum = 0.0;
    let mut i = 1.0f64;
    let mut sign = 1.0;
    loop {
        let term = 2.0 / (i * (3.0 * i - 1.0)) + 2.0 / (i * (3.0 * i + 1.0));
        sum += sign * term;
        if term < tol {
            break;
        }
        sign = -sign;
        i += 1.0;
    }
    sum
}

/// The reference value `κ_cc ≈ 1.2550` evaluated to high precision.
pub fn kappa_cc_default() -> f64 {
    kappa_cc(1e-14)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi2_over_6_value() {
        assert!((PI2_OVER_6 - 1.6449340668).abs() < 1e-9);
    }

    #[test]
    fn kappa_cc_matches_paper() {
        // the paper quotes ≈ 1.255
        let k = kappa_cc_default();
        assert!((k - 1.255).abs() < 2e-3, "κ_cc = {k}");
    }

    #[test]
    fn kappa_cc_converges() {
        // alternating series: successive truncations bracket the limit
        assert!((kappa_cc(1e-12) - kappa_cc(1e-6)).abs() < 1e-5);
    }

    #[test]
    fn clique_constants_distinct() {
        // Remark 5.3: κ_cc ≈ 1.255 vs π²/6 ≈ 1.645 — the sequential and
        // parallel clique processes differ by ≈ 30%.
        let gap = PI2_OVER_6 / kappa_cc_default();
        assert!((1.25..1.4).contains(&gap), "π²/6 / κ_cc = {gap}");
    }

    #[test]
    fn kappa_cc_against_direct_simulation_formula() {
        // κ_cc is also E[max_i Geom(i/n)]/n in the n→∞ limit; check the
        // series against a large-n exact computation of
        // E[max] = Σ_{t≥0} (1 - Π_i (1-(1-i/n)^t)) … use the identity
        // E[T]/n → Σ ... simpler: numeric evaluation for n = 4000 by the
        // survival formula E[T] = Σ_{t≥0} Pr[T > t].
        let n = 4000usize;
        let mut e = 0.0f64;
        let mut t = 0u32;
        loop {
            // Pr[T > t] = 1 - Π_{i=1}^{n} (1 - (1 - i/n)^t)
            let mut prod = 1.0f64;
            for i in 1..=n {
                let q = 1.0 - i as f64 / n as f64;
                prod *= 1.0 - q.powi(t as i32);
                if prod == 0.0 {
                    break;
                }
            }
            let tail = 1.0 - prod;
            e += tail;
            if tail < 1e-9 {
                break;
            }
            t += 1;
        }
        let ratio = e / n as f64;
        assert!(
            (ratio - kappa_cc_default()).abs() < 0.01,
            "E[T]/n = {ratio} vs κ_cc = {}",
            kappa_cc_default()
        );
    }
}
