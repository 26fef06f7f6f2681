//! Hitting times of sets: the Appendix C estimates.
//!
//! Lemma C.2/C.3: for (almost-)regular graphs and any set `S`,
//! `t_hit(v, S) ≤ 5/(1−e⁻¹) · n(1 + ⌈log|S|⌉) / ((1−λ₂)|S|)`,
//! and with polynomial return-probability decay
//! `p^t_{u,w} ≤ 1/n + C t^{−(1+ε)}` the sharper
//! `t_hit(v, S) ≤ 5/(1−e⁻¹) · (C+2) n / |S|^{ε/(1+ε)}`.

use dispersion_graphs::{Graph, Vertex};
use dispersion_markov::hitting::hitting_times_to_set;
use dispersion_markov::mixing::lambda2;
use dispersion_markov::transition::WalkKind;

/// The leading constant `5/(1 − e⁻¹)` of Lemma C.2.
fn lemma_c2_constant() -> f64 {
    5.0 / (1.0 - (-1.0f64).exp())
}

/// Lemma C.2 first bound: spectral estimate of `max_v t_hit(v, S)` for any
/// set of size `s` on an (almost-)regular graph, using the lazy walk's `λ₂`.
///
/// # Panics
///
/// Panics if `s == 0` or `s > n`.
pub fn set_hitting_upper_estimate(g: &Graph, s: usize) -> f64 {
    let n = g.n();
    assert!(s >= 1 && s <= n, "set size {s} out of range");
    let l2 = lambda2(g, WalkKind::Lazy);
    let gap = (1.0 - l2).max(1e-12);
    let log_s = if s <= 1 {
        0.0
    } else {
        (s as f64).log2().ceil()
    };
    lemma_c2_constant() * n as f64 * (1.0 + log_s) / (gap * s as f64)
}

/// Lemma C.2 second bound, given a return-probability envelope
/// `p^t ≤ 1/n + C·t^{−(1+ε)}`.
// LINT: unused-pub-ok — Lemma C.2's return-probability bound, checked by
// sets::tests::returns_based_estimate_shape
pub fn set_hitting_upper_estimate_returns(n: usize, s: usize, c: f64, eps: f64) -> f64 {
    assert!(s >= 1 && s <= n);
    assert!(eps > 0.0);
    lemma_c2_constant() * (c + 2.0) * n as f64 / (s as f64).powf(eps / (1.0 + eps))
}

/// Exact worst-start hitting time of a concrete set:
/// `max_v t_hit(v, S)` by one linear solve.
fn exact_worst_set_hitting(g: &Graph, kind: WalkKind, set: &[Vertex]) -> f64 {
    hitting_times_to_set(g, kind, set)
        .into_iter()
        .fold(0.0, f64::max)
}

/// Exact `max_{S : |S| = s} max_v t_hit(v, S)` by brute force over all
/// `\binom{n}{s}` sets — only feasible for tiny graphs; used to validate the
/// spectral estimates.
///
/// # Panics
///
/// Panics if `\binom{n}{s}` exceeds 200 000 (refusing an infeasible
/// enumeration).
// LINT: unused-pub-ok — the exact reference the Lemma C.2 estimate is
// checked against in sets::tests
pub fn brute_force_worst_set_hitting(g: &Graph, kind: WalkKind, s: usize) -> f64 {
    let n = g.n();
    assert!(s >= 1 && s <= n);
    let combinations = binomial(n, s);
    assert!(
        combinations <= 200_000,
        "C({n},{s}) = {combinations} too large for brute force"
    );
    let mut best = 0.0f64;
    let mut set: Vec<Vertex> = (0..s as Vertex).collect();
    loop {
        best = best.max(exact_worst_set_hitting(g, kind, &set));
        // next combination in lexicographic order
        let mut i = s;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if set[i] < (n - s + i) as Vertex {
                set[i] += 1;
                for j in (i + 1)..s {
                    set[j] = set[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn binomial(n: usize, k: usize) -> usize {
    let k = k.min(n - k);
    let mut result = 1usize;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, hypercube};

    #[test]
    fn constant_value() {
        assert!((lemma_c2_constant() - 7.9102).abs() < 1e-3);
    }

    #[test]
    fn spectral_estimate_dominates_exact_on_cycle() {
        let g = cycle(12);
        for s in [1usize, 2, 3, 4, 6] {
            let est = set_hitting_upper_estimate(&g, s);
            let exact = brute_force_worst_set_hitting(&g, WalkKind::Lazy, s);
            assert!(est >= exact, "s={s}: estimate {est} below exact {exact}");
        }
    }

    #[test]
    fn spectral_estimate_dominates_exact_on_clique() {
        let g = complete(10);
        for s in [1usize, 2, 5] {
            let est = set_hitting_upper_estimate(&g, s);
            let exact = brute_force_worst_set_hitting(&g, WalkKind::Lazy, s);
            assert!(est >= exact, "s={s}: {est} vs {exact}");
        }
    }

    #[test]
    fn estimate_decreases_in_set_size() {
        let g = hypercube(5);
        let one = set_hitting_upper_estimate(&g, 1);
        let half = set_hitting_upper_estimate(&g, 16);
        assert!(half < one);
    }

    #[test]
    fn returns_based_estimate_shape() {
        // with ε = 1/2, the bound scales as n / s^{1/3}
        let a = set_hitting_upper_estimate_returns(1000, 1, 1.0, 0.5);
        let b = set_hitting_upper_estimate_returns(1000, 8, 1.0, 0.5);
        assert!((a / b - 2.0).abs() < 1e-9); // 8^{1/3} = 2
    }

    #[test]
    fn exact_set_hitting_monotone() {
        let g = cycle(10);
        let single = exact_worst_set_hitting(&g, WalkKind::Simple, &[0]);
        let pair = exact_worst_set_hitting(&g, WalkKind::Simple, &[0, 5]);
        assert!(pair <= single);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 1), 10);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(12, 3), 220);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn brute_force_refuses_large_enumerations() {
        let g = cycle(40);
        let _ = brute_force_worst_set_hitting(&g, WalkKind::Simple, 20);
    }
}
