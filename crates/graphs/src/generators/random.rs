//! Random graph models used as expander families: Erdős–Rényi `G(n, p)` above
//! the connectivity threshold and random `d`-regular graphs via the
//! configuration model.
//!
//! Table 1's "expanders" row (Theorem 5.5, Remark 5.6) covers exactly these
//! families: almost-regular graphs with `1 - λ₂ = Ω(1)` have dispersion time
//! `Θ(n)`.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};
use crate::traversal::is_connected;
use rand::{Rng, RngExt};

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
///
/// Sampling uses geometric skipping over the `n(n-1)/2` pairs, so the cost is
/// `O(n + m)` rather than `O(n²)` for sparse `p`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u as Vertex, v as Vertex);
            }
        }
        return b.build();
    }
    // Geometric skipping (Batagelj–Brandes): iterate over linearised pair
    // indices, jumping ahead by Geom(p) each time.
    let log_q = (1.0 - p).ln();
    let total = n * (n - 1) / 2;
    let mut idx: usize = 0;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let skip = (u.ln() / log_q).floor() as usize;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total {
            break;
        }
        let (a, b_) = pair_of(idx, n);
        b.add_edge(a, b_);
        idx += 1;
    }
    b.build()
}

/// Maps a linear index in `0..n(n-1)/2` to the pair `(u, v)` with `u < v`.
///
/// Row `u` holds the pairs `(u, u+1), ..., (u, n-1)` and starts at offset
/// `S(u) = u(n-1) - u(u-1)/2`; we binary-search the row.
fn pair_of(idx: usize, n: usize) -> (Vertex, Vertex) {
    let row_start = |u: usize| u * (n - 1) - u.saturating_sub(1) * u / 2;
    let (mut lo, mut hi) = (0usize, n - 1); // u in [lo, hi)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let u = lo;
    let v = u + 1 + (idx - row_start(u));
    debug_assert!(v < n);
    (u as Vertex, v as Vertex)
}

/// Random `d`-regular simple graph via the configuration model with
/// rejection: pair up `n·d` half-edges uniformly, reject matchings that
/// create loops or multi-edges, and retry.
///
/// For constant `d ≥ 3` the acceptance probability is `Θ(1)` and the result
/// is w.h.p. connected and an expander.
///
/// # Panics
///
/// Panics if `n·d` is odd, if `d >= n`, or after 10 000 rejected matchings.
fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be < n");
    if d == 0 {
        return GraphBuilder::new(n).build();
    }
    let mut stubs: Vec<Vertex> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v as Vertex, d))
        .collect();
    'attempt: for _ in 0..10_000 {
        // Fisher–Yates shuffle, then pair consecutive stubs.
        for i in (1..stubs.len()).rev() {
            let j = rng.random_range(0..=i);
            stubs.swap(i, j);
        }
        // Simplicity check via sort: normalised endpoint pairs, sorted, then
        // scanned for adjacent duplicates. Deterministic memory layout and no
        // hash state, and the O(m log m) sort is noise next to the shuffle.
        let mut keys: Vec<(Vertex, Vertex)> = Vec::with_capacity(n * d / 2);
        for c in stubs.chunks_exact(2) {
            let (u, v) = (c[0], c[1]);
            if u == v {
                continue 'attempt; // self-loop
            }
            keys.push(if u < v { (u, v) } else { (v, u) });
        }
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            continue 'attempt; // multi-edge
        }
        let mut b = GraphBuilder::with_capacity(n, n * d / 2);
        for c in stubs.chunks_exact(2) {
            b.add_edge(c[0], c[1]);
        }
        return b.build();
    }
    panic!("random_regular: failed to sample a simple {d}-regular graph on {n} vertices");
}

/// Random `d`-regular graph conditioned on connectivity.
pub fn random_regular_connected<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    for _ in 0..1000 {
        let g = random_regular(n, d, rng);
        if is_connected(&g) {
            return g;
        }
    }
    panic!("random_regular_connected: could not find a connected sample");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = gnp(10, 0.0, &mut rng);
        assert_eq!(empty.m(), 0);
        let full = gnp(10, 1.0, &mut rng);
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn gnp_edge_count_close_to_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200;
        let p = 0.1;
        let mut total = 0usize;
        let reps = 20;
        for _ in 0..reps {
            total += gnp(n, p, &mut rng).m();
        }
        let mean = total as f64 / reps as f64;
        let expect = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expect).abs() < 0.05 * expect,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn pair_of_roundtrip() {
        let n = 17;
        let mut idx = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_of(idx, n), (u as Vertex, v as Vertex));
                idx += 1;
            }
        }
    }

    #[test]
    fn random_regular_is_regular_simple() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(n, d) in &[(10usize, 3usize), (20, 4), (50, 5), (16, 3)] {
            let g = random_regular(n, d, &mut rng);
            assert_eq!(g.n(), n);
            assert!(g.is_regular());
            assert_eq!(g.max_degree(), d);
            // simplicity: no loops, no duplicate neighbours
            for v in g.vertices() {
                let ns = g.neighbours(v);
                assert!(!ns.contains(&v));
                let mut sorted = ns.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), ns.len());
            }
        }
    }

    #[test]
    fn random_regular_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = random_regular_connected(64, 3, &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn zero_degree_regular() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = random_regular(8, 0, &mut rng);
        assert_eq!(g.m(), 0);
    }
}
