//! Fast deterministic RNG for the Monte-Carlo harness.
//!
//! The dispersion simulators draw one random number per walk step, so RNG
//! throughput matters (perfbench's `sim.rng.next_u64_ns` probe times one
//! draw). We implement Xoshiro256++ seeded through
//! SplitMix64 — the reference construction from Blackman & Vigna — behind
//! the standard `rand` traits so it plugs into every API in the workspace.

use rand::rand_core::TryRng;
use rand::SeedableRng;
use std::convert::Infallible;

/// SplitMix64 step: the recommended seeder for Xoshiro, and our per-trial
/// seed derivation function (`trial_seed`).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the seed for trial `index` from a master seed; used by the
/// parallel executor so every trial is independently seeded yet the whole
/// experiment is reproducible from one number.
#[inline]
pub fn trial_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ index.wrapping_mul(0xA24BAED4963EE407);
    splitmix64(&mut s)
}

/// Xoshiro256++ PRNG (Blackman & Vigna 2019): 256-bit state, period
/// `2²⁵⁶ − 1`, ~1 ns per `u64` — the workhorse generator of the harness.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds via SplitMix64 expansion of `seed` (never produces the
    /// all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

// Implementing the infallible `TryRng` provides `rand::Rng` (and with it the
// whole `RngExt` surface) through rand_core's blanket impls.
impl TryRng for Xoshiro256pp {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Xoshiro256pp::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256pp::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

    #[test]
    fn reference_vector() {
        // Xoshiro256++ reference: from state {1,2,3,4} the first outputs are
        // known (from the reference implementation).
        let mut r = Xoshiro256pp { s: [1, 2, 3, 4] };
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(first[0], 41943041);
        assert_eq!(first[1], 58720359);
        assert_eq!(first[2], 3588806011781223);
        assert_eq!(first[3], 3591011842654386);
    }

    #[test]
    fn deterministic_by_seed() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Xoshiro256pp::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn trial_seeds_distinct() {
        let mut seeds: Vec<u64> = (0..10_000).map(|i| trial_seed(7, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn uniformity_rough() {
        let mut r = Xoshiro256pp::new(3);
        let n = 60_000;
        let mut buckets = [0usize; 10];
        for _ in 0..n {
            let x: f64 = r.random::<f64>();
            assert!((0.0..1.0).contains(&x));
            buckets[(x * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            let frac = b as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn range_sampling_unbiased() {
        let mut r = Xoshiro256pp::new(9);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.random_range(0..5)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 50_000.0;
            assert!((frac - 0.2).abs() < 0.02, "{frac}");
        }
    }

    #[test]
    fn fill_bytes_all_lengths() {
        for len in 0..24 {
            let mut r = Xoshiro256pp::new(1);
            let mut buf = vec![0u8; len];
            r.fill_bytes(&mut buf);
            // at least: doesn't panic, and longer buffers aren't all zero
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }
}
