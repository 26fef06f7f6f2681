//! The walk-step primitive shared by the simulators.
//!
//! Both the Markov-chain toolkit and the dispersion processes step particles
//! the same way; keeping the primitive next to the graph keeps the hot loop
//! free of cross-crate indirection. The step is generic over [`Topology`],
//! so implicit families walk through the same code path as CSR graphs —
//! with identical RNG consumption, trajectories match across backends for
//! a fixed seed.
//!
//! The neighbour draw goes through [`Below`] (a width fixed in advance) or
//! [`below`] (a width that changes from vertex to vertex). Both return
//! exactly what `rng.random_range(0..width)` returns and consume the same
//! draws, but reduce a draw without the 64-bit division.

use crate::graph::Vertex;
use crate::topology::Topology;
use rand::{Rng, RngExt};

/// An exact uniform sampler over `0..width` for a width fixed in advance.
///
/// Draw for draw and output for output it reproduces
/// `rng.random_range(0..width)` — the vendored generator's rejection
/// sampler — so trajectories and every record built from them stay
/// byte-identical. It only computes the same remainder more cheaply:
///
/// * a power-of-two width masks the draw;
/// * any other width takes `x mod width` by Lemire's direct remainder,
///   `((c·x mod 2¹²⁸)·width) >> 128` with `c = ⌈2¹²⁸/width⌉` precomputed
///   (Lemire, Kaser & Kurz, *Faster remainder by direct computation*,
///   2019; exact for every 64-bit `x` and `width`), for each draw below
///   `2⁶⁴ − width`, which the rejection sampler always accepts;
/// * the other draws, at most `width/2⁶⁴` of them, run the vendored
///   rejection loop unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Below {
    width: u64,
    /// Largest draw the direct remainder takes: `2⁶⁴ − width − 1`, or
    /// `u64::MAX` for a power of two, whose draws are never rejected.
    direct_max: u64,
    /// `⌈2¹²⁸/width⌉ mod 2¹²⁸` (0 for width 1, where every remainder is 0).
    magic: u128,
}

impl Below {
    /// The sampler over `0..width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub const fn new(width: u64) -> Self {
        assert!(width > 0, "empty sampling range");
        Below {
            width,
            direct_max: if width.is_power_of_two() {
                u64::MAX
            } else {
                width.wrapping_neg() - 1
            },
            magic: (u128::MAX / width as u128).wrapping_add(1),
        }
    }

    /// The width `w` of the range `0..w`.
    #[inline]
    pub const fn width(&self) -> u64 {
        self.width
    }

    /// One uniform draw from `0..width`: `rng.random_range(0..width)`
    /// exactly. The power-of-two test is fixed per sampler, so it predicts
    /// perfectly.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.next_u64();
        if self.width.is_power_of_two() {
            return (x & (self.width - 1)) as usize;
        }
        self.reduce(x, rng)
    }

    /// Maps the draw `x` into `0..width`, drawing again only where the
    /// rejection sampler would. No branch depends on the width being a
    /// power of two: the direct remainder is exact for those too.
    #[inline]
    fn reduce<R: Rng + ?Sized>(&self, x: u64, rng: &mut R) -> usize {
        if x <= self.direct_max {
            self.remainder(x) as usize
        } else {
            self.reject(x, rng) as usize
        }
    }

    /// `x mod width` by multiplications alone.
    #[inline]
    fn remainder(&self, x: u64) -> u64 {
        let low = self.magic.wrapping_mul(u128::from(x));
        let w = u128::from(self.width);
        // the top 64 bits of the 192-bit product `low · width`
        let carry = (u128::from(low as u64) * w) >> 64;
        (((low >> 64) * w + carry) >> 64) as u64
    }

    /// The vendored rejection loop (`rand`'s `uniform_below`) for a width
    /// that is not a power of two, entered with its first draw `x` already
    /// taken.
    #[cold]
    #[inline(never)]
    fn reject<R: Rng + ?Sized>(&self, mut x: u64, rng: &mut R) -> u64 {
        let w = self.width;
        loop {
            if x < w.wrapping_neg() || x < (u64::MAX / w) * w {
                return x % w;
            }
            x = rng.next_u64();
        }
    }
}

/// Precomputed samplers for the widths `1..=64`. The degrees of trees,
/// paths and bounded grids stay below that; the dense rows of gadgets such
/// as the lollipop's clique take `random_range`.
const SMALL: [Below; 64] = {
    let mut t = [Below::new(1); 64];
    let mut i = 1;
    while i < 64 {
        t[i] = Below::new(i as u64 + 1);
        i += 1;
    }
    t
};

/// One uniform draw from `0..width` for a width that varies between
/// calls (the degree of an irregular graph's current vertex):
/// `rng.random_range(0..width)` exactly.
///
/// Widths up to 64 take their sampler from a constant table and never
/// branch on the width being a power of two, a branch a mixed-degree walk
/// mispredicts; wider ranges divide.
///
/// # Panics
///
/// Panics if `width == 0`, as `random_range` does.
#[inline]
pub fn below<R: Rng + ?Sized>(width: usize, rng: &mut R) -> usize {
    match SMALL.get(width.wrapping_sub(1)) {
        Some(b) => b.reduce(rng.next_u64(), rng),
        None => rng.random_range(0..width),
    }
}

/// Which walk variant a particle performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WalkKind {
    /// Simple random walk: move to a uniform neighbour every step.
    #[default]
    Simple,
    /// Lazy walk: stay put with probability 1/2, otherwise step
    /// (`P̃ = (I + P)/2`, Section 4.4 of the paper).
    Lazy,
}

impl WalkKind {}

/// One step of the walk from `u` on any [`Topology`].
///
/// # Panics
///
/// Debug-panics if `u` has no neighbours.
#[inline]
pub fn step<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    kind: WalkKind,
    u: Vertex,
    rng: &mut R,
) -> Vertex {
    match kind {
        WalkKind::Simple => g.random_step(u, rng),
        WalkKind::Lazy => {
            if rng.random::<bool>() {
                u
            } else {
                g.random_step(u, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_step_moves_to_neighbour() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let v = step(&g, WalkKind::Simple, 3, &mut rng);
            assert!(g.has_edge(3, v));
        }
    }

    #[test]
    fn lazy_step_half_stays() {
        let g = path(3);
        let mut rng = StdRng::seed_from_u64(2);
        let stays = (0..4000)
            .filter(|_| step(&g, WalkKind::Lazy, 1, &mut rng) == 1)
            .count();
        let frac = stays as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "stay fraction {frac}");
    }

    #[test]
    fn endpoint_always_bounces() {
        let g = path(2);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(step(&g, WalkKind::Simple, 0, &mut rng), 1);
    }

    /// Replays a fixed list of draws.
    struct Replay(std::vec::IntoIter<u64>);

    impl rand::rand_core::TryRng for Replay {
        type Error = std::convert::Infallible;
        fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
            Ok((self.0.next().expect("replay exhausted") >> 32) as u32)
        }
        fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
            Ok(self.0.next().expect("replay exhausted"))
        }
        fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Self::Error> {
            unreachable!()
        }
    }

    #[test]
    fn below_matches_random_range_at_the_edges() {
        // the draws a seeded stream almost never produces: both ends of
        // u64, and either side of the direct remainder's last accepted
        // draw and of the rejection zone's edge, each followed by a
        // second draw in case the first is rejected
        let widths = (1u64..=70).chain([
            1000,
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 7,
            u64::MAX,
        ]);
        for w in widths {
            let b = Below::new(w);
            let zone = (u64::MAX / w) * w;
            let edges = [
                0,
                1,
                w - 1,
                w,
                b.direct_max.wrapping_sub(1),
                b.direct_max,
                zone - 1,
                zone,
                u64::MAX,
            ];
            for x in edges.into_iter().chain(edges.map(|x| x.wrapping_add(1))) {
                let mut want = Replay(vec![x, 12345].into_iter());
                let mut got = Replay(vec![x, 12345].into_iter());
                let expect = want.random_range(0..w);
                assert_eq!(b.sample(&mut got) as u64, expect, "Below({w}) on {x}");
                assert_eq!(got.0.len(), want.0.len(), "Below({w}) on {x}: draws");
                let mut varying = Replay(vec![x, 12345].into_iter());
                if let Ok(w) = usize::try_from(w) {
                    assert_eq!(below(w, &mut varying) as u64, expect, "below({w}) on {x}");
                    assert_eq!(varying.0.len(), want.0.len(), "below({w}) on {x}: draws");
                }
            }
        }
    }
}
