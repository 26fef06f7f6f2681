//! The [`Schedule`] trait — *who moves this tick* — and the scheduler state
//! machines of the paper's process variants.
//!
//! A schedule never touches the particle arrays itself: it reads the
//! engine's [`EngineView`] and emits [`Event`]s; the
//! engine performs the walk step, occupancy update and observer dispatch.
//! This is what makes the five historical `process/*.rs` loops collapse
//! into one: the only thing that ever differed between them is the order
//! in which particles are granted moves.
//!
//! # Event chains with one clock draw per settle
//!
//! The paper's Uniform process (§4.2) draws from *all* particles each
//! tick, so `Θ(n · t_par)` ticks hit an already-settled particle and do
//! nothing; CTU (§4.3) rings one exponential clock per walker. In both,
//! the law of the process only depends on which *active* particle moves
//! next and on how much clock elapses in between — and nothing reads the
//! clock except at settles (dispersion time, phase boundaries). So
//! [`Uniform`] and [`Ctu`] draw only the mover per move (one
//! widening-multiply slot draw) and sample the clock of a whole *settle
//! segment* — the `M` moves since the previous settle, during which the
//! active count `a` is constant — once, through [`Schedule::settle_clock`],
//! right before the engine reports the settling move:
//!
//! * Uniform: the segment's no-op ticks are the sum of `M` independent
//!   `Geom₀(a/(n−1))` gaps, i.e. `NegBin(M, a/(n−1))`
//!   ([`sample_negative_binomial`]);
//! * CTU: the segment's real time is the sum of `M` independent `Exp(a)`
//!   superposition gaps, i.e. `Gamma(M, 1)/a` ([`sample_gamma_int`]).
//!
//! The gaps are i.i.d. and independent of the jump chain, so this is exact
//! in law; clocks are exact at every settle and lag in between.
//!
//! The tick-by-tick loop survives as [`UniformTicks`] and the literal §4.3
//! process — one exponential clock per walker, kept in a shrinking
//! lazily-pruned min-heap — as [`CtuClocks`]: per-tick and per-walker
//! reference twins for the statistical-equivalence suite
//! (`crates/core/tests/schedule_equivalence.rs`). Trajectory recording uses
//! [`UniformTicks`] too, because the realized schedule `R_t` names every
//! no-op draw and is `Θ(ticks)` to materialise regardless.

use super::EngineView;
use rand::{Rng, RngExt};

/// One scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// The particle `pid` performs one walk step; real (clock) time advances
    /// by `dt` (0 for discrete-time schedules).
    Step {
        /// Particle index granted the move.
        pid: usize,
        /// Real-time advance accompanying the move (the per-walker clock
        /// heap's ring gap; 0 for every other schedule).
        dt: f64,
    },
    /// A tick is consumed but nobody moves (the tick-loop Uniform schedule
    /// drew an already-settled particle).
    Noop {
        /// The settled particle the schedule drew.
        pid: usize,
    },
    /// Round boundary (Parallel schedule): the engine compacts settled
    /// particles out of the active list and notifies observers.
    NewRound,
}

/// How settled particles leave the engine's active list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Removal {
    /// Swap-remove at settle time (O(1); scrambles order — fine for
    /// schedules that draw uniformly).
    Immediate,
    /// Leave in place until the next [`Event::NewRound`] compaction
    /// (preserves ascending order for the Parallel tie-breaking scan).
    AtRoundEnd,
}

/// Whether particles are placed at their origins up front or on first move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnMode {
    /// All particles placed before the first tick (Parallel/Uniform/CTU:
    /// everyone exists from time 0).
    Eager,
    /// A particle is placed when the schedule first selects it (Sequential:
    /// particle `i+1` enters only after particle `i` settled — required for
    /// random-origin runs, where the origin draw must see the up-to-date
    /// occupancy).
    Lazy,
}

/// A scheduler: decides who moves at every tick of a dispersion run.
pub trait Schedule {
    /// Short name used in error messages and throughput tables.
    fn label(&self) -> &'static str;

    /// Validates the schedule against the run's particle count, called
    /// once before the first tick. Schedules with internal sizing (e.g.
    /// [`Uniform`]) panic here with a configuration message instead of
    /// failing later with an opaque index error.
    fn check_particles(&self, particles: usize) {
        let _ = particles;
    }

    /// The next event. Called only while unsettled particles remain.
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event;

    /// The no-op ticks and real time accrued since the previous settle,
    /// beyond what the events already carried. The engine calls this once
    /// per settling move, after the settle test passed and before the move
    /// is reported to observers, with the settling particle still in
    /// `view.active`. Default: nothing accrued, `(0, 0.0)`.
    fn settle_clock<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> (u64, f64) {
        let _ = (view, rng);
        (0, 0.0)
    }

    /// Active-list removal policy (default: swap-remove on settle).
    fn removal(&self) -> Removal {
        Removal::Immediate
    }

    /// Spawn policy (default: everyone placed up front).
    fn spawn_mode(&self) -> SpawnMode {
        SpawnMode::Eager
    }
}

/// Sequential-IDLA: the lowest-index unsettled particle moves every tick;
/// particle `i+1` starts only after particle `i` has settled.
#[derive(Clone, Debug, Default)]
pub struct Sequential {
    current: usize,
}

impl Sequential {
    /// Fresh schedule starting from particle 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for Sequential {
    fn label(&self) -> &'static str {
        "sequential"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, _rng: &mut R) -> Event {
        while self.current < view.settled.len() && view.settled[self.current] {
            self.current += 1;
        }
        Event::Step {
            pid: self.current,
            dt: 0.0,
        }
    }

    fn spawn_mode(&self) -> SpawnMode {
        SpawnMode::Lazy
    }
}

/// Parallel-IDLA: every unsettled particle moves once per round, scanned in
/// ascending index order so that simultaneous arrivals at a vacant vertex
/// settle the smallest index (Section 1 / property (4)).
#[derive(Clone, Debug, Default)]
pub struct Parallel {
    cursor: usize,
}

impl Parallel {
    /// Fresh schedule at the start of round 1.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for Parallel {
    fn label(&self) -> &'static str {
        "parallel"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, _rng: &mut R) -> Event {
        if self.cursor >= view.active.len() {
            self.cursor = 0;
            return Event::NewRound;
        }
        let pid = view.active[self.cursor];
        self.cursor += 1;
        Event::Step { pid, dt: 0.0 }
    }

    fn removal(&self) -> Removal {
        Removal::AtRoundEnd
    }
}

/// Uniform-IDLA (Section 4.2) as an event chain: each tick of the process
/// draws a particle uniformly from *all* of `{1, …, n−1}`, and drawing a
/// settled particle is a no-op tick — but instead of simulating those
/// no-ops, this schedule draws only the movers, uniformly among the
/// actives, and samples the no-op ticks of a whole settle segment at its
/// settling move.
///
/// Law equivalence with the tick loop ([`UniformTicks`]): with `a` active
/// particles among the `m = n − 1` drawable ones, the no-op ticks before
/// each move are `Geom₀(a/m)` and, conditional on a hit, the mover is
/// uniform among the actives. `a` only changes at settles, so the `M`
/// moves of a segment carry `NegBin(M, a/m)` no-op ticks in total,
/// independent of where the walkers went. The engine adds them to its tick
/// odometer before reporting the settle, so `settle_tick` and
/// `clock.ticks` at every settle mean what they mean under the tick loop.
#[derive(Clone, Debug)]
pub struct Uniform {
    n: usize,
    /// Moves granted since the previous settle.
    moves: u64,
}

impl Uniform {
    /// Schedule over `n` particles (`R_t` draws from `1..n`; particle 0
    /// holds the origin).
    pub fn new(n: usize) -> Self {
        Uniform { n, moves: 0 }
    }
}

impl Schedule for Uniform {
    fn label(&self) -> &'static str {
        "uniform"
    }

    fn check_particles(&self, particles: usize) {
        assert_eq!(
            self.n, particles,
            "Uniform schedule draws over {} particles but the run has {particles}",
            self.n
        );
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        self.moves += 1;
        Event::Step {
            pid: view.active[uniform_slot(view.active.len(), rng)],
            dt: 0.0,
        }
    }

    fn settle_clock<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> (u64, f64) {
        let hit = view.active.len() as f64 / (self.n - 1) as f64;
        let moves = std::mem::take(&mut self.moves);
        (sample_negative_binomial(moves, hit, rng), 0.0)
    }
}

/// The tick-by-tick Uniform-IDLA loop: every tick draws from all of
/// `{1, …, n−1}` and settled draws are explicit [`Event::Noop`]s.
///
/// Retained for two purposes only — production paths use the event-chain
/// [`Uniform`]:
///
/// * the statistical-equivalence suite
///   (`crates/core/tests/schedule_equivalence.rs`) cross-validates the
///   event chain against this reference implementation;
/// * trajectory recording with the realized schedule `R_t`
///   ([`crate::engine::observer::TrajectoryBlock::with_timing`], the
///   Theorem 4.7 bijection) needs the exact tick of every move and the
///   identity of every no-op draw, which is `Θ(ticks)` to materialise no
///   matter how the engine runs.
#[derive(Clone, Debug)]
pub struct UniformTicks {
    n: usize,
}

impl UniformTicks {
    /// Tick-loop schedule over `n` particles.
    pub fn new(n: usize) -> Self {
        UniformTicks { n }
    }
}

impl Schedule for UniformTicks {
    fn label(&self) -> &'static str {
        "uniform-ticks"
    }

    fn check_particles(&self, particles: usize) {
        assert_eq!(
            self.n, particles,
            "Uniform schedule draws over {} particles but the run has {particles}",
            self.n
        );
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        let pid = if self.n > 1 {
            rng.random_range(1..self.n)
        } else {
            0
        };
        if view.settled[pid] {
            Event::Noop { pid }
        } else {
            Event::Step { pid, dt: 0.0 }
        }
    }
}

/// Continuous-time Uniform IDLA (Section 4.3): every unsettled particle
/// carries a rate-1 exponential clock; by superposition the next ring
/// arrives after an `Exp(k)` delay and belongs to a uniform unsettled
/// particle. Rings of settled particles are never simulated, and the `M`
/// superposition gaps of a settle segment (constant `k`) are drawn as one
/// `Gamma(M, 1)/k` at its settling move, so a move costs one slot draw.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctu {
    /// Moves granted since the previous settle.
    moves: u64,
}

impl Ctu {
    /// Fresh CTU schedule.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for Ctu {
    fn label(&self) -> &'static str {
        "ctu"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        self.moves += 1;
        Event::Step {
            pid: view.active[uniform_slot(view.active.len(), rng)],
            dt: 0.0,
        }
    }

    fn settle_clock<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> (u64, f64) {
        let moves = std::mem::take(&mut self.moves);
        (0, sample_gamma_int(moves, rng) / view.active.len() as f64)
    }
}

/// The literal §4.3 CTU process: one rate-1 exponential clock *per walker*,
/// kept in a min-heap over (next ring time, pid) that shrinks as walkers
/// settle — rings of settled walkers are lazily pruned when they surface at
/// the heap top, never rescheduled. Equivalent in law to the superposition
/// [`Ctu`] by memorylessness; retained as its cross-implementation twin for
/// the statistical-equivalence suite (each move costs `O(log k)` against
/// superposition's `O(1)`, so production paths use [`Ctu`]).
///
/// Clocks are primed on the first call, in ascending pid order over the
/// initial active list, so a trial is bit-reproducible from its RNG stream.
#[derive(Clone, Debug, Default)]
pub struct CtuClocks {
    /// Min-heap of `(next ring time, pid)`, ordered by time then pid.
    heap: Vec<(f64, usize)>,
    /// Absolute time of the last granted move.
    now: f64,
    primed: bool,
}

impl CtuClocks {
    /// Fresh per-walker-clock CTU schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of clocks resident in the heap (active walkers plus
    /// not-yet-pruned settled rings).
    pub fn clocks(&self) -> usize {
        self.heap.len()
    }

    fn less(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    fn push(&mut self, t: f64, pid: usize) {
        self.heap.push((t, pid));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < n && Self::less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < n && Self::less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
        top
    }
}

impl Schedule for CtuClocks {
    fn label(&self) -> &'static str {
        "ctu-clocks"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        if !self.primed {
            self.primed = true;
            self.heap.reserve(view.active.len());
            // prime in ascending pid order (the initial active list is the
            // ascending spawn order) for a deterministic draw sequence
            for &pid in view.active {
                let t = sample_exponential(1.0, rng);
                self.push(t, pid);
            }
        }
        loop {
            let (t, pid) = self
                .pop()
                // LINT: engine-no-panic-ok — invariant: every unsettled
                // particle keeps exactly one pending clock ring in the heap
                .expect("clock heap empty with unsettled particles");
            if view.settled[pid] {
                // lazily prune a settled walker's pending ring
                continue;
            }
            let dt = t - self.now;
            self.now = t;
            self.push(t + sample_exponential(1.0, rng), pid);
            return Event::Step { pid, dt };
        }
    }
}

/// Uniform index in `0..len` by Lemire's widening multiply: one `u64`
/// draw, no division. The bias is below `len/2⁶⁴` (< 2⁻⁴⁴ even at a
/// million actives) — far below anything the equivalence gates could
/// resolve — and the index stays a pure function of the trial's RNG
/// stream.
#[inline]
fn uniform_slot<R: Rng + ?Sized>(len: usize, rng: &mut R) -> usize {
    ((rng.random::<u64>() as u128 * len as u128) >> 64) as usize
}

/// Samples `Exp(rate)`.
#[inline]
pub fn sample_exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.random::<f64>();
    // map u in [0,1) to (0,1] to avoid ln(0)
    -(1.0 - u).ln() / rate
}

/// Samples `Gamma(shape, 1)` for integer `shape ≥ 0` (sum of exponentials
/// up to shape 32, Marsaglia–Tsang squeeze beyond).
pub fn sample_gamma_int<R: Rng + ?Sized>(shape: u64, rng: &mut R) -> f64 {
    if shape == 0 {
        return 0.0;
    }
    if shape <= 32 {
        return (0..shape).map(|_| sample_exponential(1.0, rng)).sum();
    }
    // Marsaglia–Tsang for alpha >= 1
    let alpha = shape as f64;
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // standard normal via Box–Muller
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples `Poisson(lambda)` exactly, for finite `lambda ≥ 0`: Knuth's
/// multiplication method below `lambda = 10` (about `lambda + 1` uniform
/// draws), Hörmann's transformed rejection PTRS at and above it (two
/// uniform draws per attempt, acceptance above 0.9 for every `lambda`).
///
/// W. Hörmann, "The transformed rejection method for generating Poisson
/// random variables", Insurance: Mathematics and Economics 12 (1993).
pub fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    debug_assert!(lambda >= 0.0 && lambda.is_finite(), "Poisson mean {lambda}");
    if lambda < 10.0 {
        let limit = (-lambda).exp();
        let mut k = 0;
        let mut prod: f64 = rng.random();
        while prod > limit {
            k += 1;
            prod *= rng.random::<f64>();
        }
        return k;
    }
    let b = 0.931 + 2.53 * lambda.sqrt();
    let a = -0.059 + 0.02483 * b;
    let ln_inv_alpha = (1.1239 + 1.1328 / (b - 3.4)).ln();
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            // the squeeze region: k ≥ 0 whenever lambda ≥ 10
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if v.ln() + ln_inv_alpha - (a / (us * us) + b).ln() <= poisson_ln_pmf(k, lambda) {
            return k as u64;
        }
    }
}

/// `ln P(X = k)` for `X ~ Poisson(lambda)` and integral `k ≥ 0`: with an
/// exact `ln k!` table below 10, and beyond it Stirling's series through
/// the `k⁻⁷` term (truncation error below `1/(1188 k⁹)` < 10⁻¹²), arranged
/// as `k·ln(1 + (λ − k)/k) + (k − λ)` so that the `k ln λ` and `ln k!`
/// terms cancel before rounding — the result stays accurate to ~10⁻¹⁰
/// however large `lambda` grows.
fn poisson_ln_pmf(k: f64, lambda: f64) -> f64 {
    const LN_FACTORIAL: [f64; 10] = [
        0.0,
        0.0,
        std::f64::consts::LN_2,
        1.791_759_469_228_055,
        3.178_053_830_347_945_8,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
    ];
    if k < 10.0 {
        return k * lambda.ln() - lambda - LN_FACTORIAL[k as usize];
    }
    let r = 1.0 / (k * k);
    let series = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / k;
    k * ((lambda - k) / k).ln_1p() + (k - lambda)
        - 0.5 * (2.0 * std::f64::consts::PI * k).ln()
        - series
}

/// Samples `NegBin(r, p)` — the failures before the `r`-th success of
/// independent Bernoulli(`p`) trials, i.e. the sum of `r` independent
/// `Geom₀(p)` gaps — through the Gamma–Poisson mixture
/// `Poisson(Gamma(r, 1) · (1 − p)/p)`. `r = 0` or `p = 1` gives 0 without
/// drawing.
///
/// This is the no-op-tick law of a Uniform settle segment: `r` moves at
/// hit probability `p = active/(n − 1)` per tick.
pub fn sample_negative_binomial<R: Rng + ?Sized>(r: u64, p: f64, rng: &mut R) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "hit probability {p} out of (0, 1]");
    if r == 0 || p >= 1.0 {
        return 0;
    }
    sample_poisson(sample_gamma_int(r, rng) * ((1.0 - p) / p), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn policies_match_paper_semantics() {
        assert_eq!(Sequential::new().spawn_mode(), SpawnMode::Lazy);
        assert_eq!(Sequential::new().removal(), Removal::Immediate);
        assert_eq!(Parallel::new().removal(), Removal::AtRoundEnd);
        assert_eq!(Parallel::new().spawn_mode(), SpawnMode::Eager);
        assert_eq!(Uniform::new(4).removal(), Removal::Immediate);
        assert_eq!(UniformTicks::new(4).removal(), Removal::Immediate);
        assert_eq!(Ctu::new().removal(), Removal::Immediate);
        assert_eq!(CtuClocks::new().removal(), Removal::Immediate);
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            Sequential::new().label(),
            Parallel::new().label(),
            Uniform::new(2).label(),
            UniformTicks::new(2).label(),
            Ctu::new().label(),
            CtuClocks::new().label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_exponential(2.0, &mut rng))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gamma_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        for shape in [1u64, 5, 32, 100] {
            let trials = 8000;
            let xs: Vec<f64> = (0..trials)
                .map(|_| sample_gamma_int(shape, &mut rng))
                .collect();
            let mean = xs.iter().sum::<f64>() / trials as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
            let s = shape as f64;
            assert!(
                (mean - s).abs() < 0.1 * s.max(3.0),
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - s).abs() < 0.25 * s.max(3.0),
                "shape {shape}: var {var}"
            );
        }
        assert_eq!(sample_gamma_int(0, &mut rng), 0.0);
    }

    #[test]
    fn poisson_ln_pmf_matches_the_direct_formula() {
        // against −λ + k ln λ − Σ ln i, on both sides of the table/series
        // switch, at means where the direct form is still accurate
        for lambda in [10.0_f64, 37.5, 1000.0] {
            let mut ln_fact = 0.0_f64;
            for k in 0..3000u64 {
                if k > 0 {
                    ln_fact += (k as f64).ln();
                }
                let direct = -lambda + k as f64 * lambda.ln() - ln_fact;
                let got = poisson_ln_pmf(k as f64, lambda);
                assert!(
                    (got - direct).abs() <= 1e-9 * direct.abs().max(1.0),
                    "λ = {lambda}, k = {k}: {got} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn certain_hit_or_no_moves_draws_nothing() {
        struct NoDraws;
        impl rand::rand_core::TryRng for NoDraws {
            type Error = std::convert::Infallible;
            fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
                unreachable!("a draw was consumed")
            }
            fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
                unreachable!("a draw was consumed")
            }
            fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), Self::Error> {
                unreachable!("a draw was consumed")
            }
        }
        assert_eq!(sample_negative_binomial(1000, 1.0, &mut NoDraws), 0);
        assert_eq!(sample_negative_binomial(0, 0.25, &mut NoDraws), 0);
        assert_eq!(sample_gamma_int(0, &mut NoDraws), 0.0);
    }

    #[test]
    fn ctu_clocks_heap_orders_by_time() {
        let mut c = CtuClocks::new();
        for (t, pid) in [(3.0, 1), (1.0, 2), (2.0, 3), (1.0, 1), (0.5, 9)] {
            c.push(t, pid);
        }
        let mut drained = Vec::new();
        while let Some(x) = c.pop() {
            drained.push(x);
        }
        assert_eq!(
            drained,
            vec![(0.5, 9), (1.0, 1), (1.0, 2), (2.0, 3), (3.0, 1)]
        );
    }
}
