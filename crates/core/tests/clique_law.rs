//! Exact-law gates for the event-chain schedules on the clique, where the
//! dispersion time has a closed-form mean.
//!
//! On `K_n` with `m = n − 1` particles to place, an active particle sits
//! on an occupied vertex and, with `a` particles active, `a` of its `m`
//! neighbours are vacant. So under [`schedule::Uniform`] a tick moves an
//! active particle with probability `a/m` and that move settles with
//! probability `a/m`: every tick settles with probability `(a/m)²`, and
//! `E[settle_tick] = Σ_{a=1}^{m} m²/a²`. Under [`schedule::Ctu`] settles
//! arrive at rate `a · a/m`, so `E[time] = Σ_{a=1}^{m} m/a²` — the
//! Theorem 5.2 `π²/6` constant.
//!
//! Unlike the twin comparisons of `schedule_equivalence.rs`, these gates
//! hold each schedule against the exact value: the sample mean of 20 000
//! trials must sit within 4 standard errors of it. A negative control
//! feeds the gate a schedule that drops the settling move's own no-op gap
//! (`NegBin(M − 1, p)` instead of `NegBin(M, p)`) — a shift of about 235
//! ticks at `n = 64`, or 8 standard errors — and expects rejection.

mod common;

use common::{mean, std_error};
use dispersion_core::engine::schedule::{self, sample_negative_binomial, Event, Schedule};
use dispersion_core::engine::{self, EngineConfig, EngineOutcome, EngineView, FirstVacant};
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::topology::Complete;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

const TRIALS: u64 = 20_000;

/// `E[settle_tick]` of Uniform-IDLA on `K_n`.
fn uniform_mean(n: usize) -> f64 {
    let m = (n - 1) as f64;
    (1..n).map(|a| m * m / (a * a) as f64).sum()
}

/// `E[time]` of CTU-IDLA on `K_n`.
fn ctu_mean(n: usize) -> f64 {
    let m = (n - 1) as f64;
    (1..n).map(|a| m / (a * a) as f64).sum()
}

/// One statistic per trial of `make()`'s schedule on `K_n`, seeds
/// `seed0..seed0 + TRIALS`.
fn sample<S: Schedule>(
    n: usize,
    make: impl Fn() -> S,
    seed0: u64,
    stat: fn(&EngineOutcome) -> f64,
) -> Vec<f64> {
    let g = Complete::new(n);
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    (seed0..seed0 + TRIALS)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = engine::run(&g, &mut make(), &FirstVacant, &ecfg, &mut (), &mut rng).unwrap();
            stat(&out)
        })
        .collect()
}

/// `Err` with the z-score when the sample mean is more than 4 standard
/// errors from `exact`.
fn gate(xs: &[f64], exact: f64) -> Result<f64, f64> {
    let z = (mean(xs) - exact) / std_error(xs);
    if z.abs() <= 4.0 {
        Ok(z)
    } else {
        Err(z)
    }
}

fn settle_tick(o: &EngineOutcome) -> f64 {
    o.settle_tick as f64
}

fn settle_time(o: &EngineOutcome) -> f64 {
    o.time
}

#[test]
fn uniform_settle_tick_mean_is_exact_on_the_clique() {
    for (i, n) in [16usize, 64].into_iter().enumerate() {
        let xs = sample(
            n,
            || schedule::Uniform::new(n),
            100_000 * i as u64,
            settle_tick,
        );
        match gate(&xs, uniform_mean(n)) {
            Ok(z) => println!("K_{n} Uniform: z = {z:.2}"),
            Err(z) => panic!(
                "K_{n} Uniform: mean settle tick {} vs exact {} (z = {z})",
                mean(&xs),
                uniform_mean(n)
            ),
        }
    }
}

#[test]
fn ctu_settle_time_mean_is_exact_on_the_clique() {
    for (i, n) in [16usize, 64].into_iter().enumerate() {
        let xs = sample(
            n,
            schedule::Ctu::new,
            300_000 + 100_000 * i as u64,
            settle_time,
        );
        match gate(&xs, ctu_mean(n)) {
            Ok(z) => println!("K_{n} CTU: z = {z:.2}"),
            Err(z) => panic!(
                "K_{n} CTU: mean settle time {} vs exact {} (z = {z})",
                mean(&xs),
                ctu_mean(n)
            ),
        }
    }
}

/// The Uniform event chain with the classic off-by-one: each settle
/// segment's no-op ticks drawn for `M − 1` moves, forgetting the gap
/// before the settling move itself.
struct DroppedGap {
    n: usize,
    moves: u64,
}

impl Schedule for DroppedGap {
    fn label(&self) -> &'static str {
        "uniform-dropped-gap"
    }

    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        self.moves += 1;
        Event::Step {
            pid: view.active[rng.random_range(0..view.active.len())],
            dt: 0.0,
        }
    }

    fn settle_clock<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> (u64, f64) {
        let hit = view.active.len() as f64 / (self.n - 1) as f64;
        let moves = std::mem::take(&mut self.moves);
        (sample_negative_binomial(moves - 1, hit, rng), 0.0)
    }
}

#[test]
fn gate_rejects_a_dropped_settling_gap() {
    let n = 64;
    let xs = sample(n, || DroppedGap { n, moves: 0 }, 900_000, settle_tick);
    match gate(&xs, uniform_mean(n)) {
        Ok(z) => panic!(
            "dropping the settling move's gap passed the gate: mean {} vs exact {} (z = {z})",
            mean(&xs),
            uniform_mean(n)
        ),
        Err(z) => {
            println!("K_{n} dropped gap: z = {z:.2}");
            assert!(z < 0.0, "the dropped gap must shorten the run (z = {z})");
        }
    }
}
