//! Streaming observers: statistics extracted from a dispersion run *while
//! it executes*, so large-`n` experiments never materialise per-step state
//! they do not need.
//!
//! A finished run is read from its [`super::EngineOutcome`] (per-particle
//! steps, settle tick, rounds, real time) through
//! [`crate::Process::dispersion_of`]; observers carry only what the outcome
//! cannot hold: event counts ([`Odometer`]), whole trajectories
//! ([`TrajectoryBlock`]), mid-run aggregate shapes ([`AggregateShape`]) and
//! phase boundaries ([`PhaseTimes`]).
//!
//! Observers compose: a pair or triple of observers is itself an observer,
//! so one engine pass can stream aggregate shape and phase boundaries
//! together (`(&mut shape, &mut phases)`).

use super::EngineView;
use crate::aggregate::{shape_stats, ShapeStats};
use crate::block::algorithms::TimedBlock;
use crate::block::Block;
use dispersion_graphs::Vertex;

/// Hooks invoked by the engine as a run unfolds. All default to no-ops, so
/// an observer implements only what it needs and costs nothing elsewhere.
pub trait Observer {
    /// Particle `pid` was placed at `pos` (before any settling check).
    #[inline]
    fn on_spawn(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        let _ = (pid, pos, view);
    }

    /// The run is about to begin. For eager-spawn schedules this fires
    /// after the initial placement (origin already settled); for lazy-spawn
    /// schedules it fires before any particle exists.
    #[inline]
    fn on_start(&mut self, view: &EngineView<'_>) {
        let _ = view;
    }

    /// A tick was consumed by particle `pid` — fires for moves *and* for
    /// explicit Uniform no-op ticks, in schedule order (the realized
    /// schedule `R_t` under tick-loop schedules). The event-chain
    /// [`crate::engine::schedule::Uniform`] never simulates no-op ticks —
    /// it reports them in bulk through [`Observer::on_skip`] — so only move
    /// ticks reach this hook there, and `view.clock` is exact only when
    /// the move settles (between settles it lags the segment's no-op
    /// ticks and, under CTU, its real time).
    #[inline]
    fn on_tick(&mut self, pid: usize, view: &EngineView<'_>) {
        let _ = (pid, view);
    }

    /// An event-chain schedule retired the `noops ≥ 1` no-op ticks of one
    /// settle segment (every move since the previous settle). Fires at
    /// most once per settle, before the settling move's
    /// [`Observer::on_tick`]/[`Observer::on_step`]/[`Observer::on_settle`];
    /// `view.clock.ticks` already includes the `noops`, so tick-clock
    /// readings at settles (settle ticks, phase boundaries) mean what they
    /// mean under the tick-by-tick loop, and per-tick counters add `noops`
    /// here to stay in agreement.
    #[inline]
    fn on_skip(&mut self, noops: u64, view: &EngineView<'_>) {
        let _ = (noops, view);
    }

    /// Particle `pid` stepped to `pos` (after the particle arrays updated).
    #[inline]
    fn on_step(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        let _ = (pid, pos, view);
    }

    /// Particle `pid` settled at `pos` (occupancy already updated).
    #[inline]
    fn on_settle(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        let _ = (pid, pos, view);
    }

    /// A Parallel round completed (`view.clock.rounds` counts it).
    #[inline]
    fn on_round(&mut self, view: &EngineView<'_>) {
        let _ = view;
    }

    /// The run terminated (every particle settled).
    #[inline]
    fn on_finish(&mut self, view: &EngineView<'_>) {
        let _ = view;
    }
}

/// The no-op observer: an unobserved run.
impl Observer for () {}

impl<T: Observer + ?Sized> Observer for &mut T {
    #[inline]
    fn on_spawn(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        (**self).on_spawn(pid, pos, view);
    }
    #[inline]
    fn on_start(&mut self, view: &EngineView<'_>) {
        (**self).on_start(view);
    }
    #[inline]
    fn on_tick(&mut self, pid: usize, view: &EngineView<'_>) {
        (**self).on_tick(pid, view);
    }
    #[inline]
    fn on_skip(&mut self, noops: u64, view: &EngineView<'_>) {
        (**self).on_skip(noops, view);
    }
    #[inline]
    fn on_step(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        (**self).on_step(pid, pos, view);
    }
    #[inline]
    fn on_settle(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        (**self).on_settle(pid, pos, view);
    }
    #[inline]
    fn on_round(&mut self, view: &EngineView<'_>) {
        (**self).on_round(view);
    }
    #[inline]
    fn on_finish(&mut self, view: &EngineView<'_>) {
        (**self).on_finish(view);
    }
}

macro_rules! impl_observer_tuple {
    ($($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($name: Observer),+> Observer for ($($name,)+) {
            #[inline]
            fn on_spawn(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_spawn(pid, pos, view);)+
            }
            #[inline]
            fn on_start(&mut self, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_start(view);)+
            }
            #[inline]
            fn on_tick(&mut self, pid: usize, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_tick(pid, view);)+
            }
            #[inline]
            fn on_skip(&mut self, noops: u64, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_skip(noops, view);)+
            }
            #[inline]
            fn on_step(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_step(pid, pos, view);)+
            }
            #[inline]
            fn on_settle(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_settle(pid, pos, view);)+
            }
            #[inline]
            fn on_round(&mut self, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_round(view);)+
            }
            #[inline]
            fn on_finish(&mut self, view: &EngineView<'_>) {
                let ($($name,)+) = self;
                $($name.on_finish(view);)+
            }
        }
    };
}

impl_observer_tuple!(A, B);
impl_observer_tuple!(A, B, C);

/// Event counters — the run's odometer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Odometer {
    /// Walk steps performed (all particles).
    pub steps: u64,
    /// Ticks consumed (≥ `steps`; the difference is Uniform no-op ticks).
    pub ticks: u64,
    /// Settle events.
    pub settles: u64,
    /// Completed Parallel rounds.
    pub rounds: u64,
}

impl Observer for Odometer {
    #[inline]
    fn on_tick(&mut self, _pid: usize, _view: &EngineView<'_>) {
        self.ticks += 1;
    }
    #[inline]
    fn on_skip(&mut self, noops: u64, _view: &EngineView<'_>) {
        self.ticks += noops;
    }
    #[inline]
    fn on_step(&mut self, _pid: usize, _pos: Vertex, _view: &EngineView<'_>) {
        self.steps += 1;
    }
    #[inline]
    fn on_settle(&mut self, _pid: usize, _pos: Vertex, _view: &EngineView<'_>) {
        self.settles += 1;
    }
    #[inline]
    fn on_round(&mut self, _view: &EngineView<'_>) {
        self.rounds += 1;
    }
}

/// Full trajectory recorder feeding the Section 4 Cut & Paste machinery:
/// rows (one per particle), optionally the per-jump tick array (Uniform
/// timing) and the realized schedule `R_t`.
#[derive(Clone, Debug, Default)]
pub struct TrajectoryBlock {
    rows: Vec<Vec<Vertex>>,
    times: Option<Vec<Vec<u64>>>,
    schedule: Option<Vec<usize>>,
}

impl TrajectoryBlock {
    /// Records rows only (Sequential/Parallel realization blocks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Also records jump ticks and the realized schedule (Uniform runs —
    /// everything [`crate::block::parallel_to_uniform`] needs to reenact
    /// the run, per the Theorem 4.7 bijection).
    ///
    /// Exact per-jump ticks and the full realized schedule `R_t` (the
    /// identity of every no-op draw) need the tick-loop twin
    /// [`crate::engine::schedule::UniformTicks`]: pass it to
    /// [`crate::engine::run`] together with this observer. Under the
    /// event-chain [`crate::engine::schedule::Uniform`] (what
    /// [`crate::Process::Uniform`] runs) the clock lags between settles:
    /// the rows are still exact, but a jump tick is exact only on a
    /// settling move (earlier moves lag their segment's no-op ticks) and
    /// the schedule array holds only the move ticks.
    pub fn with_timing() -> Self {
        TrajectoryBlock {
            rows: Vec::new(),
            times: Some(Vec::new()),
            schedule: Some(Vec::new()),
        }
    }

    /// The recorded rows as a [`Block`].
    pub fn into_block(self) -> Block {
        Block::from_rows(self.rows)
    }

    /// The recorded rows, timing array and schedule. `times`/`schedule` are
    /// `None` unless built via [`TrajectoryBlock::with_timing`].
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Block, Option<TimedBlock>, Option<Vec<usize>>) {
        let block = Block::from_rows(self.rows);
        let timed = self.times.map(|times| TimedBlock {
            block: block.clone(),
            times,
        });
        (block, timed, self.schedule)
    }
}

impl Observer for TrajectoryBlock {
    fn on_spawn(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        if self.rows.len() <= pid {
            self.rows.resize(pid + 1, Vec::new());
        }
        self.rows[pid].push(pos);
        if let Some(times) = self.times.as_mut() {
            if times.len() <= pid {
                times.resize(pid + 1, Vec::new());
            }
            times[pid].push(view.clock.ticks);
        }
    }

    fn on_tick(&mut self, pid: usize, _view: &EngineView<'_>) {
        if let Some(schedule) = self.schedule.as_mut() {
            schedule.push(pid);
        }
    }

    fn on_step(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        self.rows[pid].push(pos);
        if let Some(times) = self.times.as_mut() {
            times[pid].push(view.clock.ticks);
        }
    }
}

/// Radial shape of the growing aggregate on a torus, snapshotted at fixed
/// fill levels — the Proposition 5.10 ball-shape mechanism, streamed
/// instead of reconstructed from trajectories.
#[derive(Clone, Debug)]
pub struct AggregateShape {
    origin: Vertex,
    dims: Vec<usize>,
    thresholds: Vec<usize>,
    next: usize,
    /// `(settled_count, stats)` per reached threshold, in fill order.
    pub snapshots: Vec<(usize, ShapeStats)>,
}

impl AggregateShape {
    /// Snapshot the aggregate around `origin` on a torus with side lengths
    /// `dims` whenever the settled count first reaches a threshold.
    /// Thresholds are deduplicated and taken in ascending order.
    pub fn at_counts(origin: Vertex, dims: &[usize], thresholds: &[usize]) -> Self {
        let mut thresholds = thresholds.to_vec();
        thresholds.sort_unstable();
        thresholds.dedup();
        AggregateShape {
            origin,
            dims: dims.to_vec(),
            thresholds,
            next: 0,
            snapshots: Vec::new(),
        }
    }
}

impl Observer for AggregateShape {
    fn on_settle(&mut self, _pid: usize, _pos: Vertex, view: &EngineView<'_>) {
        let count = view.occ.settled_count();
        while self.next < self.thresholds.len() && count >= self.thresholds[self.next] {
            self.snapshots
                .push((count, shape_stats(view.occ, self.origin, &self.dims)));
            self.next += 1;
        }
    }
}

/// Phase boundaries in the sense of Theorems 3.3/3.5: `phases[j]` is the
/// first clock value at which at most `2^j − 1` particles remain
/// unsettled. `phases[0]` is the full dispersion time; the tail of the
/// array captures the fast early phases the spectral bounds sum over.
///
/// The default clock ([`PhaseTimes::for_particles`]) is the settling
/// particle's own step count — the round number under the Parallel
/// schedule, where every unsettled particle has walked equally far. Under
/// schedules without that invariant (Sequential, CTU) use
/// [`PhaseTimes::in_ticks`], which records the engine's global tick count
/// (total walk steps consumed) and is monotone for every schedule.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// `phases[j]`: first clock value with fewer than `2^j` unsettled
    /// particles (`u64::MAX` while unreached).
    pub phases: Vec<u64>,
    ticks: bool,
}

impl PhaseTimes {
    /// Tracks `⌈log₂ k⌉ + 1` thresholds for a `k`-particle run on the
    /// per-particle step clock (round numbers under Parallel).
    pub fn for_particles(k: usize) -> Self {
        let jmax = (k as f64).log2().ceil() as usize + 1;
        PhaseTimes {
            phases: vec![u64::MAX; jmax],
            ticks: false,
        }
    }

    /// Like [`PhaseTimes::for_particles`], but on the engine's global tick
    /// clock — meaningful under any schedule.
    pub fn in_ticks(k: usize) -> Self {
        PhaseTimes {
            ticks: true,
            ..Self::for_particles(k)
        }
    }

    /// The profile index of the "half settled" milestone of a `k`-particle
    /// run: the largest `j` with `2^j ≤ k/2`, so `phases[half_index(k)]` is
    /// the first clock value at which fewer than `2^j ≈ k/2` particles
    /// remained unsettled. Always in range for a
    /// [`PhaseTimes::for_particles`]`(k)` profile.
    pub fn half_index(k: usize) -> usize {
        (k / 2).max(1).ilog2() as usize
    }

    fn record(&mut self, unsettled: usize, clock: u64) {
        for (j, slot) in self.phases.iter_mut().enumerate() {
            if unsettled < (1usize << j) && *slot == u64::MAX {
                *slot = clock;
            }
        }
    }
}

impl Observer for PhaseTimes {
    fn on_start(&mut self, view: &EngineView<'_>) {
        if self.phases.is_empty() {
            let ticks = self.ticks;
            *self = PhaseTimes::for_particles(view.particles);
            self.ticks = ticks;
        }
        self.record(view.unsettled, 0);
    }

    fn on_settle(&mut self, pid: usize, _pos: Vertex, view: &EngineView<'_>) {
        let clock = if self.ticks {
            view.clock.ticks
        } else {
            view.steps[pid]
        };
        self.record(view.unsettled, clock);
    }
}
