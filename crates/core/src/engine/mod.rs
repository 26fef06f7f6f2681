//! The schedule-generic dispersion engine.
//!
//! One hot loop serves every IDLA scheduling variant of the paper. A
//! [`Schedule`] decides *who moves this tick* (Sequential, Parallel,
//! Uniform, CTU — small state machines over flat SoA particle arrays with a
//! swap-remove active list); a [`SettleRule`] decides *whether a particle
//! on a vacant vertex settles* (Appendix A generalized stopping); an
//! [`Observer`] streams statistics out of the run (dispersion times,
//! realization blocks, aggregate shapes, phase boundaries) without
//! materialising per-step state.
//!
//! The loop is generic over [`Topology`], the graph-as-neighbour-oracle
//! trait: pass a CSR [`dispersion_graphs::Graph`] for arbitrary graphs, or
//! one of the implicit families (`dispersion_graphs::topology::{Torus2d,
//! Cycle, Path, Hypercube, Complete}`) to run with closed-form neighbour
//! math and **zero adjacency storage** — the monomorphised loop then has
//! no per-step memory indirection and million-vertex torus runs (Open
//! Problem 1 territory) stop being memory-bound.
//!
//! The historical entry points (`process::sequential::run_sequential` and
//! friends) are thin wrappers over [`run`]; call the engine directly to
//! compose observers or to run `k < n` particles / random origins under any
//! schedule:
//!
//! ```
//! use dispersion_core::engine::{self, observer::{DispersionTime, PhaseTimes}};
//! use dispersion_core::process::ProcessConfig;
//! use dispersion_graphs::generators::torus2d;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = torus2d(8);
//! let cfg = engine::EngineConfig::full(&g, 0, &ProcessConfig::simple());
//! let mut time = DispersionTime::default();
//! let mut phases = PhaseTimes::default();
//! let mut rng = StdRng::seed_from_u64(7);
//! let out = engine::run(
//!     &g,
//!     &mut engine::schedule::Parallel::new(),
//!     &engine::rule::FirstVacant,
//!     &cfg,
//!     &mut (&mut time, &mut phases),
//!     &mut rng,
//! )
//! .unwrap();
//! assert_eq!(time.max_steps, out.steps.iter().copied().max().unwrap());
//! assert_eq!(phases.phases[0], time.max_steps);
//! ```

pub mod observer;
pub mod partition;
pub mod rule;
pub mod schedule;

pub use observer::Observer;
pub use rule::{FirstVacant, SettleRule};
pub use schedule::Schedule;

use crate::occupancy::Occupancy;
use crate::process::ProcessConfig;
use dispersion_graphs::walk::step;
use dispersion_graphs::{Topology, Vertex, WalkKind};
use rand::{Rng, RngExt};
use schedule::{Event, Removal, SpawnMode};

/// Why an engine run aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The tick count exceeded the configured safety cap — the schedule
    /// cannot terminate (disconnected graph, or a settle rule that refuses
    /// every vacancy).
    StepCapExceeded {
        /// Label of the schedule that overran.
        schedule: &'static str,
        /// The cap that fired.
        cap: u64,
        /// Particles still unsettled when the cap fired.
        unsettled: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StepCapExceeded {
                schedule,
                cap,
                unsettled,
            } => write!(
                f,
                "{schedule} run exceeded step cap {cap} with {unsettled} particles unsettled"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Where particles start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origins {
    /// Everyone starts at one vertex (the paper's standard setup).
    Single(Vertex),
    /// Each particle starts at an independent uniform vertex (§6.2
    /// extension). Requires a lazy-spawn schedule (Sequential), because the
    /// origin draw of particle `i` must see the occupancy left by
    /// particles `< i`.
    RandomUniform,
}

/// Engine-level configuration of one run.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Walk variant the particles perform.
    pub walk: WalkKind,
    /// Safety cap on the total number of ticks (= walk steps for all
    /// schedules except Uniform, where no-op ticks also count).
    pub step_cap: u64,
    /// Start placement.
    pub origins: Origins,
    /// Number of particles (`1..=g.n()`).
    pub particles: usize,
    /// Intra-trial walker threads for round-structured schedules (see
    /// [`ProcessConfig::walker_threads`]); `1` means the serial engine.
    pub walker_threads: usize,
}

impl EngineConfig {
    /// The standard full run: `g.n()` particles from `origin`, walk flavour
    /// and cap taken from `cfg`. Accepts any [`Topology`] backend.
    pub fn full<T: Topology + ?Sized>(g: &T, origin: Vertex, cfg: &ProcessConfig) -> Self {
        Self::with_particles(g.n(), origin, cfg)
    }

    /// A `k`-particle run from `origin` (§6.2 "fewer particles than
    /// sites").
    pub fn with_particles(k: usize, origin: Vertex, cfg: &ProcessConfig) -> Self {
        EngineConfig {
            walk: cfg.walk,
            step_cap: cfg.step_cap,
            origins: Origins::Single(origin),
            particles: k,
            walker_threads: cfg.walker_threads,
        }
    }

    /// A `k`-particle run with independent uniform origins (§6.2).
    pub fn random_origins(k: usize, cfg: &ProcessConfig) -> Self {
        EngineConfig {
            walk: cfg.walk,
            step_cap: cfg.step_cap,
            origins: Origins::RandomUniform,
            particles: k,
            walker_threads: cfg.walker_threads,
        }
    }
}

/// The engine's clocks, advanced per event.
///
/// Under [`schedule::Uniform`] and [`schedule::Ctu`] the no-op ticks and
/// real time of a settle segment are added at its settling move
/// ([`Schedule::settle_clock`]): the clocks are exact at every settle and
/// at the end of the run, and lag in between.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Clock {
    /// Ticks consumed (walk steps + Uniform no-op ticks).
    pub ticks: u64,
    /// Completed Parallel rounds (0 under other schedules).
    pub rounds: u64,
    /// Real time (CTU exponential delays; 0 under discrete schedules).
    pub time: f64,
}

/// Read-only view of the engine state handed to schedules and observers.
pub struct EngineView<'a> {
    /// Active list: indices of unsettled particles. Order is
    /// schedule-dependent (ascending for Parallel, scrambled by swap-remove
    /// otherwise); empty under lazy-spawn schedules.
    pub active: &'a [usize],
    /// `settled[i]`: whether particle `i` has settled.
    pub settled: &'a [bool],
    /// `steps[i]`: walk steps particle `i` has performed so far.
    pub steps: &'a [u64],
    /// `positions[i]`: current vertex of particle `i` (its origin until it
    /// first moves; unspecified for unspawned particles).
    pub positions: &'a [Vertex],
    /// Occupancy bitmap of the growing aggregate.
    pub occ: &'a Occupancy,
    /// The engine clocks.
    pub clock: Clock,
    /// Particles not yet settled.
    pub unsettled: usize,
    /// Total particles in the run.
    pub particles: usize,
}

/// What a completed run produced, in every schedule's native unit.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// `steps[i]`: walk steps particle `i` performed before settling.
    pub steps: Vec<u64>,
    /// `settled_at[i]`: the vertex where particle `i` settled.
    pub settled_at: Vec<Vertex>,
    /// Total walk steps across all particles.
    pub total_steps: u64,
    /// Total ticks (= `total_steps` + Uniform no-op ticks).
    pub ticks: u64,
    /// Tick at which the last particle settled (the Uniform dispersion
    /// time).
    pub settle_tick: u64,
    /// Completed Parallel rounds.
    pub rounds: u64,
    /// Real time at which the last particle settled (the CTU dispersion
    /// time).
    pub time: f64,
}

impl EngineOutcome {
    /// The discrete dispersion time `max_i steps[i]`.
    pub fn dispersion_time(&self) -> u64 {
        self.steps.iter().copied().max().unwrap_or(0)
    }
}

/// Runs one dispersion realization of `schedule` under `rule`, streaming
/// events into `obs`.
///
/// Generic over the graph backend: any [`Topology`] works, and the loop
/// monomorphises per backend so implicit families pay no dispatch cost.
///
/// Returns [`EngineError::StepCapExceeded`] instead of panicking when the
/// cap fires, so drivers can report partial progress at large `n`.
///
/// # Panics
///
/// Panics on configuration errors: `particles` outside `1..=g.n()`, an
/// out-of-range origin, or [`Origins::RandomUniform`] under an eager-spawn
/// schedule.
pub fn run<T, S, Q, O, R>(
    g: &T,
    schedule: &mut S,
    rule: &Q,
    cfg: &EngineConfig,
    obs: &mut O,
    rng: &mut R,
) -> Result<EngineOutcome, EngineError>
where
    T: Topology + ?Sized,
    S: Schedule,
    Q: SettleRule,
    O: Observer,
    R: Rng + ?Sized,
{
    let n = g.n();
    let k = cfg.particles;
    assert!(k >= 1 && k <= n, "particle count {k} out of range 1..={n}");
    if let Origins::Single(v) = cfg.origins {
        assert!((v as usize) < n, "origin {v} out of range");
    }
    let lazy = schedule.spawn_mode() == SpawnMode::Lazy;
    assert!(
        !matches!(cfg.origins, Origins::RandomUniform) || lazy,
        "random origins require a lazy-spawn schedule"
    );
    schedule.check_particles(k);

    // flat SoA particle state
    let mut occ = Occupancy::new(n);
    let mut positions: Vec<Vertex> = vec![0; k];
    let mut steps = vec![0u64; k];
    let mut settled = vec![false; k];
    let mut settled_at: Vec<Vertex> = vec![0; k];
    let mut spawned = if lazy { vec![false; k] } else { Vec::new() };
    let mut active: Vec<usize> = Vec::new();
    let mut slot_of: Vec<usize> = vec![usize::MAX; k];
    let mut unsettled = k;
    let mut ticks: u64 = 0;
    let mut rounds: u64 = 0;
    let mut time: f64 = 0.0;
    let mut settle_tick: u64 = 0;

    // A fresh immutable view over the locals; rebuilt at every observer /
    // schedule call so the borrow never outlives the mutation sites.
    macro_rules! view {
        () => {
            EngineView {
                active: &active,
                settled: &settled,
                steps: &steps,
                positions: &positions,
                occ: &occ,
                clock: Clock {
                    ticks,
                    rounds,
                    time,
                },
                unsettled,
                particles: k,
            }
        };
    }

    macro_rules! settle {
        ($pid:expr, $pos:expr) => {{
            occ.settle($pos);
            settled[$pid] = true;
            settled_at[$pid] = $pos;
            unsettled -= 1;
            settle_tick = ticks;
            obs.on_settle($pid, $pos, &view!());
        }};
    }

    if !lazy {
        // eager spawn: everyone placed at time 0, vacant starts settle
        // instantly (particle 0 claims the origin)
        let origin = match cfg.origins {
            Origins::Single(v) => v,
            // LINT: engine-no-panic-ok — invariant: run() rejects
            // RandomUniform with an eager schedule before this loop starts
            Origins::RandomUniform => unreachable!(),
        };
        for pid in 0..k {
            positions[pid] = origin;
            obs.on_spawn(pid, origin, &view!());
            if !occ.is_occupied(origin) {
                settle!(pid, origin);
            }
        }
        active.extend((0..k).filter(|&pid| !settled[pid]));
        for (s, &pid) in active.iter().enumerate() {
            slot_of[pid] = s;
        }
    }

    obs.on_start(&view!());

    let removal = schedule.removal();
    while unsettled > 0 {
        match schedule.next(&view!(), rng) {
            Event::NewRound => {
                rounds += 1;
                // ordered in-place compaction: drop settled particles,
                // keep ascending order for the next tie-breaking scan
                active.retain(|&pid| !settled[pid]);
                for (s, &pid) in active.iter().enumerate() {
                    slot_of[pid] = s;
                }
                obs.on_round(&view!());
            }
            Event::Noop { pid } => {
                ticks += 1;
                if ticks > cfg.step_cap {
                    return Err(EngineError::StepCapExceeded {
                        schedule: schedule.label(),
                        cap: cfg.step_cap,
                        unsettled,
                    });
                }
                obs.on_tick(pid, &view!());
            }
            Event::Step { pid, dt } => {
                if lazy && !spawned[pid] {
                    spawned[pid] = true;
                    // a single-origin spawn settles unconditionally (the
                    // paper's convention: the origin is occupied from time
                    // 0 — only particle 0 ever finds it vacant); a
                    // random-origin spawn is an ordinary arrival and must
                    // satisfy the settle rule at walk step 0
                    let (pos, rule_free) = match cfg.origins {
                        Origins::Single(v) => (v, true),
                        Origins::RandomUniform => (rng.random_range(0..n) as Vertex, false),
                    };
                    positions[pid] = pos;
                    obs.on_spawn(pid, pos, &view!());
                    if !occ.is_occupied(pos) && (rule_free || rule.should_settle(0, pos)) {
                        settle!(pid, pos);
                    }
                    // an unsettled spawn walks on the next tick
                    continue;
                }
                ticks += 1;
                if ticks > cfg.step_cap {
                    return Err(EngineError::StepCapExceeded {
                        schedule: schedule.label(),
                        cap: cfg.step_cap,
                        unsettled,
                    });
                }
                time += dt;
                let pos = step(g, cfg.walk, positions[pid], rng);
                positions[pid] = pos;
                steps[pid] += 1;
                let settles = !occ.is_occupied(pos) && rule.should_settle(steps[pid], pos);
                if settles {
                    // close the settle segment's clock before anyone sees
                    // the settling move, so clocks are exact at every
                    // settle; an overrun anywhere inside the segment
                    // surfaces here with the same unsettled count
                    let (noops, dt) = schedule.settle_clock(&view!(), rng);
                    ticks = ticks.saturating_add(noops);
                    time += dt;
                    if ticks > cfg.step_cap {
                        return Err(EngineError::StepCapExceeded {
                            schedule: schedule.label(),
                            cap: cfg.step_cap,
                            unsettled,
                        });
                    }
                    if noops > 0 {
                        obs.on_skip(noops, &view!());
                    }
                }
                obs.on_tick(pid, &view!());
                obs.on_step(pid, pos, &view!());
                if settles {
                    settle!(pid, pos);
                    if removal == Removal::Immediate && slot_of[pid] != usize::MAX {
                        let s = slot_of[pid];
                        active.swap_remove(s);
                        slot_of[pid] = usize::MAX;
                        if s < active.len() {
                            slot_of[active[s]] = s;
                        }
                    }
                }
            }
        }
    }

    // the loop exits the moment the last particle settles, which under a
    // round-structured schedule happens inside a round whose NewRound
    // boundary will never be drawn — close it so `rounds` counts every
    // completed round (= the round-unit dispersion time for Parallel)
    if removal == Removal::AtRoundEnd && ticks > 0 {
        rounds += 1;
        active.clear();
        obs.on_round(&view!());
    }
    obs.on_finish(&view!());
    let total_steps = steps.iter().sum();
    Ok(EngineOutcome {
        steps,
        settled_at,
        total_steps,
        ticks,
        settle_tick,
        rounds,
        time,
    })
}

#[cfg(test)]
mod tests {
    use super::observer::{DispersionTime, Odometer, PerParticleSteps, PhaseTimes};
    use super::*;
    use dispersion_graphs::generators::{complete, cycle, torus2d};
    use dispersion_graphs::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple(g: &Graph) -> EngineConfig {
        EngineConfig::full(g, 0, &ProcessConfig::simple())
    }

    #[test]
    fn every_schedule_settles_every_vertex() {
        let g = cycle(13);
        let cfg = simple(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let mut outcomes = vec![
            run(
                &g,
                &mut schedule::Sequential::new(),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
            run(
                &g,
                &mut schedule::Parallel::new(),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
            run(
                &g,
                &mut schedule::Uniform::new(g.n()),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
            run(
                &g,
                &mut schedule::Ctu::new(),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
        ];
        for out in outcomes.drain(..) {
            let mut s = out.settled_at.clone();
            s.sort_unstable();
            assert_eq!(s, (0..13).collect::<Vec<_>>());
            assert_eq!(out.total_steps, out.steps.iter().sum::<u64>());
        }
    }

    #[test]
    fn cap_returns_error_not_panic() {
        let g = cycle(64);
        let mut cfg = simple(&g);
        cfg.step_cap = 16;
        let mut rng = StdRng::seed_from_u64(2);
        let err = run(
            &g,
            &mut schedule::Sequential::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut rng,
        )
        .unwrap_err();
        match err {
            EngineError::StepCapExceeded { schedule, cap, .. } => {
                assert_eq!(schedule, "sequential");
                assert_eq!(cap, 16);
            }
        }
        assert!(err.to_string().contains("step cap"));
    }

    #[test]
    fn cap_overrun_in_the_last_settle_segment_surfaces_at_its_end() {
        // the cap check consumes no draws, so a capped rerun replays the
        // uncapped run exactly until the overrun: a cap one tick short of
        // the final settle trips on the last segment, with one particle
        // still unsettled, and a cap at the final settle does not trip
        let g = cycle(24);
        for seed in 0..8 {
            let run_capped = |cap: u64| {
                let mut cfg = simple(&g);
                cfg.step_cap = cap;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sched = schedule::Uniform::new(g.n());
                run(&g, &mut sched, &FirstVacant, &cfg, &mut (), &mut rng)
            };
            let full = run_capped(u64::MAX).unwrap();
            assert_eq!(run_capped(full.ticks).unwrap().ticks, full.ticks);
            assert_eq!(
                run_capped(full.ticks - 1).unwrap_err(),
                EngineError::StepCapExceeded {
                    schedule: "uniform",
                    cap: full.ticks - 1,
                    unsettled: 1,
                }
            );
        }
    }

    #[test]
    fn observers_compose_in_one_pass() {
        let g = torus2d(6);
        let cfg = simple(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        let mut per = PerParticleSteps::default();
        let mut phases = PhaseTimes::default();
        let out = run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &cfg,
            &mut (&mut time, &mut odo, &mut per, &mut phases),
            &mut rng,
        )
        .unwrap();
        assert_eq!(time.max_steps, out.dispersion_time());
        assert_eq!(odo.steps, out.total_steps);
        assert_eq!(odo.settles as usize, g.n());
        assert_eq!(per.steps, out.steps);
        assert_eq!(phases.phases[0], out.dispersion_time());
        for w in phases.phases.windows(2) {
            assert!(w[0] >= w[1], "phases not monotone: {:?}", phases.phases);
        }
    }

    #[test]
    fn k_particle_run_settles_k_vertices() {
        let g = complete(20);
        let cfg = EngineConfig::with_particles(7, 0, &ProcessConfig::simple());
        let mut rng = StdRng::seed_from_u64(4);
        let out = run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut rng,
        )
        .unwrap();
        let mut s = out.settled_at.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn random_origins_settle_instantly_when_vacant() {
        let g = complete(16);
        let cfg = EngineConfig::random_origins(16, &ProcessConfig::simple());
        let mut rng = StdRng::seed_from_u64(5);
        let out = run(
            &g,
            &mut schedule::Sequential::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut rng,
        )
        .unwrap();
        // the first particle always finds its start vacant
        assert_eq!(out.steps[0], 0);
        let mut s = out.settled_at.clone();
        s.sort_unstable();
        assert_eq!(s, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "random origins require")]
    fn random_origins_rejected_for_eager_schedules() {
        let g = complete(8);
        let cfg = EngineConfig::random_origins(8, &ProcessConfig::simple());
        let mut rng = StdRng::seed_from_u64(6);
        let _ = run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut rng,
        );
    }

    #[test]
    fn single_vertex_graph_terminates_instantly() {
        let g = cycle(1);
        let cfg = simple(&g);
        let mut rng = StdRng::seed_from_u64(7);
        for out in [
            run(
                &g,
                &mut schedule::Uniform::new(1),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
            run(
                &g,
                &mut schedule::Sequential::new(),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut rng,
            )
            .unwrap(),
        ] {
            assert_eq!(out.ticks, 0);
            assert_eq!(out.settle_tick, 0);
            assert_eq!(out.dispersion_time(), 0);
        }
    }
}
