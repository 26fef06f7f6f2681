//! Intra-trial parallelism: the partitioned round engine.
//!
//! The [`super::run`] loop is strictly serial — one particle moves per
//! event. For round-structured schedules (Parallel-IDLA) a whole round is a
//! data-parallel batch: every active particle takes exactly one step, and
//! the paper's unordered-settling semantics are realised by the ascending
//! slot scan. This module executes such a round in three phases while
//! reproducing the serial engine **bit-for-bit** — same `EngineOutcome`,
//! same observer event sequence with identical [`EngineView`] snapshots,
//! same RNG exit state — for every walker-thread count:
//!
//! 1. **Serial RNG pre-pass** (main thread). Walk randomness for the round
//!    is drawn in slot order via [`decide_step`], exactly the draws the
//!    serial engine would make (each active particle appears once per
//!    round, and settle checks consume no randomness, so the draws depend
//!    only on positions at round start). The packed decisions are written
//!    straight into per-worker chunk buffers.
//! 2. **Parallel apply** (walker threads). Each worker resolves its chunk's
//!    neighbour lookups ([`apply_step`]) and pre-filters settle candidates
//!    against the shared occupancy bitset — the memory-latency-bound part
//!    of the walk. Occupancy is monotone, so a stale "occupied" read can
//!    only come from an earlier slot's settle and is final; a stale
//!    "vacant" read is re-checked at merge.
//! 3. **Slot-ordered merge** (main thread). Commits positions and step
//!    counts, fires `on_tick`/`on_step`/`on_settle` in serial order, and
//!    performs the authoritative vacancy re-check + [`SettleRule`] call, so
//!    conflicts resolve to the smallest slot exactly as in the serial scan.
//!
//! The serial engine exits mid-round the moment the last particle settles,
//! so a full-round pre-draw can overshoot the serial RNG stream. The
//! pre-pass therefore records cumulative raw-draw counts per slot and the
//! merge hands the unused suffix back via [`RewindableRng`] — callers that
//! keep drawing from the same generator (cross-run test harnesses, the
//! sequential `Measure` paths) observe the exact serial stream.
//!
//! Rounds with fewer than [`INLINE_THRESHOLD`] active particles are stepped
//! inline on the main thread (identical code path to the serial engine, no
//! speculative drawing); the fan-out overhead only pays for itself on wide
//! rounds, and late-game rounds are narrow.
//!
//! CTU is *not* routed here: its event chain (mover draws over the active
//! list, clock draws at settles) is serially dependent draw-by-draw, so a bit-identical parallel replay
//! does not exist; see `docs/parallelism.md`.

use super::schedule::Parallel;
use super::{Clock, EngineConfig, EngineError, EngineOutcome, EngineView, Observer, Origins};
use crate::engine::rule::SettleRule;
use crate::occupancy::Occupancy;
use dispersion_graphs::walk::{apply_step, decide_step, step, StepChoice};
use dispersion_graphs::{Topology, Vertex};
use rand::{rand_core::TryRng, RewindableRng, Rng};
use std::convert::Infallible;
use std::sync::mpsc;

/// Rounds narrower than this run inline on the main thread. The value is a
/// trade-off constant, not semantics: every width takes the same observable
/// path (the equivalence suites pin both sides of the threshold).
pub const INLINE_THRESHOLD: usize = 256;

/// Counts raw draws flowing out of a generator so the merge knows how much
/// stream each slot consumed. Implements `TryRng` (infallible) to pick up
/// `Rng` through the blanket impl.
struct CountingRng<'a, R: ?Sized> {
    inner: &'a mut R,
    draws: u64,
}

impl<R: Rng + ?Sized> TryRng for CountingRng<'_, R> {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        self.draws += 1;
        Ok(self.inner.next_u32())
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        self.draws += 1;
        Ok(self.inner.next_u64())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
        Ok(())
    }
}

/// Recycled per-worker buffers: `data` carries packed `(vertex, choice)`
/// pairs to the worker, `out` carries packed `(position, candidate)` pairs
/// back. Allocated once per worker and reused across every round of a run.
#[derive(Default)]
struct Buffers {
    data: Vec<u64>,
    out: Vec<u64>,
}

#[inline]
fn pack_in(u: Vertex, choice: StepChoice) -> u64 {
    u as u64 | (choice.pack() as u64) << 32
}

#[inline]
fn pack_out(pos: Vertex, candidate: bool) -> u64 {
    pos as u64 | (candidate as u64) << 32
}

/// Resolves one chunk per job: neighbour lookups plus the occupancy
/// pre-filter. Workers never touch the RNG, the particle arrays, or the
/// observers — those stay on the merge thread, which is what keeps the
/// event stream serial-exact.
// The channel endpoints are moved in on purpose: each worker owns its ends,
// and dropping them at thread exit is what unblocks the merge thread.
#[allow(clippy::needless_pass_by_value)]
fn worker_loop<T: Topology + Sync + ?Sized>(
    g: &T,
    occ: &Occupancy,
    jobs: mpsc::Receiver<Buffers>,
    results: mpsc::Sender<Buffers>,
) {
    while let Ok(mut job) = jobs.recv() {
        job.out.clear();
        for &packed in &job.data {
            let u = packed as u32;
            let choice = StepChoice::unpack((packed >> 32) as u32);
            let pos = apply_step(g, u, choice);
            job.out.push(pack_out(pos, !occ.is_occupied(pos)));
        }
        if results.send(job).is_err() {
            break;
        }
    }
}

/// Runs one Parallel-IDLA realization with `cfg.walker_threads` threads
/// partitioning each round. Bit-identical to
/// `run(g, &mut Parallel::new(), …)` for every thread count; with
/// `walker_threads <= 1` it *is* that call.
///
/// # Panics
///
/// Same configuration panics as [`super::run`]; additionally panics if a
/// walker thread dies (propagated by the scope).
pub fn run_parallel<T, Q, O, R>(
    g: &T,
    rule: &Q,
    cfg: &EngineConfig,
    obs: &mut O,
    rng: &mut R,
) -> Result<EngineOutcome, EngineError>
where
    T: Topology + Sync + ?Sized,
    Q: SettleRule,
    O: Observer,
    R: RewindableRng + ?Sized,
{
    if cfg.walker_threads <= 1 {
        return super::run(g, &mut Parallel::new(), rule, cfg, obs, rng);
    }

    let n = g.n();
    let k = cfg.particles;
    assert!(k >= 1 && k <= n, "particle count {k} out of range 1..={n}");
    let origin = match cfg.origins {
        Origins::Single(v) => {
            assert!((v as usize) < n, "origin {v} out of range");
            v
        }
        // LINT: engine-no-panic-ok — invariant: config validation, fires
        // before any particle moves; mirrors the serial engine's assert
        Origins::RandomUniform => panic!("random origins require a lazy-spawn schedule"),
    };

    // Flat SoA particle state, laid out exactly as in the serial engine.
    let occ = Occupancy::new(n);
    let mut positions: Vec<Vertex> = vec![0; k];
    let mut steps = vec![0u64; k];
    let mut settled = vec![false; k];
    let mut settled_at: Vec<Vertex> = vec![0; k];
    let mut active: Vec<usize> = Vec::new();
    let mut unsettled = k;
    let mut ticks: u64 = 0;
    let mut rounds: u64 = 0;
    let time: f64 = 0.0; // Parallel is discrete-time; stays 0 like serial
    let mut settle_tick: u64 = 0;

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
            occ.settle_shared($pos);
            settled[$pid] = true;
            settled_at[$pid] = $pos;
            unsettled -= 1;
            settle_tick = ticks;
            obs.on_settle($pid, $pos, &view!());
        }};
    }

    // Eager spawn: identical event sequence to the serial engine (particle
    // 0 claims the origin).
    for pid in 0..k {
        positions[pid] = origin;
        obs.on_spawn(pid, origin, &view!());
        if !occ.is_occupied(origin) {
            settle!(pid, origin);
        }
    }
    active.extend((0..k).filter(|&pid| !settled[pid]));
    obs.on_start(&view!());

    if unsettled > 0 {
        let threads = cfg.walker_threads;
        std::thread::scope(|scope| -> Result<(), EngineError> {
            let mut to_worker = Vec::with_capacity(threads);
            let mut from_worker = Vec::with_capacity(threads);
            let occ_ref = &occ;
            for _ in 0..threads {
                let (jtx, jrx) = mpsc::channel::<Buffers>();
                let (rtx, rrx) = mpsc::channel::<Buffers>();
                scope.spawn(move || worker_loop(g, occ_ref, jrx, rtx));
                to_worker.push(jtx);
                from_worker.push(rrx);
            }
            let mut pool: Vec<Option<Buffers>> =
                (0..threads).map(|_| Some(Buffers::default())).collect();
            // Cumulative raw-draw counts per slot of the current round.
            let mut cums: Vec<u64> = Vec::new();

            'run: loop {
                let len = active.len();
                if len < INLINE_THRESHOLD {
                    // Narrow round: step inline, drawing per slot exactly
                    // like the serial engine (no speculation, no rewind).
                    for s in 0..len {
                        let pid = active[s];
                        ticks += 1;
                        if ticks > cfg.step_cap {
                            return Err(EngineError::StepCapExceeded {
                                schedule: "parallel",
                                cap: cfg.step_cap,
                                unsettled,
                            });
                        }
                        let pos = step(g, cfg.walk, positions[pid], rng);
                        positions[pid] = pos;
                        steps[pid] += 1;
                        obs.on_tick(pid, &view!());
                        obs.on_step(pid, pos, &view!());
                        if !occ.is_occupied(pos) && rule.should_settle(steps[pid], pos) {
                            settle!(pid, pos);
                            if unsettled == 0 {
                                break 'run;
                            }
                        }
                    }
                } else {
                    // Wide round: pre-draw, fan out, merge in slot order.
                    let chunk = len.div_ceil(threads);
                    let used = len.div_ceil(chunk);
                    cums.clear();
                    let mut counter = CountingRng {
                        inner: &mut *rng,
                        draws: 0,
                    };
                    for (w, sender) in to_worker.iter().enumerate().take(used) {
                        let lo = w * chunk;
                        let hi = (lo + chunk).min(len);
                        // LINT: engine-no-panic-ok — invariant: every buffer
                        // is returned to the pool at the end of the round
                        let mut job = pool[w].take().expect("buffer in flight");
                        job.data.clear();
                        for &pid in &active[lo..hi] {
                            let u = positions[pid];
                            let choice = decide_step(cfg.walk, g.degree(u), &mut counter);
                            job.data.push(pack_in(u, choice));
                            cums.push(counter.draws);
                        }
                        // LINT: engine-no-panic-ok — invariant: workers only
                        // exit when the sender is dropped at scope end
                        sender.send(job).expect("walker thread exited early");
                    }
                    let drawn = counter.draws;

                    let mut ended = false;
                    for (w, receiver) in from_worker.iter().enumerate().take(used) {
                        // LINT: engine-no-panic-ok — invariant: a worker
                        // answers every job; if one panicked, the scope
                        // re-raises that panic anyway
                        let mut job = receiver.recv().expect("walker thread panicked");
                        if !ended {
                            let lo = w * chunk;
                            for (i, &packed) in job.out.iter().enumerate() {
                                let s = lo + i;
                                let pid = active[s];
                                ticks += 1;
                                if ticks > cfg.step_cap {
                                    // The serial engine errors before
                                    // drawing this slot's step: hand back
                                    // everything from this slot on.
                                    let kept = if s == 0 { 0 } else { cums[s - 1] };
                                    rng.rewind_u64(drawn - kept);
                                    return Err(EngineError::StepCapExceeded {
                                        schedule: "parallel",
                                        cap: cfg.step_cap,
                                        unsettled,
                                    });
                                }
                                let pos = packed as u32;
                                let candidate = (packed >> 32) & 1 == 1;
                                debug_assert_eq!(steps[pid], rounds, "eager-spawn round parity");
                                positions[pid] = pos;
                                steps[pid] += 1;
                                obs.on_tick(pid, &view!());
                                obs.on_step(pid, pos, &view!());
                                if candidate
                                    && !occ.is_occupied(pos)
                                    && rule.should_settle(steps[pid], pos)
                                {
                                    settle!(pid, pos);
                                    if unsettled == 0 {
                                        // Mid-round termination: the serial
                                        // engine never draws the remaining
                                        // slots — rewind them.
                                        rng.rewind_u64(drawn - cums[s]);
                                        ended = true;
                                    }
                                }
                            }
                        }
                        job.data.clear();
                        job.out.clear();
                        pool[w] = Some(job);
                    }
                    if ended {
                        break 'run;
                    }
                }

                // Round boundary: the serial engine emits NewRound only
                // when unsettled particles remain (checked above via the
                // mid-round breaks).
                rounds += 1;
                active.retain(|&pid| !settled[pid]);
                obs.on_round(&view!());
            }
            Ok(())
        })?;
    }

    // Close the final (never-drawn) round boundary, as the serial engine
    // does for Removal::AtRoundEnd schedules.
    if ticks > 0 {
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
    use super::super::{schedule, FirstVacant};
    use super::*;
    use crate::process::ProcessConfig;
    use dispersion_graphs::generators::{complete, cycle, torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn outcome_eq(a: &EngineOutcome, b: &EngineOutcome) {
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.settled_at, b.settled_at);
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.settle_tick, b.settle_tick);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn matches_serial_engine_and_rng_state() {
        for (g, seed) in [(torus2d(20), 1u64), (cycle(300), 2), (complete(500), 3)] {
            let cfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
            let mut serial_rng = StdRng::seed_from_u64(seed);
            let serial = super::super::run(
                &g,
                &mut schedule::Parallel::new(),
                &FirstVacant,
                &cfg,
                &mut (),
                &mut serial_rng,
            )
            .unwrap();
            for threads in [1usize, 2, 8] {
                let mut cfg_t = cfg;
                cfg_t.walker_threads = threads;
                let mut rng = StdRng::seed_from_u64(seed);
                let out = run_parallel(&g, &FirstVacant, &cfg_t, &mut (), &mut rng).unwrap();
                outcome_eq(&serial, &out);
                // RNG exit state must match too: the next draws agree.
                let mut s = serial_rng.clone();
                for _ in 0..32 {
                    assert_eq!(s.next_u64(), rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn step_cap_error_identical() {
        let g = cycle(400);
        let mut cfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
        cfg.step_cap = 5000;
        let mut serial_rng = StdRng::seed_from_u64(4);
        let serial_err = super::super::run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut serial_rng,
        )
        .unwrap_err();
        for threads in [2usize, 8] {
            let mut cfg_t = cfg;
            cfg_t.walker_threads = threads;
            let mut rng = StdRng::seed_from_u64(4);
            let err = run_parallel(&g, &FirstVacant, &cfg_t, &mut (), &mut rng).unwrap_err();
            assert_eq!(serial_err, err);
            let mut s = serial_rng.clone();
            for _ in 0..32 {
                assert_eq!(s.next_u64(), rng.next_u64());
            }
        }
    }
}
