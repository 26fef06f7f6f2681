//! The deterministic streaming runner: executes a whole
//! [`ExperimentSpec`] across threads, work-stealing *across cells*.
//!
//! # Execution model
//!
//! Every cell's trial range is cut into fixed [`CHUNK`]-sized chunks at
//! deterministic boundaries. A chunk is the unit of work a thread claims:
//! it runs the chunk's trials **in trial order**, folding each sample into
//! a per-chunk one-pass [`Online`] accumulator — no sample vector is ever
//! materialised. When the last chunk of a *round* lands, the finishing
//! thread merges the chunk accumulators **in chunk order** into the cell's
//! running statistics and evaluates the cell's [`Budget`]:
//!
//! * [`Budget::Trials`] — one round covering all trials;
//! * [`Budget::CiHalfWidth`] — a `min_trials` round, then geometrically
//!   growing rounds until the relative CI half-width of the primary
//!   statistic meets the target (or `max_trials` is hit). The stopping
//!   rule only ever sees statistics over *complete* rounds, so the trial
//!   count — and with it every emitted number — is identical for any
//!   thread count.
//!
//! Trial `t` of cell `c` draws from
//! `Xoshiro256pp::new(trial_seed(spec.master_seed(c), t))` no matter which
//! thread runs it. Together with ordered merging this makes the whole run
//! **bit-identical across `--threads` settings**, checkpoint restarts
//! included.
//!
//! Threads prefer chunks of already-active cells and only activate (=
//! resolve the graph of) the next pending cell when no claimable chunk
//! exists, so at most ≈`threads` instances are resident at once while a
//! slow cell (a 500×500 torus, say) can never serialise the sweep behind
//! it: finished threads immediately steal into the next cell.
//!
//! Cells whose trials abort (step cap, invalid measure/backend pairing)
//! produce **error records** — the sweep continues; nothing panics.

use crate::rng::{trial_seed, Xoshiro256pp};
use crate::sink::{Event, Record, Sink, StatSummary};
use crate::spec::{Budget, CellError, ExperimentSpec, ResolvedCell};
use crate::stats::Online;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cheap shareable cancellation flag, checked at **trial boundaries**:
/// once [`CancelToken::cancel`] fires, in-flight cells stop before their
/// next trial and complete with a
/// [`CellError::Cancelled`] error record (keeping the statistics of the
/// trials that did finish), and cells not yet started are recorded as
/// cancelled without resolving their instances. The run still returns one
/// record per cell.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative cancellation (idempotent, callable from any
    /// thread).
    pub fn cancel(&self) {
        // ORDERING: Relaxed — monotone flag; workers poll it and only ever
        // observe false→true, so no ordering with other memory is needed
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has fired.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: Relaxed — see cancel(); a late observation just runs one
        // more chunk, which the deterministic merge already tolerates
        self.0.load(Ordering::Relaxed)
    }
}

/// Trials per work unit. This constant is part of the determinism
/// contract: chunk boundaries (and hence merge order) must not depend on
/// the machine, so never derive it from the thread count — and changing it
/// changes the low-order bits of every variance ever recorded.
pub const CHUNK: usize = 8;

/// Executes [`ExperimentSpec`]s. See the module docs for the scheduling
/// and determinism model.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with the given worker-thread count (at least 1 is used).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// Runs every cell of `spec`, streaming events into `sink`, and
    /// returns the completed records in cell order.
    ///
    /// `resume` holds records from an earlier checkpoint: any whose
    /// `(cell, key)` matches the spec is re-emitted (`resumed: true`)
    /// instead of re-run; stale or foreign records are ignored.
    ///
    /// Unlike [`run_cell`], `run` does not contain panics: a cell that
    /// panics re-raises the panic on the calling thread.
    pub fn run(
        &self,
        spec: &ExperimentSpec,
        resume: &[Record],
        sink: &mut dyn Sink,
    ) -> Vec<Record> {
        self.run_with_ctrl(spec, resume, sink, &CancelToken::new())
    }

    /// [`Runner::run`] with an external [`CancelToken`]: firing the token
    /// stops every cell at its next trial boundary, turning unfinished
    /// cells into `Cancelled` error records. The serve layer hands each
    /// job such a token so `DELETE /jobs/<id>` can stop a 500×500-torus
    /// cell mid-flight instead of letting it run to completion.
    pub fn run_with_ctrl(
        &self,
        spec: &ExperimentSpec,
        resume: &[Record],
        sink: &mut dyn Sink,
        ctrl: &CancelToken,
    ) -> Vec<Record> {
        let total = spec.cells.len();
        let mut cells: Vec<CellStatus> = (0..total).map(|_| CellStatus::Pending).collect();
        let mut records: Vec<Option<Record>> = vec![None; total];
        let mut done = 0usize;

        // restore checkpointed cells before any thread starts
        for r in resume {
            if r.cell < total && spec.cell_key(r.cell) == r.key && records[r.cell].is_none() {
                records[r.cell] = Some(r.clone());
                cells[r.cell] = CellStatus::Done;
                done += 1;
                sink.on_event(&Event::Done {
                    record: r,
                    resumed: true,
                });
            }
        }

        let shared = Shared {
            state: Mutex::new(State {
                cells,
                records,
                done,
                next_pending: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
            total,
        };
        if done < total {
            let sink_mx = Mutex::new(&mut *sink);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|_| scope.spawn(|| worker(spec, &shared, &sink_mx, ctrl)))
                    .collect();
                for h in handles {
                    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                }
            });
        }
        records = shared.state.into_inner().unwrap().records;

        sink.finish();
        records
            .into_iter()
            .map(|r| r.expect("cell completed without a record"))
            .collect()
    }
}

/// Per-cell scheduler status.
enum CellStatus {
    /// Not yet activated.
    Pending,
    /// A thread is building its instance.
    Resolving,
    /// Trials in flight.
    Active(Active),
    /// Record emitted.
    Done,
}

/// Book-keeping of an in-flight cell.
struct Active {
    cell: Arc<ResolvedCell>,
    /// Per-statistic accumulators over *completed* rounds, merged in
    /// deterministic order.
    merged: Vec<Online>,
    /// Trials folded into `merged`.
    trials_done: usize,
    /// First trial index of the current round.
    round_start: usize,
    /// Trials in the current round.
    round_len: usize,
    /// Chunks handed out so far in this round.
    next_chunk: usize,
    /// Landed chunk results, indexed by chunk number.
    chunk_results: Vec<Option<ChunkOut>>,
    /// Chunks landed.
    delivered: usize,
}

impl Active {
    fn n_chunks(&self) -> usize {
        self.round_len.div_ceil(CHUNK)
    }
}

/// What one chunk brings home.
struct ChunkOut {
    /// Per-statistic accumulators over the chunk's trials, in trial order.
    stats: Vec<Online>,
    /// Trials that completed (= the count folded into `stats`).
    trials: u64,
    /// Walk steps those trials performed.
    steps: u64,
    /// First error, with the trial index it occurred at.
    error: Option<(usize, CellError)>,
}

struct State {
    cells: Vec<CellStatus>,
    records: Vec<Option<Record>>,
    done: usize,
    next_pending: usize,
    /// Set when a worker thread panicked: the remaining workers drain and
    /// exit so the scope can join and re-raise the panic.
    aborted: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    total: usize,
}

/// A unit of work handed to a thread.
enum Task {
    /// Build cell `id`'s instance.
    Resolve(usize),
    /// Run trials `lo..hi` of cell `id` (chunk `chunk_idx` of the current
    /// round).
    Chunk {
        id: usize,
        chunk_idx: usize,
        lo: usize,
        hi: usize,
        cell: Arc<ResolvedCell>,
    },
    /// All cells are done.
    Exit,
}

/// Wakes every worker if its thread unwinds, so a panic in measure or
/// observer code aborts the run (the panic re-raises at scope join)
/// instead of leaving the other workers parked on the condvar forever.
struct AbortOnPanic<'a>(&'a Shared);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.0.state.lock() {
                st.aborted = true;
            }
            // a poisoned lock still works: waiters re-acquire, see the
            // poison and propagate the panic themselves
            self.0.cv.notify_all();
        }
    }
}

fn worker<S: Sink + ?Sized>(
    spec: &ExperimentSpec,
    shared: &Shared,
    sink: &Mutex<&mut S>,
    ctrl: &CancelToken,
) {
    let _abort_guard = AbortOnPanic(shared);
    loop {
        let task = claim(shared);
        match task {
            Task::Exit => return,
            Task::Resolve(id) => {
                // a fired token short-circuits resolution: unstarted cells
                // become cancelled records without building their instances
                let resolved = if ctrl.is_cancelled() {
                    Err(CellError::Cancelled)
                } else {
                    spec.cells[id].family.resolve()
                };
                match resolved {
                    Ok(cell) => {
                        let key = spec.cell_key(id);
                        let cell = Arc::new(cell);
                        {
                            // Started goes out under the state lock, before
                            // any thread can claim a chunk — sinks never see
                            // a cell's Done ahead of its Started
                            let mut st = shared.state.lock().unwrap();
                            st.cells[id] = CellStatus::Active(new_active(spec, id, cell));
                            sink.lock().unwrap().on_event(&Event::Started {
                                cell: id,
                                key: &key,
                            });
                            // a zero-trial budget completes without running
                            if let CellStatus::Active(a) = &st.cells[id] {
                                if a.round_len == 0 {
                                    let record = build_record(spec, id, a, None);
                                    complete_cell(&mut st, shared, id, record, sink);
                                }
                            }
                        }
                        shared.cv.notify_all();
                    }
                    Err(e) => {
                        let record = error_record(spec, id, 0, &e);
                        let mut st = shared.state.lock().unwrap();
                        complete_cell(&mut st, shared, id, record, sink);
                        shared.cv.notify_all();
                    }
                }
            }
            Task::Chunk {
                id,
                chunk_idx,
                lo,
                hi,
                cell,
            } => {
                let out = run_chunk(spec, id, &cell, lo, hi, ctrl);
                let mut st = shared.state.lock().unwrap();
                deliver(spec, shared, &mut st, id, chunk_idx, out, sink);
            }
        }
    }
}

/// Initial [`Active`] state for a freshly resolved cell.
fn new_active(spec: &ExperimentSpec, id: usize, cell: Arc<ResolvedCell>) -> Active {
    let stat_count = spec.cells[id].measure.stat_names().len();
    let round_len = match spec.cells[id].budget {
        Budget::Trials(n) => n,
        Budget::CiHalfWidth {
            min_trials,
            max_trials,
            ..
        } => min_trials.min(max_trials),
    };
    let mut a = Active {
        cell,
        merged: vec![Online::new(); stat_count],
        trials_done: 0,
        round_start: 0,
        round_len,
        next_chunk: 0,
        chunk_results: Vec::new(),
        delivered: 0,
    };
    a.chunk_results = (0..a.n_chunks()).map(|_| None).collect();
    a
}

/// Claims the next task, blocking until one exists or everything is done.
fn claim(shared: &Shared) -> Task {
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.done == shared.total || st.aborted {
            return Task::Exit;
        }
        // 1. a chunk of an already-active cell (keeps resident instances few)
        for id in 0..st.cells.len() {
            if let CellStatus::Active(a) = &mut st.cells[id] {
                if a.next_chunk < a.n_chunks() {
                    let chunk_idx = a.next_chunk;
                    a.next_chunk += 1;
                    let lo = a.round_start + chunk_idx * CHUNK;
                    let hi = (lo + CHUNK).min(a.round_start + a.round_len);
                    return Task::Chunk {
                        id,
                        chunk_idx,
                        lo,
                        hi,
                        cell: Arc::clone(&a.cell),
                    };
                }
            }
        }
        // 2. activate the next pending cell (resumed cells are already Done)
        while st.next_pending < st.cells.len()
            && !matches!(st.cells[st.next_pending], CellStatus::Pending)
        {
            st.next_pending += 1;
        }
        if st.next_pending < st.cells.len() {
            let id = st.next_pending;
            st.next_pending += 1;
            st.cells[id] = CellStatus::Resolving;
            return Task::Resolve(id);
        }
        // 3. wait for in-flight chunks to open new rounds / finish cells
        st = shared.cv.wait(st).unwrap();
    }
}

/// Runs one chunk's trials in trial order, checking the cancel token at
/// every trial boundary (the cheap cooperative stop the serve layer's
/// `DELETE /jobs/<id>` relies on).
fn run_chunk(
    spec: &ExperimentSpec,
    id: usize,
    cell: &ResolvedCell,
    lo: usize,
    hi: usize,
    ctrl: &CancelToken,
) -> ChunkOut {
    let c = &spec.cells[id];
    let names = c.measure.stat_names();
    let master = spec.master_seed(id);
    let mut stats = vec![Online::new(); names.len()];
    let mut out = vec![0.0; names.len()];
    let mut trials = 0;
    let mut steps = 0;
    let mut error = None;
    for t in lo..hi {
        if ctrl.is_cancelled() {
            error = Some((t, CellError::Cancelled));
            break;
        }
        let mut rng = Xoshiro256pp::new(trial_seed(master, t as u64));
        match c.measure.run_trial(cell, &c.cfg, &mut out, &mut rng) {
            Ok(walked) => {
                for (acc, &x) in stats.iter_mut().zip(&out) {
                    acc.push(x);
                }
                trials += 1;
                steps += walked;
            }
            Err(e) => {
                error = Some((t, e));
                break;
            }
        }
    }
    ChunkOut {
        stats,
        trials,
        steps,
        error,
    }
}

/// Lands a chunk; on round completion merges, decides, and either opens
/// the next round or completes the cell.
fn deliver<S: Sink + ?Sized>(
    spec: &ExperimentSpec,
    shared: &Shared,
    st: &mut State,
    id: usize,
    chunk_idx: usize,
    out: ChunkOut,
    sink: &Mutex<&mut S>,
) {
    sink.lock().unwrap().on_event(&Event::Chunk {
        cell: id,
        trials: out.trials,
        steps: out.steps,
    });
    let CellStatus::Active(a) = &mut st.cells[id] else {
        unreachable!("chunk delivered to non-active cell");
    };
    debug_assert!(a.chunk_results[chunk_idx].is_none());
    a.chunk_results[chunk_idx] = Some(out);
    a.delivered += 1;
    if a.delivered < a.n_chunks() {
        return;
    }

    match finish_round(spec, id, a) {
        RoundOutcome::Done(record) => {
            complete_cell(st, shared, id, record, sink);
            shared.cv.notify_all();
        }
        RoundOutcome::Continue {
            trials_done,
            relative_ci,
        } => {
            shared.cv.notify_all();
            sink.lock().unwrap().on_event(&Event::Progress {
                cell: id,
                trials_done,
                relative_ci,
            });
        }
    }
}

/// What [`finish_round`] decided for a cell whose round just completed.
enum RoundOutcome {
    /// The cell is finished (success or error) with this record.
    Done(Record),
    /// The adaptive budget wants more trials; the next round has been
    /// opened on the `Active` and these numbers describe progress so far.
    Continue {
        /// Trials folded into the merged statistics.
        trials_done: u64,
        /// Relative CI half-width of the primary statistic.
        relative_ci: f64,
    },
}

/// Merges a completed round's chunks **in chunk order** into the cell's
/// running statistics and evaluates its budget. This is the single
/// decision point shared by the multi-threaded [`Runner`] and the
/// cell-at-a-time [`run_cell`], which is what keeps the two bit-identical.
fn finish_round(spec: &ExperimentSpec, id: usize, a: &mut Active) -> RoundOutcome {
    let mut round_error: Option<(usize, CellError)> = None;
    for chunk in a.chunk_results.iter_mut() {
        let chunk = chunk.take().expect("round complete with missing chunk");
        for (acc, part) in a.merged.iter_mut().zip(&chunk.stats) {
            acc.merge(part);
        }
        if let Some((t, e)) = chunk.error {
            // keep the error of the smallest trial index
            if round_error.as_ref().is_none_or(|(t0, _)| t < *t0) {
                round_error = Some((t, e));
            }
        }
    }
    a.trials_done = a.merged.first().map_or(0, |o| o.count() as usize);

    if let Some((t, e)) = round_error {
        return RoundOutcome::Done(error_record_from_active(spec, id, a, t, &e));
    }

    let decided_done = match spec.cells[id].budget {
        Budget::Trials(_) => true, // single round covers the whole budget
        Budget::CiHalfWidth {
            rel, max_trials, ..
        } => a.merged[0].relative_ci() <= rel || a.trials_done >= max_trials,
    };

    if decided_done {
        return RoundOutcome::Done(build_record(spec, id, a, None));
    }

    // open the next round: grow ~1.5× total, clamped to the ceiling
    let Budget::CiHalfWidth { max_trials, .. } = spec.cells[id].budget else {
        unreachable!();
    };
    let grow = (a.trials_done / 2).max(CHUNK);
    let next_len = grow.min(max_trials - a.trials_done);
    a.round_start = a.trials_done;
    a.round_len = next_len;
    a.next_chunk = 0;
    a.delivered = 0;
    a.chunk_results = (0..a.n_chunks()).map(|_| None).collect();
    RoundOutcome::Continue {
        trials_done: a.trials_done as u64,
        relative_ci: a.merged[0].relative_ci(),
    }
}

/// Runs a single cell of `spec` to completion on the calling thread,
/// streaming the same [`Event`]s a [`Runner`] would, and returns its
/// record.
///
/// Chunks run sequentially in chunk order and rounds merge through the
/// same `finish_round` the runner uses, so the record is **bit-identical**
/// to the one `Runner::run` produces for that cell at any thread count.
/// The serve layer's worker pool schedules (job, cell) pairs through this
/// entry point — cell-grained claims are what let many small jobs drain
/// past one long-running torus cell.
///
/// A panic inside the cell (a spec that trips a generator assertion, say
/// a size-0 clique) is caught and becomes an error record
/// `"trial 0: panicked: <message>"` with its `Done` event, so one bad
/// cell cannot kill the thread that serves every other job. `id` must be
/// a cell of `spec`.
pub fn run_cell(
    spec: &ExperimentSpec,
    id: usize,
    ctrl: &CancelToken,
    sink: &mut dyn Sink,
) -> Record {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cell_unguarded(spec, id, ctrl, &mut *sink)
    }));
    run.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let e = CellError::Invalid(format!("panicked: {msg}"));
        let record = error_record(spec, id, 0, &e);
        sink.on_event(&Event::Done {
            record: &record,
            resumed: false,
        });
        record
    })
}

fn run_cell_unguarded(
    spec: &ExperimentSpec,
    id: usize,
    ctrl: &CancelToken,
    sink: &mut dyn Sink,
) -> Record {
    let resolved = if ctrl.is_cancelled() {
        Err(CellError::Cancelled)
    } else {
        spec.cells[id].family.resolve()
    };
    let cell = match resolved {
        Ok(cell) => Arc::new(cell),
        Err(e) => {
            let record = error_record(spec, id, 0, &e);
            sink.on_event(&Event::Done {
                record: &record,
                resumed: false,
            });
            return record;
        }
    };
    let key = spec.cell_key(id);
    sink.on_event(&Event::Started {
        cell: id,
        key: &key,
    });
    let mut a = new_active(spec, id, cell);
    loop {
        if a.round_len == 0 {
            // zero-trial budget: complete without running
            let record = build_record(spec, id, &a, None);
            sink.on_event(&Event::Done {
                record: &record,
                resumed: false,
            });
            return record;
        }
        for chunk_idx in 0..a.n_chunks() {
            let lo = a.round_start + chunk_idx * CHUNK;
            let hi = (lo + CHUNK).min(a.round_start + a.round_len);
            let cell = Arc::clone(&a.cell);
            let out = run_chunk(spec, id, &cell, lo, hi, ctrl);
            sink.on_event(&Event::Chunk {
                cell: id,
                trials: out.trials,
                steps: out.steps,
            });
            a.chunk_results[chunk_idx] = Some(out);
            a.delivered += 1;
        }
        match finish_round(spec, id, &mut a) {
            RoundOutcome::Done(record) => {
                sink.on_event(&Event::Done {
                    record: &record,
                    resumed: false,
                });
                return record;
            }
            RoundOutcome::Continue {
                trials_done,
                relative_ci,
            } => {
                sink.on_event(&Event::Progress {
                    cell: id,
                    trials_done,
                    relative_ci,
                });
            }
        }
    }
}

/// Marks a cell done, stores its record and emits the `Done` event.
fn complete_cell<S: Sink + ?Sized>(
    st: &mut State,
    shared: &Shared,
    id: usize,
    record: Record,
    sink: &Mutex<&mut S>,
) {
    st.cells[id] = CellStatus::Done; // drops the Active (and its instance)
    st.records[id] = Some(record);
    st.done += 1;
    if st.done == shared.total {
        shared.cv.notify_all();
    }
    let r = st.records[id].as_ref().unwrap();
    sink.lock().unwrap().on_event(&Event::Done {
        record: r,
        resumed: false,
    });
}

/// The record of a successfully completed cell (or, with `error`, of an
/// aborted one keeping its partial statistics).
fn build_record(spec: &ExperimentSpec, id: usize, a: &Active, error: Option<String>) -> Record {
    let names = spec.cells[id].measure.stat_names();
    Record {
        cell: id,
        key: spec.cell_key(id),
        family: a.cell.label.to_string(),
        n: a.cell.n(),
        measure: spec.cells[id].measure.label(),
        backend: spec.cells[id].family.backend.label().to_string(),
        trials: a.merged.first().map_or(0, super::stats::Online::count),
        stats: names
            .iter()
            .zip(&a.merged)
            .map(|(name, o)| StatSummary::from_online(name, o))
            .collect(),
        error,
    }
}

/// Error record for a cell that aborted mid-round.
fn error_record_from_active(
    spec: &ExperimentSpec,
    id: usize,
    a: &Active,
    trial: usize,
    e: &CellError,
) -> Record {
    build_record(spec, id, a, Some(format!("trial {trial}: {e}")))
}

/// Error record for a cell that never resolved (or whose run was lost):
/// no statistics, `error: "trial <trial>: <e>"`.
pub fn error_record(spec: &ExperimentSpec, id: usize, trial: usize, e: &CellError) -> Record {
    let c = &spec.cells[id];
    Record {
        cell: id,
        key: spec.cell_key(id),
        family: c.family.family.label().to_string(),
        n: 0,
        measure: c.measure.label(),
        backend: c.family.backend.label().to_string(),
        trials: 0,
        stats: Vec::new(),
        error: Some(format!("trial {trial}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Process;
    use crate::sink::MemorySink;
    use crate::spec::{CellSpec, FamilySpec, Measure};
    use dispersion_core::process::ProcessConfig;
    use dispersion_graphs::families::Family;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(42);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 32),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(20)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 16),
                Measure::ParallelWithHalf,
            )
            .budget(Budget::Trials(20)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::implicit(Family::Cycle, 16),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(12)),
        );
        spec
    }

    #[test]
    fn records_complete_and_ordered() {
        let spec = tiny_spec();
        let mut sink = MemorySink::default();
        let records = Runner::new(4).run(&spec, &[], &mut sink);
        assert_eq!(records.len(), 3);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.cell, i);
            assert!(r.error.is_none(), "{:?}", r.error);
        }
        assert_eq!(records[0].trials, 20);
        assert_eq!(records[1].stats.len(), 2);
        assert_eq!(records[2].backend, "implicit");
        assert_eq!(sink.records.len(), 3);
        assert_eq!(sink.started, 3);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let spec = tiny_spec();
        let mut s1 = MemorySink::default();
        let mut s8 = MemorySink::default();
        let r1 = Runner::new(1).run(&spec, &[], &mut s1);
        let r8 = Runner::new(8).run(&spec, &[], &mut s8);
        assert_eq!(r1, r8);
    }

    #[test]
    fn implicit_and_explicit_backends_agree() {
        // PR 4 equivalence: same seeds → same trajectories on both backends
        let mut a = ExperimentSpec::new(7);
        a.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 24),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(16))
            .master_seed(99),
        );
        let mut b = ExperimentSpec::new(7);
        b.push(
            CellSpec::new(
                FamilySpec::implicit(Family::Cycle, 24),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(16))
            .master_seed(99),
        );
        let ra = Runner::new(2).run(&a, &[], &mut MemorySink::default());
        let rb = Runner::new(2).run(&b, &[], &mut MemorySink::default());
        assert_eq!(ra[0].stats, rb[0].stats);
    }

    #[test]
    fn matches_legacy_estimate_dispersion() {
        use crate::experiment::estimate_dispersion;
        use dispersion_graphs::generators::complete;
        let g = complete(64);
        let legacy = estimate_dispersion(
            &g,
            0,
            Process::Sequential,
            &ProcessConfig::simple(),
            40,
            4,
            123,
        );
        let mut spec = ExperimentSpec::new(0);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(40))
            .master_seed(123),
        );
        let r = Runner::new(4).run(&spec, &[], &mut MemorySink::default());
        let s = r[0].stat("time").unwrap();
        // same trials, same per-trial seeds; one-pass vs two-pass moments
        assert!((s.mean - legacy.mean).abs() <= 1e-12 * legacy.mean.abs());
        assert!((s.var - legacy.var).abs() <= 1e-9 * legacy.var.abs());
        assert_eq!(s.min, legacy.min);
        assert_eq!(s.max, legacy.max);
    }

    #[test]
    fn adaptive_budget_stops_deterministically() {
        let mut spec = ExperimentSpec::new(5);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::CiHalfWidth {
                rel: 0.08,
                min_trials: 16,
                max_trials: 4000,
            }),
        );
        let mut s1 = MemorySink::default();
        let r1 = Runner::new(1).run(&spec, &[], &mut s1);
        let r8 = Runner::new(8).run(&spec, &[], &mut MemorySink::default());
        assert_eq!(r1, r8);
        let r = &r1[0];
        assert!(r.trials >= 16);
        assert!(
            r.trials < 4000,
            "budget should stop early, got {}",
            r.trials
        );
        let rel = r.ci95_half("time") / r.mean("time");
        assert!(rel <= 0.08, "stopped at rel CI {rel}");
        // low-variance cells stop earlier than high-variance ones
        let mut spec2 = ExperimentSpec::new(5);
        spec2.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::TotalSteps(Process::Sequential),
            )
            .budget(Budget::CiHalfWidth {
                rel: 0.08,
                min_trials: 16,
                max_trials: 4000,
            }),
        );
        let r2 = Runner::new(4).run(&spec2, &[], &mut MemorySink::default());
        assert!(r2[0].trials <= r.trials);
    }

    #[test]
    fn max_trials_caps_adaptive_cells() {
        let mut spec = ExperimentSpec::new(5);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 16),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::CiHalfWidth {
                rel: 1e-9, // unreachable
                min_trials: 8,
                max_trials: 50,
            }),
        );
        let mut sink = MemorySink::default();
        let r = Runner::new(4).run(&spec, &[], &mut sink);
        assert_eq!(r[0].trials, 50);
        assert!(sink.progress > 0, "growing rounds emit progress events");
    }

    #[test]
    fn step_cap_becomes_error_record_not_panic() {
        let mut spec = ExperimentSpec::new(3);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 32),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(10))
            .config(ProcessConfig::simple().with_cap(4)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 16),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(10)),
        );
        let r1 = Runner::new(1).run(&spec, &[], &mut MemorySink::default());
        let r4 = Runner::new(4).run(&spec, &[], &mut MemorySink::default());
        assert_eq!(r1, r4, "error records are deterministic too");
        assert!(r1[0].error.as_ref().unwrap().contains("trial 0"));
        assert!(r1[1].error.is_none(), "other cells still complete");
        assert_eq!(r1[1].trials, 10);
    }

    #[test]
    fn unresolvable_cell_is_an_error_record() {
        let mut spec = ExperimentSpec::new(3);
        spec.push(CellSpec::new(
            FamilySpec::implicit(Family::BinaryTree, 63),
            Measure::Dispersion(Process::Sequential),
        ));
        let r = Runner::new(2).run(&spec, &[], &mut MemorySink::default());
        assert!(r[0].error.as_ref().unwrap().contains("implicit"));
        assert_eq!(r[0].trials, 0);
    }

    #[test]
    fn resume_skips_matching_cells_and_reruns_stale_ones() {
        let spec = tiny_spec();
        let full = Runner::new(2).run(&spec, &[], &mut MemorySink::default());
        // resume with the first two records: only cell 2 re-runs
        let mut sink = MemorySink::default();
        let resumed = Runner::new(2).run(&spec, &full[..2], &mut sink);
        assert_eq!(resumed, full);
        assert_eq!(sink.resumed, 2);
        assert_eq!(sink.started, 1, "only the missing cell was activated");
        // a stale key is ignored and its cell re-run
        let mut stale = full.clone();
        stale[1].key = "something else".into();
        let mut sink2 = MemorySink::default();
        let again = Runner::new(2).run(&spec, &stale, &mut sink2);
        assert_eq!(again, full);
        assert_eq!(sink2.resumed, 2);
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_records() {
        let spec = tiny_spec();
        let ctrl = CancelToken::new();
        ctrl.cancel();
        let mut sink = MemorySink::default();
        let records = Runner::new(4).run_with_ctrl(&spec, &[], &mut sink, &ctrl);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(
                r.error.as_ref().unwrap().contains("cancelled"),
                "{:?}",
                r.error
            );
            assert_eq!(r.trials, 0);
        }
        assert_eq!(sink.started, 0, "cancelled cells never resolve");
    }

    #[test]
    fn cancel_mid_run_keeps_finished_cells_and_resumes_cleanly() {
        // cancel after the first Done: earlier cells keep their records,
        // later ones become Cancelled — and a resume with the kept records
        // reproduces the uninterrupted run exactly
        struct CancelAfterFirst<'a>(&'a CancelToken, MemorySink);
        impl Sink for CancelAfterFirst<'_> {
            fn on_event(&mut self, e: &Event) {
                if matches!(e, Event::Done { .. }) {
                    self.0.cancel();
                }
                self.1.on_event(e);
            }
        }
        let spec = tiny_spec();
        let full = Runner::new(1).run(&spec, &[], &mut MemorySink::default());
        let ctrl = CancelToken::new();
        let mut sink = CancelAfterFirst(&ctrl, MemorySink::default());
        let partial = Runner::new(1).run_with_ctrl(&spec, &[], &mut sink, &ctrl);
        let kept: Vec<Record> = partial
            .iter()
            .filter(|r| r.error.is_none())
            .cloned()
            .collect();
        assert!(!kept.is_empty() && kept.len() < spec.len());
        for r in &partial {
            if let Some(err) = &r.error {
                assert!(err.contains("cancelled"));
            }
        }
        let resumed = Runner::new(2).run(&spec, &kept, &mut MemorySink::default());
        assert_eq!(resumed, full);
    }

    #[test]
    fn run_cell_matches_runner() {
        let spec = tiny_spec();
        let full = Runner::new(4).run(&spec, &[], &mut MemorySink::default());
        let ctrl = CancelToken::new();
        for (id, want) in full.iter().enumerate() {
            let mut sink = MemorySink::default();
            let r = run_cell(&spec, id, &ctrl, &mut sink);
            assert_eq!(&r, want, "cell {id}");
            assert_eq!(sink.records.len(), 1);
            assert!(sink.chunks > 0);
            assert!(sink.steps > 0);
        }
        // adaptive budgets go through the same finish_round decisions
        let mut adaptive = ExperimentSpec::new(5);
        adaptive.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::CiHalfWidth {
                rel: 0.08,
                min_trials: 16,
                max_trials: 4000,
            }),
        );
        let via_runner = Runner::new(8).run(&adaptive, &[], &mut MemorySink::default());
        let solo = run_cell(&adaptive, 0, &ctrl, &mut MemorySink::default());
        assert_eq!(solo, via_runner[0]);
    }

    #[test]
    fn chunk_events_count_trials_and_steps() {
        let spec = tiny_spec();
        let mut sink = MemorySink::default();
        let records = Runner::new(2).run(&spec, &[], &mut sink);
        let total_trials: u64 = records.iter().map(|r| r.trials).sum();
        assert_eq!(sink.trials, total_trials);
        assert!(sink.steps > 0);
        assert_eq!(
            sink.chunks,
            records
                .iter()
                .map(|r| r.trials.div_ceil(CHUNK as u64))
                .sum::<u64>() as usize
        );
    }

    #[test]
    fn zero_trials_budget_completes() {
        let mut spec = ExperimentSpec::new(1);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 16),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(0)),
        );
        let r = Runner::new(3).run(&spec, &[], &mut MemorySink::default());
        assert_eq!(r[0].trials, 0);
        assert!(r[0].error.is_none());
    }

    #[test]
    fn run_cell_contains_a_panicking_cell() {
        let mut spec = ExperimentSpec::new(1);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 0),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(4)),
        );
        let mut sink = MemorySink::default();
        let r = run_cell(&spec, 0, &CancelToken::new(), &mut sink);
        let err = r.error.as_deref().unwrap();
        assert!(err.starts_with("trial 0: panicked: "), "{err}");
        assert_eq!((r.trials, r.key.as_str()), (0, spec.cell_key(0).as_str()));
        assert_eq!(sink.records, vec![r]);
    }
}
