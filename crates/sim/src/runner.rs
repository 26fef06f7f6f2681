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
//! Threads prefer chunks of already-active cells and only activate the
//! next pending cell when no claimable chunk exists, so at most
//! ≈`threads` instances are resident at once while a slow cell (a 500×500
//! torus, say) can never serialise the sweep behind it: finished threads
//! immediately steal into the next cell. Activating a cell reuses the
//! instance of an active cell that resolves to the same graph (equal
//! `FamilySpec::graph_key`: Table 1's schedules of one family, say) and
//! resolves a new one only when there is none, waiting for one that
//! another thread is still building; an instance is freed when
//! the last cell using it completes. Shared instances are equal by
//! construction, so records do not depend on which cells shared.
//!
//! Cells whose trials abort (step cap, invalid measure/backend pairing)
//! produce **error records** — the sweep continues; nothing panics.
//!
//! There is one cell loop: [`run_cell`] runs a single cell through this
//! same scheduler on the calling thread (every other cell of its spec
//! counts as done), which is how the serve layer runs a job cell by cell
//! with records bit-identical to a whole-spec [`Runner`] run.

use crate::rng::{trial_seed, Xoshiro256pp};
use crate::sink::{Event, Record, Sink, StatSummary};
use crate::spec::{Budget, CellError, ExperimentSpec, ResolvedCell};
use crate::stats::Online;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cheap shareable cancellation flag for [`run_cell`], checked at
/// **trial boundaries**: once [`CancelToken::cancel`] fires, an in-flight
/// cell stops before its next trial and completes with a
/// [`CellError::Cancelled`] error record (keeping the statistics of the
/// trials that did finish), and a cell not yet started is recorded as
/// cancelled without resolving its instance.
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
    fn is_cancelled(&self) -> bool {
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
    /// panics re-raises the panic on the calling thread. It cannot be
    /// cancelled either: cancellation is per cell, through [`run_cell`].
    pub fn run(
        &self,
        spec: &ExperimentSpec,
        resume: &[Record],
        sink: &mut dyn Sink,
    ) -> Vec<Record> {
        let ctrl = &CancelToken::new();
        let total = spec.cells.len();
        let mut shared = Shared::new(total);
        let st = shared.state.get_mut().unwrap();

        // restore checkpointed cells before any thread starts
        for r in resume {
            if r.cell < total && spec.cell_key(r.cell) == r.key && st.records[r.cell].is_none() {
                st.records[r.cell] = Some(r.clone());
                st.cells[r.cell] = CellStatus::Done;
                st.done += 1;
                sink.on_event(&Event::Done {
                    record: r,
                    resumed: true,
                });
            }
        }

        if st.done < total {
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
        let records = shared.state.into_inner().unwrap().records;

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
    /// A thread is activating it (building or reusing its instance).
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

impl Shared {
    /// Scheduler state for `total` cells, all pending.
    fn new(total: usize) -> Self {
        Shared {
            state: Mutex::new(State {
                cells: (0..total).map(|_| CellStatus::Pending).collect(),
                records: vec![None; total],
                done: 0,
                next_pending: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
            total,
        }
    }
}

/// A unit of work handed to a thread.
enum Task {
    /// Activate cell `id` on `twin`, the instance of an active cell that
    /// resolves to the same graph, or on a new instance when there is none.
    Resolve {
        id: usize,
        twin: Option<Arc<ResolvedCell>>,
    },
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
    while execute(spec, shared, sink, ctrl, claim(spec, shared)) {}
}

/// Carries out one claimed task; `false` once the task is [`Task::Exit`].
fn execute<S: Sink + ?Sized>(
    spec: &ExperimentSpec,
    shared: &Shared,
    sink: &Mutex<&mut S>,
    ctrl: &CancelToken,
    task: Task,
) -> bool {
    match task {
        Task::Exit => return false,
        Task::Resolve { id, twin } => {
            // a fired token short-circuits resolution: unstarted cells
            // become cancelled records without building their instances
            let resolved = if ctrl.is_cancelled() {
                Err(CellError::Cancelled)
            } else if let Some(cell) = twin {
                Ok(cell)
            } else {
                spec.cells[id].family.resolve().map(Arc::new)
            };
            match resolved {
                Ok(cell) => {
                    let key = spec.cell_key(id);
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
    true
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
fn claim(spec: &ExperimentSpec, shared: &Shared) -> Task {
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
            // an active cell on the same graph lends its instance; while
            // another thread is still building that graph, wait for it
            // rather than build a second copy alongside
            let key = spec.cells[id].family.graph_key();
            let mut building = false;
            let mut twin = None;
            for (status, other) in st.cells.iter().zip(&spec.cells) {
                if other.family.graph_key() == key {
                    match status {
                        CellStatus::Active(a) => {
                            twin = Some(Arc::clone(&a.cell));
                            break;
                        }
                        CellStatus::Resolving => building = true,
                        _ => {}
                    }
                }
            }
            if twin.is_some() || !building {
                st.next_pending += 1;
                st.cells[id] = CellStatus::Resolving;
                return Task::Resolve { id, twin };
            }
        }
        // 3. wait for in-flight chunks to open new rounds / finish cells,
        // or for an instance in the making
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
/// running statistics and evaluates its budget: the one place a cell's
/// trial count and record are decided, whichever thread lands the round.
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
/// This is the [`Runner`]'s own scheduler driven by the calling thread
/// over a sweep in which every other cell is already done: no thread is
/// spawned and [`Sink::finish`] is not called. Chunks therefore run in
/// chunk order and rounds merge through the same `finish_round`, so the
/// record is **bit-identical** to the one `Runner::run` produces for that
/// cell at any thread count. The serve layer's worker pool schedules
/// (job, cell) pairs through this entry point — cell-grained claims are
/// what let many small jobs drain past one long-running torus cell.
///
/// A panic inside the cell (a spec that trips a constructor assertion,
/// say an implicit torus whose side overflows `u32` vertex ids) is caught
/// and becomes an error record `"trial 0: panicked: <message>"` with its
/// `Done` event, so one bad cell cannot kill the thread that serves every
/// other job. `id` must be a cell of `spec`.
pub fn run_cell(
    spec: &ExperimentSpec,
    id: usize,
    ctrl: &CancelToken,
    sink: &mut dyn Sink,
) -> Record {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut shared = Shared::new(spec.len());
        let st = shared.state.get_mut().expect("no thread has run yet");
        for (other, status) in st.cells.iter_mut().enumerate() {
            if other != id {
                *status = CellStatus::Done;
            }
        }
        st.done = spec.len() - 1;
        worker(spec, &shared, &Mutex::new(&mut *sink), ctrl);
        let mut st = shared
            .state
            .into_inner()
            .expect("the worker returned, so no thread panicked holding the lock");
        st.records[id]
            .take()
            .expect("cell completed without a record")
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
    use crate::sink::MemorySink;
    use crate::spec::{CellSpec, FamilySpec, Measure, ResolvedTopo, IMPLICIT_CSR_BYTES};
    use dispersion_core::process::ProcessConfig;
    use dispersion_core::Process;
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
        // same seeds → same trajectories on both backends; a 15-cube's
        // row table (1.9 MiB) is past the budget, so the implicit cell
        // walks the closed form
        let size = 1 << 15;
        assert!(Family::Hypercube.row_table_bytes(size).unwrap() > IMPLICIT_CSR_BYTES);
        let run = |family: FamilySpec| {
            let spec = ExperimentSpec::new(7).cell(
                CellSpec::new(family, Measure::Dispersion(Process::Parallel))
                    .budget(Budget::Trials(2))
                    .master_seed(99),
            );
            Runner::new(2).run(&spec, &[], &mut MemorySink::default())
        };
        let implicit = FamilySpec::implicit(Family::Hypercube, size);
        assert!(matches!(
            implicit.resolve().unwrap().topo,
            ResolvedTopo::Implicit(_)
        ));
        let ra = run(FamilySpec::explicit(Family::Hypercube, size));
        let rb = run(implicit);
        assert_eq!(ra[0].stats, rb[0].stats);
        assert_eq!(ra[0].trials, 2);
    }

    #[test]
    fn matches_par_trials_summary() {
        // the seeding contract shared with `par_trials`: trial t of a cell
        // with master seed m draws from `trial_seed(m, t)` on both paths
        use crate::parallel::par_trials;
        use crate::stats::Summary;
        use dispersion_graphs::generators::complete;
        let g = complete(64);
        let cfg = ProcessConfig::simple();
        let samples = par_trials(40, 4, 123, |_, rng| {
            Process::Sequential
                .try_dispersion_time(&g, 0, &cfg, rng)
                .unwrap()
        });
        let direct = Summary::from_samples(&samples);
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
        assert!((s.mean - direct.mean).abs() <= 1e-12 * direct.mean.abs());
        assert!((s.var - direct.var).abs() <= 1e-9 * direct.var.abs());
        assert_eq!(s.min, direct.min);
        assert_eq!(s.max, direct.max);
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
        let records: Vec<Record> = (0..spec.len())
            .map(|id| run_cell(&spec, id, &ctrl, &mut sink))
            .collect();
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
        let partial: Vec<Record> = (0..spec.len())
            .map(|id| run_cell(&spec, id, &ctrl, &mut sink))
            .collect();
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

    /// Runs a Sequential `ci:` cell on `first`, then a CTU cell on
    /// `second`, stepping the scheduler by hand on one thread so that the
    /// `ci:` cell is still active when the CTU cell activates: the CTU cell
    /// must reuse the instance, and both records must match the cells run
    /// alone.
    fn second_cell_shares_the_first_instance(first: FamilySpec, second: FamilySpec) {
        let spec = ExperimentSpec::new(11)
            .cell(
                CellSpec::new(first, Measure::Dispersion(Process::Sequential)).budget(
                    Budget::CiHalfWidth {
                        rel: 0.05,
                        min_trials: 16,
                        max_trials: 48,
                    },
                ),
            )
            .cell(
                CellSpec::new(second, Measure::Dispersion(Process::Ctu)).budget(Budget::Trials(16)),
            );
        let ctrl = CancelToken::new();
        let mut mem = MemorySink::default();
        let sink = Mutex::new(&mut mem);
        let shared = Shared::new(spec.len());
        let step = |task| execute(&spec, &shared, &sink, &ctrl, task);

        let first = claim(&spec, &shared);
        assert!(matches!(first, Task::Resolve { id: 0, twin: None }));
        step(first);
        // both chunks of the first round in flight: nothing left to claim
        let (c0, c1) = (claim(&spec, &shared), claim(&spec, &shared));
        let Task::Chunk { cell: instance, .. } = &c0 else {
            panic!("expected a chunk of cell 0");
        };
        let instance = Arc::clone(instance);
        let second = claim(&spec, &shared);
        let Task::Resolve {
            id: 1,
            twin: Some(twin),
        } = &second
        else {
            panic!("cell 1 did not reuse cell 0's instance");
        };
        assert!(Arc::ptr_eq(twin, &instance));
        for task in [second, c0, c1] {
            assert!(step(task));
        }
        while step(claim(&spec, &shared)) {}

        let records = shared.state.into_inner().unwrap().records;
        for (id, got) in records.iter().enumerate() {
            let alone = run_cell(&spec, id, &ctrl, &mut MemorySink::default());
            let got = got.as_ref().expect("cell completed");
            assert_eq!(got.to_json_line(), alone.to_json_line(), "cell {id}");
        }
    }

    #[test]
    fn cells_on_one_graph_share_its_instance() {
        // the clique builder reads no graph seed, so both cells resolve to
        // the same graph
        let clique = |seed| FamilySpec::explicit(Family::Complete, 64).graph_seed(seed);
        second_cell_shares_the_first_instance(clique(1), clique(2));
    }

    #[test]
    fn implicit_cells_within_the_budget_share_the_explicit_instance() {
        // a 32×32 torus: 16 KiB of row table, well within the budget, so
        // the implicit request builds the same CSR graph
        let torus = FamilySpec::explicit(Family::Torus2d, 1024);
        let implicit = FamilySpec::implicit(Family::Torus2d, 1024);
        assert_eq!(torus.graph_key(), implicit.graph_key());
        second_cell_shares_the_first_instance(torus, implicit);
    }

    #[test]
    fn a_graph_in_the_making_is_waited_for_not_built_twice() {
        // cell 0 is claimed but not yet built when another thread comes
        // to activate cell 1 on the same graph: that thread must wait for
        // the instance instead of building a second one alongside
        let clique = |seed| FamilySpec::explicit(Family::Complete, 64).graph_seed(seed);
        let spec = ExperimentSpec::new(12)
            .cell(
                CellSpec::new(clique(1), Measure::Dispersion(Process::Sequential))
                    .budget(Budget::Trials(8)),
            )
            .cell(
                CellSpec::new(clique(2), Measure::Dispersion(Process::Sequential))
                    .budget(Budget::Trials(8)),
            );
        let ctrl = CancelToken::new();
        let mut mem = MemorySink::default();
        let sink = Mutex::new(&mut mem);
        let shared = Shared::new(spec.len());

        let first = claim(&spec, &shared);
        assert!(matches!(first, Task::Resolve { id: 0, twin: None }));
        let second = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // one chunk of cell 0 once it is active, then cell 1
                let chunk = claim(&spec, &shared);
                (chunk, claim(&spec, &shared))
            });
            // give the waiter time to reach the scheduler while cell 0
            // is still being built
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(execute(&spec, &shared, &sink, &ctrl, first));
            waiter.join().unwrap()
        });
        let (Task::Chunk { cell: instance, .. }, Task::Resolve { id: 1, twin }) = &second else {
            panic!("expected a chunk of cell 0, then cell 1's activation");
        };
        let twin = twin
            .as_ref()
            .expect("cell 1 built its own copy of the graph");
        assert!(Arc::ptr_eq(twin, instance));
        let (chunk, resolve) = second;
        for task in [chunk, resolve] {
            assert!(execute(&spec, &shared, &sink, &ctrl, task));
        }
        while execute(&spec, &shared, &sink, &ctrl, claim(&spec, &shared)) {}
        assert_eq!(shared.state.into_inner().unwrap().done, 2);
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
                // side² overflows u32 vertex ids: the constructor panics
                FamilySpec::implicit(Family::Torus2d, 1 << 33),
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
