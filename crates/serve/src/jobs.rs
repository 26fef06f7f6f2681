//! The job store: a bounded queue of submitted [`ExperimentSpec`]s, a
//! pool of worker threads draining them **cell by cell**, durable NDJSON
//! checkpoints, and the blocking record iterator behind the streaming
//! endpoint.
//!
//! # Fairness
//!
//! Workers claim `(job, cell)` pairs — never whole jobs — round-robin
//! across the live jobs: after a worker takes a cell from job `j`, the
//! cursor moves past `j`, so the next free worker serves the next job in
//! id order. One 500×500-torus cell therefore occupies exactly one worker
//! for as long as it runs while every other worker drains the small jobs
//! behind it. Within a cell, [`run_cell`] executes chunks in deterministic
//! chunk order, which keeps records bit-identical to an in-process
//! [`Runner`](dispersion_sim::runner::Runner) run of the same spec.
//!
//! # Durability
//!
//! With a data directory, each job persists as three files:
//!
//! * `job-<id>.spec.json` — the canonical spec (written once at submit);
//! * `job-<id>.ndjson` — completed cell records, appended and flushed as
//!   cells finish (exact-roundtrip NDJSON, the `--resume` format);
//! * `job-<id>.cancelled` — empty marker, present once the job is
//!   cancelled.
//!
//! [`JobStore::open`] re-scans the directory: completed cells are
//! restored from their checkpoints (matched by `(cell, key)` fingerprint,
//! torn final lines truncated exactly like the CLI's `--resume`), and the
//! remaining cells re-enter the queue. Because trial `t` of cell `c`
//! always draws from the same `(seed, cell, trial)`-derived RNG stream,
//! the records a restarted server appends are byte-identical to the ones
//! the killed server would have written.
//!
//! # Sharded mode
//!
//! With `shards = k > 0` ([`JobStore::open_with_shards`]) no in-process
//! workers run; instead each of the `k` supervisors of a [`ShardPool`]
//! pulls cells from the same round-robin `claim` the worker threads use
//! and hands them, one at a time, to its worker *process*. `Record`
//! frames land through [`JobStore::complete_from_shard`], which publishes
//! them into the same per-cell slots the blocking
//! [`JobStore::next_record`] iterator reads — so the stream a client sees
//! is byte-identical at any `k`, including 0. Durability moves with the
//! work: each worker appends to its own `job-<id>.shard<i>.ndjson` before
//! streaming, the front-end writes no `job-<id>.ndjson` of its own
//! (except for the error record of a cell lost twice, see
//! `JobStore::release`), and the re-scan restores from both layouts (`k`
//! may even change across restarts).

use crate::metrics::Metrics;
use crate::shard::{self, ShardPool};
use crate::spec_json;
use dispersion_sim::runner::{error_record, run_cell, CancelToken};
use dispersion_sim::sink::{parse_ndjson_lossy, Event, Record, Sink};
use dispersion_sim::spec::{CellError, ExperimentSpec};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full: too many jobs still have open cells.
    QueueFull {
        /// The configured bound.
        max_live: usize,
    },
    /// The spec has no cells (nothing to run, nothing to stream).
    EmptySpec,
    /// Persisting the spec to the data directory failed.
    Persist(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { max_live } => {
                write!(f, "job queue full ({max_live} live jobs)")
            }
            SubmitError::EmptySpec => write!(f, "spec has no cells"),
            SubmitError::Persist(e) => write!(f, "cannot persist job: {e}"),
        }
    }
}

/// One step of the record stream for a job.
#[derive(Debug, PartialEq)]
pub enum NextRecord {
    /// The next record, as its NDJSON line (no trailing newline).
    Line(String),
    /// No further records will ever arrive (job finished, cancelled
    /// before this cell, or the server is shutting down).
    End,
    /// No such job.
    NotFound,
}

enum Cell {
    Pending,
    Running {
        /// Sharded mode: the shard the cell was sent to.
        shard: Option<u64>,
    },
    Done {
        record: Record,
        /// Whether the record belongs to the durable stream. False only
        /// for records minted after cancellation — those are visible in
        /// the status but never checkpointed or streamed, so restarts
        /// and stream resumes see a consistent prefix.
        durable: bool,
        /// Sharded mode: the shard that ran the cell (`None` for cells
        /// restored from disk).
        shard: Option<u64>,
    },
}

impl Cell {
    /// The shard that ran or is running this cell, if known.
    fn shard(&self) -> Option<u64> {
        match self {
            Cell::Pending => None,
            Cell::Running { shard } | Cell::Done { shard, .. } => *shard,
        }
    }
}

struct Job {
    spec: Arc<ExperimentSpec>,
    ctrl: CancelToken,
    cancelled: bool,
    cells: Vec<Cell>,
    /// Chunk-grained live trial counts per cell (status endpoint).
    live_trials: Arc<Vec<AtomicU64>>,
}

impl Job {
    fn new(spec: Arc<ExperimentSpec>) -> Job {
        let n = spec.len();
        Job {
            spec,
            ctrl: CancelToken::new(),
            cancelled: false,
            cells: (0..n).map(|_| Cell::Pending).collect(),
            live_trials: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    fn open_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !matches!(c, Cell::Done { .. }))
            .count()
    }

    fn is_live(&self) -> bool {
        !self.cancelled && self.open_cells() > 0
    }

    fn status_label(&self) -> &'static str {
        if self.cancelled {
            return "cancelled";
        }
        if self.open_cells() == 0 {
            let failed = self
                .cells
                .iter()
                .any(|c| matches!(c, Cell::Done { record, .. } if record.error.is_some()));
            return if failed { "error" } else { "done" };
        }
        let touched = self.cells.iter().any(|c| !matches!(c, Cell::Pending));
        if touched {
            "running"
        } else {
            "queued"
        }
    }
}

struct Store {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    /// Fairness cursor: id of the job a cell was last claimed from.
    rr: u64,
    shutdown: bool,
    /// Sharded mode: shard sessions that ended with a cell in flight, for
    /// the open cells that have had one, by `(job, cell)`.
    losses: BTreeMap<(u64, usize), u8>,
}

/// The shared job queue + registry. One per server process; workers,
/// connection handlers and the re-scan all go through here.
pub struct JobStore {
    state: Mutex<Store>,
    cv: Condvar,
    /// Service counters (shared with the HTTP layer for `/metrics`).
    pub metrics: Arc<Metrics>,
    data_dir: Option<PathBuf>,
    max_live: usize,
    /// Shard count `k`; 0 = in-process worker threads (the default).
    shards: u64,
    /// The shard pool to notify on cancel in sharded mode. `Weak`
    /// breaks the `JobStore ↔ ShardPool` reference cycle; the pool
    /// registers itself via [`JobStore::set_dispatch`] at startup.
    dispatch: Mutex<Option<Weak<ShardPool>>>,
}

/// What a worker claimed: everything needed to run one cell without
/// holding the store lock.
pub(crate) struct Claim {
    pub(crate) job: u64,
    pub(crate) cell: usize,
    pub(crate) spec: Arc<ExperimentSpec>,
    ctrl: CancelToken,
    live: Arc<Vec<AtomicU64>>,
}

/// Shard sessions that may end with a cell in flight before the cell is
/// completed with an error record instead of being re-queued.
const MAX_LOSSES: u8 = 2;

/// Forwards chunk-grained progress into the live counters and the
/// process metrics; everything else (the Done record) comes back as
/// [`run_cell`]'s return value.
struct WorkerSink {
    live: Arc<Vec<AtomicU64>>,
    metrics: Arc<Metrics>,
}

impl Sink for WorkerSink {
    fn on_event(&mut self, event: &Event) {
        if let Event::Chunk {
            cell,
            trials,
            steps,
        } = event
        {
            // ORDERING: Relaxed — progress gauge only; /status readers
            // tolerate lag, and cell completion is published under the lock
            self.live[*cell].fetch_add(*trials, Ordering::Relaxed);
            Metrics::bump(&self.metrics.trials_total, *trials);
            Metrics::bump(&self.metrics.steps_total, *steps);
        }
    }
}

fn spec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.spec.json"))
}

fn ndjson_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ndjson"))
}

fn cancel_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.cancelled"))
}

impl JobStore {
    /// Opens a store, re-scanning `data_dir` (created if missing) and
    /// restoring every persisted job: completed cells from their
    /// checkpoints, unfinished cells back into the queue, cancelled jobs
    /// as inert tombstones. Without a data directory the store is purely
    /// in-memory (tests, overhead benches).
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed. Individual
    /// corrupt job files are skipped with a note on stderr — one bad spec
    /// must not take down the whole service.
    pub fn open(
        data_dir: Option<PathBuf>,
        max_live: usize,
        metrics: Arc<Metrics>,
    ) -> io::Result<Arc<JobStore>> {
        Self::open_with_shards(data_dir, max_live, metrics, 0)
    }

    /// [`JobStore::open`] with a shard count: `shards = 0` is today's
    /// in-process worker pool, `shards = k > 0` makes this store the
    /// merge front-end of a `k`-process [`ShardPool`] (which must be
    /// started separately and registered via [`JobStore::set_dispatch`]).
    ///
    /// # Errors
    ///
    /// See [`JobStore::open`].
    pub fn open_with_shards(
        data_dir: Option<PathBuf>,
        max_live: usize,
        metrics: Arc<Metrics>,
        shards: u64,
    ) -> io::Result<Arc<JobStore>> {
        let mut store = Store {
            jobs: BTreeMap::new(),
            next_id: 1,
            rr: 0,
            shutdown: false,
            losses: BTreeMap::new(),
        };
        if let Some(dir) = &data_dir {
            fs::create_dir_all(dir)?;
            let mut ids = Vec::new();
            for entry in fs::read_dir(dir)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if let Some(id) = name
                    .strip_prefix("job-")
                    .and_then(|r| r.strip_suffix(".spec.json"))
                    .and_then(|r| r.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
            ids.sort_unstable();
            for id in ids {
                match load_job(dir, id, &metrics) {
                    Ok(job) => {
                        if job.is_live() {
                            Metrics::bump(&metrics.jobs_resumed, 1);
                        }
                        store.next_id = store.next_id.max(id + 1);
                        store.jobs.insert(id, job);
                    }
                    Err(e) => eprintln!("# serve: skipping job {id}: {e}"),
                }
            }
        }
        Ok(Arc::new(JobStore {
            state: Mutex::new(store),
            cv: Condvar::new(),
            metrics,
            data_dir,
            max_live: max_live.max(1),
            shards,
            dispatch: Mutex::new(None),
        }))
    }

    /// The shard count this store was opened with (0 = in-process mode).
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Registers the shard pool that cancellations fan out to.
    pub fn set_dispatch(&self, pool: &Arc<ShardPool>) {
        *self.dispatch.lock().unwrap() = Some(Arc::downgrade(pool));
    }

    /// The registered pool, if it is still alive. The dispatch lock is
    /// released before the returned pool is used, so pool methods can
    /// take the store lock freely.
    fn pool(&self) -> Option<Arc<ShardPool>> {
        self.dispatch
            .lock()
            .unwrap()
            .as_ref()
            .and_then(Weak::upgrade)
    }

    /// Accepts a spec into the queue and returns its job id. The spec is
    /// persisted (when a data directory is configured) *before* the job
    /// becomes claimable, so a crash can never leave an accepted job
    /// without its spec file.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `max_live` jobs still have open
    /// cells, [`SubmitError::EmptySpec`] for cell-less specs, and
    /// [`SubmitError::Persist`] when the spec file cannot be written.
    pub fn submit(&self, spec: ExperimentSpec) -> Result<u64, SubmitError> {
        if spec.is_empty() {
            return Err(SubmitError::EmptySpec);
        }
        let spec = Arc::new(spec);
        let mut st = self.state.lock().unwrap();
        let live = st.jobs.values().filter(|j| j.is_live()).count();
        if live >= self.max_live {
            return Err(SubmitError::QueueFull {
                max_live: self.max_live,
            });
        }
        let id = st.next_id;
        if let Some(dir) = &self.data_dir {
            fs::write(spec_path(dir, id), spec_json::spec_to_json(&spec))
                .map_err(|e| SubmitError::Persist(e.to_string()))?;
        }
        st.next_id += 1;
        st.jobs.insert(id, Job::new(spec));
        Metrics::bump(&self.metrics.jobs_submitted, 1);
        drop(st);
        self.cv.notify_all();
        Ok(id)
    }

    /// Cooperatively cancels a job: fires its [`CancelToken`] (in-flight
    /// cells stop at their next trial boundary), takes its pending cells
    /// out of the queue, and persists a marker so a restarted server does
    /// not resurrect it. Returns `false` for unknown ids; cancelling an
    /// already-cancelled or finished job is a harmless no-op.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        if !job.cancelled {
            job.cancelled = true;
            job.ctrl.cancel();
            Metrics::bump(&self.metrics.jobs_cancelled, 1);
            if let Some(dir) = &self.data_dir {
                if let Err(e) = fs::write(cancel_path(dir, id), b"") {
                    eprintln!("# serve: cannot persist cancel marker for job {id}: {e}");
                }
            }
        }
        drop(st);
        self.cv.notify_all();
        if let Some(pool) = self.pool() {
            pool.cancel_job(id);
        }
        true
    }

    /// The job's status document (`GET /jobs/<id>`), or `None` for
    /// unknown ids.
    pub fn status_json(&self, id: u64) -> Option<String> {
        let st = self.state.lock().unwrap();
        let job = st.jobs.get(&id)?;
        let mut s = format!(
            "{{\"id\":{id},\"status\":\"{}\",\"cells\":[",
            job.status_label()
        );
        let mut total_trials = 0u64;
        for (i, cell) in job.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (state, trials, error) = match cell {
                Cell::Pending if job.cancelled => ("cancelled", 0, None),
                Cell::Pending => ("queued", 0, None),
                // ORDERING: Relaxed — display gauge; a stale trial count in
                // a status snapshot is fine
                Cell::Running { .. } => {
                    ("running", job.live_trials[i].load(Ordering::Relaxed), None)
                }
                Cell::Done { record, .. } => (
                    if record.error.is_some() {
                        "error"
                    } else {
                        "done"
                    },
                    record.trials,
                    record.error.as_deref(),
                ),
            };
            total_trials += trials;
            let placement = if self.shards > 0 {
                format!(",\"shard\":{}", fmt_placement(cell.shard()))
            } else {
                String::new()
            };
            s.push_str(&format!(
                "{{\"cell\":{i},\"state\":\"{state}\",\"trials\":{trials},\"error\":{}{placement}}}",
                match error {
                    None => "null".to_string(),
                    Some(e) => dispersion_sim::json::fmt_str(e),
                }
            ));
        }
        s.push_str(&format!("],\"trials\":{total_trials}"));
        if self.shards > 0 {
            s.push_str(&format!(",\"shards\":{}", self.shards));
            if let Some(pool) = self.pool() {
                s.push_str(",\"shard_states\":[");
                for (i, up) in pool.shard_states().iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(if *up { "\"up\"" } else { "\"down\"" });
                }
                s.push(']');
            }
        }
        s.push('}');
        Some(s)
    }

    /// The job list document (`GET /jobs`): every known job's id, status,
    /// cell count, open-cell count — and, in sharded mode, the shard that
    /// ran or is running each cell (`null` before dispatch and for cells
    /// restored from disk).
    pub fn list_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let mut s = String::from("{\"jobs\":[");
        for (i, (id, job)) in st.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{id},\"status\":\"{}\",\"cells\":{},\"open_cells\":{}",
                job.status_label(),
                job.cells.len(),
                job.open_cells()
            ));
            if self.shards > 0 {
                let placement: Vec<String> =
                    job.cells.iter().map(|c| fmt_placement(c.shard())).collect();
                s.push_str(&format!(",\"shards\":[{}]", placement.join(",")));
            }
            s.push('}');
        }
        s.push_str(&format!("],\"shards\":{}}}", self.shards));
        s
    }

    /// Gauges for `/metrics`: `(live jobs, open cells across live jobs)`.
    pub fn gauges(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        let live: Vec<&Job> = st.jobs.values().filter(|j| j.is_live()).collect();
        let cells = live.iter().map(|j| j.open_cells() as u64).sum();
        (live.len() as u64, cells)
    }

    /// Blocks until record `k` (0-based, cell order) of job `id` exists,
    /// the stream provably ends before it, or the store shuts down.
    /// Records stream strictly in cell order — the same order an
    /// in-process `Runner` returns them and the order checkpoints are
    /// replayed in — so the concatenation of resumed streams across
    /// restarts is byte-identical to one uninterrupted stream.
    pub fn next_record(&self, id: u64, k: usize) -> NextRecord {
        let mut st = self.state.lock().unwrap();
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return NextRecord::NotFound;
            };
            if k >= job.cells.len() {
                return NextRecord::End;
            }
            match &job.cells[k] {
                Cell::Done {
                    record,
                    durable: true,
                    ..
                } => return NextRecord::Line(record.to_json_line()),
                Cell::Done { durable: false, .. } => return NextRecord::End,
                _ if job.cancelled || st.shutdown => return NextRecord::End,
                _ => st = self.cv.wait(st).unwrap(),
            }
        }
    }

    /// Claims the next `(job, cell)` round-robin across live jobs;
    /// blocks while the queue is empty. `None` means shutdown. In-process
    /// worker threads and shard supervisors both pull from here.
    pub(crate) fn claim(&self) -> Option<Claim> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            // ids cyclically ordered after the cursor: the job we last
            // served goes to the back of the line
            let rr = st.rr;
            let mut ids: Vec<u64> = st.jobs.range(rr + 1..).map(|(id, _)| *id).collect();
            ids.extend(st.jobs.range(..=rr).map(|(id, _)| *id));
            for id in ids {
                let job = st.jobs.get_mut(&id).unwrap();
                if job.cancelled {
                    continue;
                }
                let Some(cell) = job.cells.iter().position(|c| matches!(c, Cell::Pending)) else {
                    continue;
                };
                job.cells[cell] = Cell::Running { shard: None };
                st.rr = id;
                let job_ref = st.jobs.get(&id).unwrap();
                return Some(Claim {
                    job: id,
                    cell,
                    spec: Arc::clone(&job_ref.spec),
                    ctrl: job_ref.ctrl.clone(),
                    live: Arc::clone(&job_ref.live_trials),
                });
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Publishes a cell's record and wakes streamers. With `checkpoint`
    /// the record is first appended to `job-<id>.ndjson` — unless the job
    /// was cancelled meanwhile, which keeps it out of the durable stream.
    fn land(
        &self,
        mut st: MutexGuard<'_, Store>,
        id: u64,
        cell: usize,
        record: Record,
        checkpoint: bool,
    ) {
        st.losses.remove(&(id, cell));
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        let durable = !job.cancelled;
        if durable && checkpoint {
            if let Some(dir) = &self.data_dir {
                if let Err(e) = append_record(dir, id, &record) {
                    eprintln!("# serve: cannot checkpoint job {id} cell {cell}: {e}");
                }
            }
        }
        // ORDERING: Relaxed — final gauge sync; the authoritative record is
        // the Cell::Done written under this same store lock
        job.live_trials[cell].store(record.trials, Ordering::Relaxed);
        let shard = job.cells[cell].shard();
        job.cells[cell] = Cell::Done {
            record,
            durable,
            shard,
        };
        Metrics::bump(&self.metrics.cells_completed, 1);
        if job.open_cells() == 0 && !job.cancelled {
            Metrics::bump(&self.metrics.jobs_completed, 1);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Lands a completed cell of an in-process worker.
    fn complete(&self, claim: &Claim, record: Record) {
        let st = self.state.lock().unwrap();
        self.land(st, claim.job, claim.cell, record, true);
    }

    /// Records which shard a claimed cell was sent to (status display).
    pub(crate) fn place(&self, claim: &Claim, shard: u64) {
        let mut st = self.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&claim.job) {
            if let Cell::Running { shard: s } = &mut job.cells[claim.cell] {
                *s = Some(shard);
            }
        }
    }

    /// Puts a claimed cell whose shard session ended before its record
    /// landed back in the queue, for any shard. `lost` charges the session
    /// end to the cell (its worker may have died running it); at the
    /// second charged loss the cell is completed with an error record
    /// instead — checkpointed to `job-<id>.ndjson`, since no worker wrote
    /// it — so one crashing cell cannot walk across every shard.
    pub(crate) fn release(&self, id: u64, cell: usize, lost: bool) {
        let mut st = self.state.lock().unwrap();
        let Some(spec) = st
            .jobs
            .get(&id)
            .filter(|job| matches!(job.cells[cell], Cell::Running { .. }))
            .map(|job| Arc::clone(&job.spec))
        else {
            return;
        };
        if lost {
            let losses = st.losses.entry((id, cell)).or_insert(0);
            *losses += 1;
            if *losses >= MAX_LOSSES {
                let e = CellError::Invalid(format!(
                    "shard worker lost while running this cell {MAX_LOSSES} times"
                ));
                let record = error_record(&spec, cell, 0, &e);
                self.land(st, id, cell, record, true);
                return;
            }
        }
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        job.cells[cell] = Cell::Pending;
        // ORDERING: Relaxed — progress gauge reset under the store lock;
        // the re-run books its trials afresh
        job.live_trials[cell].store(0, Ordering::Relaxed);
        drop(st);
        self.cv.notify_all();
    }

    /// Lands a record streamed back by a shard worker. Duplicates are
    /// ignored — first write per cell wins — and so are records whose
    /// `(cell, key)` fingerprint does not match the spec. The front-end
    /// writes no checkpoint of its own here: the worker's shard file,
    /// appended *before* the frame was sent, is the durability.
    pub fn complete_from_shard(&self, id: u64, line: &str) {
        let Ok(record) = Record::from_json_line(line) else {
            eprintln!("# serve: job {id}: unparseable shard record dropped");
            return;
        };
        let st = self.state.lock().unwrap();
        let Some(job) = st.jobs.get(&id) else {
            return;
        };
        let cell = record.cell;
        if cell >= job.spec.len()
            || job.spec.cell_key(cell) != record.key
            || matches!(job.cells[cell], Cell::Done { .. })
        {
            return;
        }
        self.land(st, id, cell, record, false);
    }

    /// Books chunk-grained progress from a shard worker (`Progress`
    /// frames carry per-chunk deltas, exactly like in-process sinks).
    pub fn shard_progress(&self, id: u64, cell: usize, trials: u64, steps: u64) {
        let st = self.state.lock().unwrap();
        if let Some(job) = st.jobs.get(&id) {
            if cell < job.live_trials.len() {
                // ORDERING: Relaxed — progress gauge only; see WorkerSink
                job.live_trials[cell].fetch_add(trials, Ordering::Relaxed);
            }
        }
        drop(st);
        Metrics::bump(&self.metrics.trials_total, trials);
        Metrics::bump(&self.metrics.steps_total, steps);
    }

    /// Fsyncs every file in the data directory (graceful-shutdown tail:
    /// the per-record writes are flushed but not synced, trading
    /// torn-final-line recovery for throughput during normal operation).
    pub fn sync_checkpoints(&self) {
        let Some(dir) = &self.data_dir else { return };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_type().is_ok_and(|t| t.is_file()) {
                if let Ok(f) = fs::File::open(entry.path()) {
                    let _ = f.sync_all();
                }
            }
        }
    }

    /// Spawns `n` worker threads draining the queue until [`JobStore::stop`].
    pub fn start_workers(self: &Arc<Self>, n: usize) -> Vec<JoinHandle<()>> {
        (0..n.max(1))
            .map(|_| {
                let store = Arc::clone(self);
                std::thread::spawn(move || {
                    while let Some(claim) = store.claim() {
                        let mut sink = WorkerSink {
                            live: Arc::clone(&claim.live),
                            metrics: Arc::clone(&store.metrics),
                        };
                        let record = run_cell(&claim.spec, claim.cell, &claim.ctrl, &mut sink);
                        store.complete(&claim, record);
                    }
                })
            })
            .collect()
    }

    /// Stops the store: workers exit after their current cell, blocked
    /// streamers end their streams.
    pub fn stop(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

/// Restores one job from its persisted files.
fn load_job(dir: &Path, id: u64, metrics: &Metrics) -> Result<Job, String> {
    let spec_text =
        fs::read_to_string(spec_path(dir, id)).map_err(|e| format!("spec unreadable: {e}"))?;
    let spec = spec_json::spec_from_json(&spec_text).map_err(|e| format!("spec invalid: {e}"))?;
    if spec.is_empty() {
        return Err("spec has no cells".into());
    }
    let mut job = Job::new(Arc::new(spec));
    if cancel_path(dir, id).exists() {
        job.cancelled = true;
        job.ctrl.cancel();
    }
    let ck = ndjson_path(dir, id);
    if ck.exists() {
        let text = fs::read_to_string(&ck).map_err(|e| format!("checkpoint unreadable: {e}"))?;
        let (records, tail) = parse_ndjson_lossy(&text);
        if let Some(tail) = tail {
            // a torn *final* line is the expected crash shape: truncate it
            // (its cell re-runs); interior garbage means a foreign file
            if text[tail.offset..].trim_end().contains('\n') {
                return Err(format!(
                    "checkpoint corrupt at line {}: {}",
                    tail.line, tail.error
                ));
            }
            eprintln!(
                "# serve: job {id}: dropping torn final checkpoint line {} ({})",
                tail.line, tail.error
            );
            fs::write(&ck, &text[..tail.offset])
                .map_err(|e| format!("cannot truncate torn checkpoint: {e}"))?;
        }
        for r in records {
            let cell = r.cell;
            if cell < job.spec.len()
                && job.spec.cell_key(cell) == r.key
                && !matches!(job.cells[cell], Cell::Done { .. })
            {
                // ORDERING: Relaxed — resume-time gauge backfill under the
                // store lock, before any worker threads exist
                job.live_trials[cell].store(r.trials, Ordering::Relaxed);
                job.cells[cell] = Cell::Done {
                    record: r,
                    durable: true,
                    shard: None,
                };
                Metrics::bump(&metrics.cells_resumed, 1);
            }
        }
    }
    // Shard-mode checkpoints: `job-<id>.shard<i>.ndjson`, one per worker
    // process, in completion order. Found by directory listing, so the
    // restore works at any — even a changed — shard count. A cell re-run
    // after a lost session can appear in two files; the first copy wins
    // (they are byte-identical).
    let prefix = format!("job-{id}.shard");
    let mut shard_files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("data dir unlistable: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ndjson"))
        })
        .collect();
    shard_files.sort();
    for path in shard_files {
        let records = match shard::read_checkpoint(&path) {
            Ok(r) => r,
            Err(e) => {
                // one foreign/corrupt shard file only costs re-running its
                // cells (its worker resets it before appending again)
                eprintln!("# serve: job {id}: skipping {}: {e}", path.display());
                continue;
            }
        };
        for r in records {
            let cell = r.cell;
            if cell < job.spec.len()
                && job.spec.cell_key(cell) == r.key
                && !matches!(job.cells[cell], Cell::Done { .. })
            {
                // ORDERING: Relaxed — resume-time gauge backfill under the
                // store lock, before any worker threads exist
                job.live_trials[cell].store(r.trials, Ordering::Relaxed);
                job.cells[cell] = Cell::Done {
                    record: r,
                    durable: true,
                    shard: None,
                };
                Metrics::bump(&metrics.cells_resumed, 1);
            }
        }
    }
    Ok(job)
}

/// A cell's shard placement as JSON: the shard id, or `null`.
fn fmt_placement(shard: Option<u64>) -> String {
    shard.map_or_else(|| "null".into(), |s| s.to_string())
}

/// Appends one record line to the job's checkpoint and flushes — the
/// same write-then-flush-per-record durability the CLI's `--resume`
/// sink uses.
fn append_record(dir: &Path, id: u64, record: &Record) -> io::Result<()> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ndjson_path(dir, id))?;
    writeln!(f, "{}", record.to_json_line())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::families::Family;
    use dispersion_sim::experiment::Process;
    use dispersion_sim::runner::Runner;
    use dispersion_sim::sink::MemorySink;
    use dispersion_sim::spec::{Budget, CellSpec, FamilySpec, Measure};

    fn small_spec(seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(seed);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 24),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(12)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 12),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(12)),
        );
        spec
    }

    fn memory_store(max_live: usize) -> Arc<JobStore> {
        JobStore::open(None, max_live, Arc::new(Metrics::new())).unwrap()
    }

    fn drain(store: &Arc<JobStore>, id: u64) -> Vec<Record> {
        let mut out = Vec::new();
        let mut k = 0;
        loop {
            match store.next_record(id, k) {
                NextRecord::Line(line) => {
                    out.push(Record::from_json_line(&line).unwrap());
                    k += 1;
                }
                NextRecord::End => return out,
                NextRecord::NotFound => panic!("job {id} vanished"),
            }
        }
    }

    #[test]
    fn records_match_in_process_runner() {
        let store = memory_store(8);
        let workers = store.start_workers(2);
        let id = store.submit(small_spec(3)).unwrap();
        let got = drain(&store, id);
        let want = Runner::new(1).run(&small_spec(3), &[], &mut MemorySink::default());
        assert_eq!(got, want);
        let status = store.status_json(id).unwrap();
        assert!(status.contains("\"status\":\"done\""), "{status}");
        store.stop();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn queue_bound_and_empty_spec_rejected() {
        let store = memory_store(1);
        // no workers: the first job stays live and occupies the queue
        let _id = store.submit(small_spec(1)).unwrap();
        assert!(matches!(
            store.submit(small_spec(2)),
            Err(SubmitError::QueueFull { max_live: 1 })
        ));
        assert!(matches!(
            store.submit(ExperimentSpec::new(0)),
            Err(SubmitError::EmptySpec)
        ));
        store.stop();
    }

    #[test]
    fn cancel_frees_queue_and_ends_stream() {
        let store = memory_store(1);
        let id = store.submit(small_spec(1)).unwrap();
        assert!(store.cancel(id));
        assert!(!store.cancel(999));
        // cancelled job no longer counts against the bound
        let id2 = store.submit(small_spec(2)).unwrap();
        assert_ne!(id, id2);
        // its stream ends immediately (no workers ran anything)
        assert_eq!(store.next_record(id, 0), NextRecord::End);
        let status = store.status_json(id).unwrap();
        assert!(status.contains("\"status\":\"cancelled\""), "{status}");
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
        store.stop();
    }

    #[test]
    fn unknown_job_is_not_found() {
        let store = memory_store(4);
        assert_eq!(store.next_record(42, 0), NextRecord::NotFound);
        assert!(store.status_json(42).is_none());
    }

    #[test]
    fn round_robin_interleaves_jobs() {
        // no workers: claim() by hand and observe the order
        let store = memory_store(8);
        let a = store.submit(small_spec(1)).unwrap();
        let b = store.submit(small_spec(2)).unwrap();
        let c1 = store.claim().unwrap();
        let c2 = store.claim().unwrap();
        let c3 = store.claim().unwrap();
        let c4 = store.claim().unwrap();
        let order: Vec<(u64, usize)> = [&c1, &c2, &c3, &c4]
            .iter()
            .map(|c| (c.job, c.cell))
            .collect();
        assert_eq!(order, vec![(a, 0), (b, 0), (a, 1), (b, 1)]);
        store.stop();
    }

    #[test]
    fn second_lost_session_completes_the_cell_with_an_error() {
        // no workers: claim and release by hand, as a shard supervisor does
        let store = memory_store(8);
        let mut spec = ExperimentSpec::new(5);
        spec.push(small_spec(5).cells[0].clone());
        let id = store.submit(spec).unwrap();
        // an uncharged release (the Run never left) does not count
        for lost in [false, true] {
            let c = store.claim().unwrap();
            assert_eq!((c.job, c.cell), (id, 0));
            store.release(id, 0, lost);
        }
        let c = store.claim().unwrap();
        assert_eq!((c.job, c.cell), (id, 0), "one loss re-queues the cell");
        store.release(id, 0, true);

        let records = drain(&store, id);
        assert_eq!(records.len(), 1, "the stream ends after the error record");
        let err = records[0].error.as_deref().unwrap();
        assert!(err.starts_with("trial 0: shard worker lost"), "{err}");
        let status = store.status_json(id).unwrap();
        assert!(status.contains("\"status\":\"error\""), "{status}");
        store.stop();
    }
}
