//! The coordinator side of the shard fabric: one supervisor thread per
//! shard keeps a worker process alive and serves as the transport of one
//! [`JobStore`] executor loop.
//!
//! ## Supervision
//!
//! Each supervisor loops: *acquire* a worker (spawn
//! `dispersion-shard-worker`, read the address from its banner and
//! connect to it; after a dropped session, reconnect to the same live
//! child, and respawn a child that exited), then run a *session*: the
//! store's executor loop claims the next `(job, cell)` from the
//! round-robin queue, and the supervisor sends it as a `Run` frame and
//! waits for that cell's `Record`, which the loop then checkpoints and
//! publishes. A reader thread books `Progress` frames on the in-flight
//! claim and hands its `Record` over. One cell in flight per shard is all
//! a worker can use (it runs one cell at a time), and it keeps a long
//! cell from holding up anything queued behind it: the other shards keep
//! pulling.
//!
//! The pool holds each child's stdin pipe and nothing writes to it: the
//! worker drains and exits when it reads EOF there, so workers end with
//! the front-end process however it ends, even by SIGKILL.
//!
//! A dead worker — crash, SIGKILL, dropped socket — ends the session, and
//! so does a `Record` that does not parse or does not answer the
//! in-flight `Run`. The in-flight cell goes back to the queue for any
//! shard, and the supervisor re-acquires under a jittered [`Backoff`].
//! Determinism makes the re-run byte-identical. The loss counts against
//! the cell only if the worker *took* it: the worker acknowledges each
//! `Run` with a zero `Progress` frame, and any frame for the in-flight
//! cell (that acknowledgement, a `Progress`, a `Record` whether it parses
//! or not) marks it taken. The second charged loss of one cell completes
//! it with an error record instead. A `Run` that a dying worker never read
//! is not charged, so two unrelated drops cannot fail a valid cell. A
//! worker that dies while idle ends the session too: the reader wakes the
//! store, whose claim wait checks the link, so the supervisor re-acquires
//! even while the queue is empty.
//!
//! Cancellation fans out through [`ShardPool::cancel_job`] (the server's
//! `DELETE /jobs/<id>` route calls it) on the stored write halves; a
//! shard that is down at that moment has nothing of the job in flight,
//! and cancelled jobs are never claimed again.

use super::proto::{read_frame, write_frame, Frame};
use crate::client::Backoff;
use crate::jobs::{Claim, JobStore, Ran};
use crate::spec_json;
use dispersion_sim::sink::Record;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the pool obtains its worker processes.
#[derive(Clone, Debug)]
pub enum ShardLaunch {
    /// Spawn (and restart) `dispersion-shard-worker` processes.
    Process {
        /// Path to the worker binary.
        worker_bin: PathBuf,
    },
    /// Connect to workers something else is running — tests drive
    /// [`run_worker`](super::worker::run_worker) on in-process threads.
    /// No restarts: a dead address is simply retried.
    Existing {
        /// One address per shard.
        addrs: Vec<String>,
    },
}

/// Per-shard liveness gauges (rendered into `/metrics`).
#[derive(Default)]
struct ShardGauges {
    /// 1 while the shard's connection is live.
    up: AtomicU64,
    /// Worker pid (0 = none, or a worker the pool did not spawn).
    pid: AtomicU64,
    /// Times the shard had to be re-acquired after a working session.
    restarts: AtomicU64,
    /// Heartbeat frames received.
    heartbeats: AtomicU64,
    /// Record frames received.
    records: AtomicU64,
}

/// A spawned worker process and the address its banner reported.
struct Worker {
    /// The child, with its stdin pipe still open (see the module docs).
    child: Child,
    addr: String,
}

/// One worker session, shared by the supervisor and its reader thread.
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

struct LinkState {
    /// The claim sent as `Run` and not yet answered.
    in_flight: Option<Claim>,
    /// Whether the worker has sent a frame for the in-flight claim.
    taken: bool,
    /// The in-flight claim's record, once the reader has checked it.
    answer: Option<Record>,
    /// False once the reader has seen the connection end.
    alive: bool,
}

/// The shard-worker pool: `k` supervised worker processes behind one
/// [`JobStore`] front-end. See the module docs for the lifecycle.
pub struct ShardPool {
    store: Arc<JobStore>,
    launch: ShardLaunch,
    shards: u64,
    /// Write halves, one per shard; `None` while the shard is down.
    conns: Vec<Mutex<Option<TcpStream>>>,
    gauges: Vec<ShardGauges>,
    stop: AtomicBool,
    supervisors: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardPool {
    /// Starts `shards` supervisors over `store`. Returns immediately;
    /// workers come up and start pulling cells asynchronously.
    ///
    /// # Errors
    ///
    /// A zero shard count, a missing worker binary (Process mode), or an
    /// address-count mismatch (Existing mode) — caught at startup so a
    /// misconfigured server fails fast instead of spinning supervisors.
    pub fn start(
        store: &Arc<JobStore>,
        launch: ShardLaunch,
        shards: u64,
    ) -> io::Result<Arc<ShardPool>> {
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard pool needs at least one shard",
            ));
        }
        match &launch {
            ShardLaunch::Process { worker_bin } => {
                if !worker_bin.is_file() {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("shard worker binary not found: {}", worker_bin.display()),
                    ));
                }
            }
            ShardLaunch::Existing { addrs } => {
                if addrs.len() != shards as usize {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("{} addresses for {shards} shards", addrs.len()),
                    ));
                }
            }
        }
        let pool = Arc::new(ShardPool {
            store: Arc::clone(store),
            launch,
            shards,
            conns: (0..shards).map(|_| Mutex::new(None)).collect(),
            gauges: (0..shards).map(|_| ShardGauges::default()).collect(),
            stop: AtomicBool::new(false),
            supervisors: Mutex::new(Vec::new()),
        });
        let handles: Vec<JoinHandle<()>> = (0..shards)
            .map(|shard| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.supervise(shard))
            })
            .collect();
        *pool.supervisors.lock().unwrap() = handles;
        Ok(pool)
    }

    /// Per-shard liveness snapshot (`true` = connected).
    pub fn shard_states(&self) -> Vec<bool> {
        self.gauges
            .iter()
            // ORDERING: Relaxed — display gauge; staleness is bounded by
            // the supervisor's own reconnect latency anyway
            .map(|g| g.up.load(Ordering::Relaxed) == 1)
            .collect()
    }

    /// Fans a cancellation out to every shard.
    pub fn cancel_job(&self, job: u64) {
        for shard in 0..self.shards {
            self.send_to(shard, &Frame::Cancel { job });
        }
    }

    /// Graceful stop: ask every connected worker to drain (`Shutdown` →
    /// answer the in-flight cell, `Bye`), then join the supervisors —
    /// which reap their child processes on the way out. Call it after
    /// [`JobStore::stop`], which ends the supervisors' claims.
    pub fn stop(&self) {
        // ORDERING: SeqCst — once-per-process shutdown; strongest ordering
        // costs nothing and reads unambiguously
        self.stop.store(true, Ordering::SeqCst);
        for shard in 0..self.shards {
            self.send_to(shard, &Frame::Shutdown);
        }
        let handles: Vec<JoinHandle<()>> = self.supervisors.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// `/metrics` text for the shard gauges (appended to the process
    /// metrics by the HTTP layer).
    pub fn metrics_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# HELP serve_shards Configured shard count.\n# TYPE serve_shards gauge\n");
        s.push_str(&format!("serve_shards {}\n", self.shards));
        type GaugeRead = fn(&ShardGauges) -> u64;
        let series: [(&str, &str, GaugeRead); 5] = [
            (
                "serve_shard_up",
                "1 while the shard worker is connected.",
                |g| {
                    // ORDERING: Relaxed — display gauges throughout this table
                    g.up.load(Ordering::Relaxed)
                },
            ),
            (
                "serve_shard_pid",
                "Worker process id (0 = none/not spawned by the pool).",
                // ORDERING: Relaxed — display gauge
                |g| g.pid.load(Ordering::Relaxed),
            ),
            (
                "serve_shard_restarts_total",
                "Worker sessions re-acquired after a failure.",
                // ORDERING: Relaxed — monotone display counter
                |g| g.restarts.load(Ordering::Relaxed),
            ),
            (
                "serve_shard_heartbeats_total",
                "Heartbeat frames received.",
                // ORDERING: Relaxed — monotone display counter
                |g| g.heartbeats.load(Ordering::Relaxed),
            ),
            (
                "serve_shard_records_total",
                "Record frames received.",
                // ORDERING: Relaxed — monotone display counter
                |g| g.records.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, read) in series {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (shard, g) in self.gauges.iter().enumerate() {
                s.push_str(&format!("{name}{{shard=\"{shard}\"}} {}\n", read(g)));
            }
        }
        s
    }

    /// Writes one frame to a shard's stored connection; a failed or
    /// absent connection drops the frame.
    fn send_to(&self, shard: u64, frame: &Frame) {
        let mut conn = self.conns[shard as usize].lock().unwrap();
        if let Some(stream) = conn.as_mut() {
            if write_frame(stream, frame).is_err() {
                *conn = None;
            }
        }
    }

    /// One shard's supervisor loop: acquire → session, until stopped.
    fn supervise(&self, shard: u64) {
        // stream id = shard: distinct deterministic jitter per supervisor
        let mut backoff = Backoff::reconnect(shard);
        let mut worker: Option<Worker> = None;
        let mut had_session = false;
        loop {
            let Some(mut stream) = self.acquire(shard, &mut worker, &mut backoff) else {
                break; // stop requested during acquire
            };
            if self.stopping() {
                // stop() raced our connect: its Shutdown fan-out saw no
                // connection for this shard, so deliver the drain request
                // ourselves instead of pumping a session nobody will end
                let _ = write_frame(&mut stream, &Frame::Shutdown);
                break;
            }
            backoff.reset();
            if had_session {
                // ORDERING: Relaxed — monotone counters, display only
                self.gauges[shard as usize]
                    .restarts
                    .fetch_add(1, Ordering::Relaxed);
            }
            had_session = true;
            self.session(shard, stream);
            *self.conns[shard as usize].lock().unwrap() = None;
        }
        if let Some(w) = worker {
            reap(w.child);
        }
    }

    // ORDERING: SeqCst — pairs with the store in stop()
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Connects to the shard's worker — spawning one first when the pool
    /// has no live child — until a handshaken connection exists (or stop).
    fn acquire(
        &self,
        shard: u64,
        worker: &mut Option<Worker>,
        backoff: &mut Backoff,
    ) -> Option<TcpStream> {
        loop {
            if self.stopping() {
                return None;
            }
            let addr = match &self.launch {
                ShardLaunch::Existing { addrs } => Some(addrs[shard as usize].clone()),
                ShardLaunch::Process { worker_bin } => {
                    // reap a child that exited (crash or drain) before
                    // spawning its replacement, so no zombies pile up
                    if let Some(w) = worker.take_if(|w| !matches!(w.child.try_wait(), Ok(None))) {
                        reap(w.child);
                    }
                    if worker.is_none() {
                        match spawn_worker(shard, worker_bin) {
                            Ok(w) => {
                                // ORDERING: Relaxed — display gauge
                                self.gauges[shard as usize]
                                    .pid
                                    .store(u64::from(w.child.id()), Ordering::Relaxed);
                                *worker = Some(w);
                            }
                            Err(e) => eprintln!("# serve: shard {shard}: spawn failed: {e}"),
                        }
                    }
                    worker.as_ref().map(|w| w.addr.clone())
                }
            };
            if let Some(stream) = addr.and_then(|addr| self.connect(shard, &addr)) {
                return Some(stream);
            }
            // interruptible backoff sleep
            let mut left = backoff.next_delay();
            while left > Duration::ZERO {
                if self.stopping() {
                    return None;
                }
                let slice = left.min(Duration::from_millis(50));
                std::thread::sleep(slice);
                left = left.saturating_sub(slice);
            }
        }
    }

    /// One connection attempt: connect to `addr` and complete the
    /// `Hello`/`Ready` handshake under a timeout.
    fn connect(&self, shard: u64, addr: &str) -> Option<TcpStream> {
        let mut stream = TcpStream::connect(addr).ok()?;
        let _ = stream.set_nodelay(true);
        write_frame(
            &mut stream,
            &Frame::Hello {
                shard,
                shards: self.shards,
            },
        )
        .ok()?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut r = BufReader::new(stream.try_clone().ok()?);
        match read_frame(&mut r) {
            Ok(Some(Frame::Ready { shard: s })) if s == shard => {}
            _ => return None,
        }
        let _ = stream.set_read_timeout(None);
        *self.conns[shard as usize].lock().unwrap() = Some(stream.try_clone().ok()?);
        // ORDERING: Relaxed — display gauge
        self.gauges[shard as usize].up.store(1, Ordering::Relaxed);
        Some(stream)
    }

    /// One worker session: the store's executor loop runs cells through
    /// this worker while a reader thread takes its frames; returns once
    /// both are done.
    fn session(&self, shard: u64, stream: TcpStream) {
        let link = Link {
            state: Mutex::new(LinkState {
                in_flight: None,
                taken: false,
                answer: None,
                alive: true,
            }),
            cv: Condvar::new(),
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                self.pump(shard, stream, &link);
                // ORDERING: Relaxed — display gauge; the link state below
                // is the synchronised ground truth
                self.gauges[shard as usize].up.store(0, Ordering::Relaxed);
                link.state.lock().unwrap().alive = false;
                link.cv.notify_all();
                // an idle executor loop waits on the store, not the link
                self.store.wake();
            });
            self.store.execute(
                || link.state.lock().expect("link reader panicked").alive,
                |claim| self.run_remote(shard, &link, claim),
            );
        });
    }

    /// The shard transport: sends `claim` to the worker as a `Run` and
    /// waits for the reader to hand back its record.
    fn run_remote(&self, shard: u64, link: &Link, claim: &Claim) -> Ran {
        {
            let mut st = link.state.lock().unwrap();
            if !st.alive {
                // the worker died while we were idle: it never saw this cell
                return Ran::Lost { charged: false };
            }
            st.in_flight = Some(claim.clone());
            st.taken = false;
        }
        self.store.place(claim, shard);
        self.send_to(
            shard,
            &Frame::Run {
                job: claim.job,
                cell: claim.cell as u64,
                spec_json: spec_json::spec_to_json(&claim.spec),
            },
        );
        let mut st = link.state.lock().unwrap();
        loop {
            if let Some(record) = st.answer.take() {
                return Ran::Record(record);
            }
            if !st.alive {
                // only a worker that took the cell can have died of it
                return Ran::Lost { charged: st.taken };
            }
            st = link.cv.wait(st).unwrap();
        }
    }

    /// Reads worker frames until the connection ends: any frame for the
    /// in-flight claim marks it taken, `Progress` is booked on it and its
    /// `Record` handed over. A record that does not parse or does not
    /// answer the in-flight claim ends the session.
    fn pump(&self, shard: u64, stream: TcpStream, link: &Link) {
        let g = &self.gauges[shard as usize];
        let mut r = BufReader::new(stream);
        loop {
            match read_frame(&mut r) {
                Ok(Some(Frame::Record { job, cell, line })) => {
                    // ORDERING: Relaxed — monotone counter, display only
                    g.records.fetch_add(1, Ordering::Relaxed);
                    let mut st = link.state.lock().unwrap();
                    let answer = st
                        .in_flight
                        .as_ref()
                        .filter(|c| is_for(c, job, cell))
                        .map(|c| Record::from_json_line(&line).ok().filter(|r| c.matches(r)));
                    // a record for the in-flight cell, garbled or not,
                    // shows that the worker took it
                    st.taken |= answer.is_some();
                    let Some(record) = answer.flatten() else {
                        eprintln!(
                            "# serve: shard {shard}: record for job {job} cell {cell} \
                             does not answer its Run; dropping the session"
                        );
                        return;
                    };
                    st.in_flight = None;
                    st.answer = Some(record);
                    link.cv.notify_all();
                }
                Ok(Some(Frame::Progress {
                    job,
                    cell,
                    trials,
                    steps,
                })) => {
                    let mut st = link.state.lock().unwrap();
                    if let Some(c) = st.in_flight.as_ref().filter(|c| is_for(c, job, cell)) {
                        c.progress(trials, steps);
                        st.taken = true;
                    }
                }
                Ok(Some(Frame::Heartbeat)) => {
                    // ORDERING: Relaxed — monotone counter, display only
                    g.heartbeats.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Some(Frame::Bye) | None) | Err(_) => return,
                Ok(Some(_)) => {} // coordinator-bound frames only; ignore
            }
        }
    }
}

/// Whether a frame's `(job, cell)` names `claim`.
fn is_for(claim: &Claim, job: u64, cell: u64) -> bool {
    claim.job == job && claim.cell as u64 == cell
}

/// Spawns a worker with its stdin piped (see the module docs) and reads
/// the address it bound from its banner.
fn spawn_worker(shard: u64, worker_bin: &Path) -> io::Result<Worker> {
    let mut child = Command::new(worker_bin)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    let read = BufReader::new(stdout).read_line(&mut banner);
    match banner.strip_prefix("shard-worker listening ") {
        Some(addr) if read.is_ok() => Ok(Worker {
            addr: addr.trim().to_string(),
            child,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad worker banner {banner:?}"),
            ))
        }
    }
}

/// Closes a child's stdin, which asks it to drain, waits briefly for it
/// to exit, then kills it.
fn reap(mut child: Child) {
    drop(child.stdin.take());
    for _ in 0..200 {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(_) => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}
