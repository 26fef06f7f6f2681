//! The coordinator side of the shard fabric: one supervisor thread per
//! shard keeps a worker process alive (adopt-or-spawn), feeds it claimed
//! cells one at a time, and lands the worker's frames in the
//! [`JobStore`].
//!
//! ## Supervision
//!
//! Each supervisor loops: *acquire* a worker (adopt a running one through
//! its `shard-<i>.addr` file, else spawn `dispersion-shard-worker` and
//! parse its banner), then run a *session*: a reader thread lands
//! `Progress`/`Record` frames while the supervisor claims the next
//! `(job, cell)` from [`JobStore`]'s round-robin queue, sends it as a
//! `Run` frame and waits for that cell's `Record` before claiming again.
//! One cell in flight per shard is all a worker can use (it has one
//! runner thread), and it keeps a long cell from holding up anything
//! queued behind it: the other shards keep pulling.
//!
//! A dead worker — crash, SIGKILL, dropped socket — ends the session. Its
//! in-flight cell goes back to the queue for any shard (the second such
//! loss of one cell completes it with an error record instead, see
//! `JobStore::release`), and the supervisor re-acquires under a jittered
//! [`Backoff`]. Determinism makes the re-run byte-identical. A worker
//! that dies while idle is noticed at the supervisor's next claim, which
//! then goes back to the queue uncharged.
//!
//! Cancellation fans out through [`ShardPool::cancel_job`] on the stored
//! write halves; a shard that is down at that moment has nothing of the
//! job in flight, and cancelled jobs are never claimed again.

use super::proto::{read_frame, write_frame, Frame};
use crate::client::Backoff;
use crate::jobs::JobStore;
use crate::spec_json;
use std::fs;
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
    /// Worker pid (0 = adopted/unknown/none).
    pid: AtomicU64,
    /// Times the shard had to be re-acquired after a working session.
    restarts: AtomicU64,
    /// Heartbeat frames received.
    heartbeats: AtomicU64,
    /// Record frames received.
    records: AtomicU64,
}

/// One worker session, shared by the supervisor and its reader thread.
struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

struct LinkState {
    /// The `(job, cell)` sent and not yet answered.
    in_flight: Option<(u64, usize)>,
    /// False once the reader has seen the connection end.
    alive: bool,
}

/// The shard-worker pool: `k` supervised worker processes behind one
/// [`JobStore`] front-end. See the module docs for the lifecycle.
pub struct ShardPool {
    store: Arc<JobStore>,
    data_dir: PathBuf,
    launch: ShardLaunch,
    shards: u64,
    /// Write halves, one per shard; `None` while the shard is down.
    conns: Vec<Mutex<Option<TcpStream>>>,
    gauges: Vec<ShardGauges>,
    stop: AtomicBool,
    supervisors: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardPool {
    /// Starts `shards` supervisors over `store` and registers the pool as
    /// the store's cancellation target. Returns immediately; workers come
    /// up and start pulling cells asynchronously.
    ///
    /// # Errors
    ///
    /// A zero shard count, a missing worker binary (Process mode), or an
    /// address-count mismatch (Existing mode) — caught at startup so a
    /// misconfigured server fails fast instead of spinning supervisors.
    pub fn start(
        store: &Arc<JobStore>,
        data_dir: PathBuf,
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
        fs::create_dir_all(&data_dir)?;
        let pool = Arc::new(ShardPool {
            store: Arc::clone(store),
            data_dir,
            launch,
            shards,
            conns: (0..shards).map(|_| Mutex::new(None)).collect(),
            gauges: (0..shards).map(|_| ShardGauges::default()).collect(),
            stop: AtomicBool::new(false),
            supervisors: Mutex::new(Vec::new()),
        });
        store.set_dispatch(&pool);
        let handles: Vec<JoinHandle<()>> = (0..shards)
            .map(|shard| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.supervise(shard))
            })
            .collect();
        *pool.supervisors.lock().unwrap() = handles;
        Ok(pool)
    }

    /// The shard count `k`.
    pub fn shards(&self) -> u64 {
        self.shards
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
    /// finish in-flight cell, fsync, `Bye`), then join the supervisors —
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
                "Worker process id (0 = none/adopted).",
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

    /// Writes one frame to a shard's stored connection and reports
    /// whether it went out; a failed or absent connection drops the
    /// frame.
    fn send_to(&self, shard: u64, frame: &Frame) -> bool {
        let mut conn = self.conns[shard as usize].lock().unwrap();
        let Some(stream) = conn.as_mut() else {
            return false;
        };
        let sent = write_frame(stream, frame).is_ok();
        if !sent {
            *conn = None;
        }
        sent
    }

    /// One shard's supervisor loop: acquire → session, until stopped.
    fn supervise(&self, shard: u64) {
        // stream id = shard: distinct deterministic jitter per supervisor
        let mut backoff = Backoff::reconnect(shard);
        let mut child: Option<Child> = None;
        let mut had_session = false;
        loop {
            if self.stopping() {
                break;
            }
            let Some(mut stream) = self.acquire(shard, &mut child, &mut backoff) else {
                break; // stop requested during acquire
            };
            if self.stopping() {
                // stop() raced our adoption: its Shutdown fan-out saw no
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
        reap(&mut child);
    }

    // ORDERING: SeqCst — pairs with the store in stop()
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Adopt-or-spawn until a handshaken connection exists (or stop).
    fn acquire(
        &self,
        shard: u64,
        child: &mut Option<Child>,
        backoff: &mut Backoff,
    ) -> Option<TcpStream> {
        loop {
            if self.stopping() {
                return None;
            }
            // reap a child that exited (crash or drain) so a fresh spawn
            // below does not pile zombies up
            if let Some(c) = child {
                if matches!(c.try_wait(), Ok(Some(_))) {
                    *child = None;
                }
            }
            // adopt: a worker from a previous front-end life may still be
            // listening on the address its addr file records
            if let Some(stream) = self.try_adopt(shard) {
                return Some(stream);
            }
            if let ShardLaunch::Process { worker_bin } = &self.launch {
                if child.is_none() {
                    match self.spawn_worker(shard, worker_bin) {
                        Ok(c) => *child = Some(c),
                        Err(e) => eprintln!("# serve: shard {shard}: spawn failed: {e}"),
                    }
                    // the addr file the spawn wrote makes the next adopt
                    // attempt succeed
                    continue;
                }
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

    /// One adoption attempt: connect to the shard's recorded address and
    /// complete the `Hello`/`Ready` handshake under a timeout.
    fn try_adopt(&self, shard: u64) -> Option<TcpStream> {
        let addr = match &self.launch {
            ShardLaunch::Existing { addrs } => addrs[shard as usize].clone(),
            ShardLaunch::Process { .. } => fs::read_to_string(self.addr_path(shard))
                .ok()?
                .trim()
                .to_string(),
        };
        let mut stream = TcpStream::connect(&addr).ok()?;
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

    /// Spawns a worker, parses its banner for the bound address, and
    /// records it in the shard's addr file (which `try_adopt` reads).
    fn spawn_worker(&self, shard: u64, worker_bin: &Path) -> io::Result<Child> {
        let mut child = Command::new(worker_bin)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(&self.data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        let addr = banner
            .strip_prefix("shard-worker listening ")
            .map(str::trim)
            .ok_or_else(|| {
                let _ = child.kill();
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad worker banner {banner:?}"),
                )
            })?;
        fs::write(self.addr_path(shard), addr)?;
        // ORDERING: Relaxed — display gauge
        self.gauges[shard as usize]
            .pid
            .store(u64::from(child.id()), Ordering::Relaxed);
        Ok(child)
    }

    /// One worker session: a reader thread lands the worker's frames
    /// while this thread dispatches cells; returns once both are done.
    fn session(&self, shard: u64, stream: TcpStream) {
        let link = Link {
            state: Mutex::new(LinkState {
                in_flight: None,
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
            });
            self.dispatch(shard, &link);
        });
    }

    /// Claims cells and sends them to the worker, one in flight, until
    /// the session dies or the store shuts down.
    fn dispatch(&self, shard: u64, link: &Link) {
        while let Some(claim) = self.store.claim() {
            {
                let mut st = link.state.lock().unwrap();
                if !st.alive {
                    // the worker died while we were idle: it never saw
                    // this cell
                    drop(st);
                    self.store.release(claim.job, claim.cell, false);
                    return;
                }
                st.in_flight = Some((claim.job, claim.cell));
            }
            self.store.place(&claim, shard);
            let sent = self.send_to(
                shard,
                &Frame::Run {
                    job: claim.job,
                    cell: claim.cell as u64,
                    spec_json: spec_json::spec_to_json(&claim.spec),
                },
            );
            let mut st = link.state.lock().unwrap();
            while st.alive && st.in_flight.is_some() {
                st = link.cv.wait(st).unwrap();
            }
            if let Some((job, cell)) = st.in_flight.take() {
                // the session ended before the record landed; a Run that
                // never left does not count against the cell
                drop(st);
                self.store.release(job, cell, sent);
                return;
            }
            if !st.alive {
                return;
            }
        }
    }

    /// Reads worker frames into the store until the connection ends.
    fn pump(&self, shard: u64, stream: TcpStream, link: &Link) {
        let g = &self.gauges[shard as usize];
        let mut r = BufReader::new(stream);
        loop {
            match read_frame(&mut r) {
                Ok(Some(Frame::Record { job, cell, line })) => {
                    // ORDERING: Relaxed — monotone counter, display only
                    g.records.fetch_add(1, Ordering::Relaxed);
                    self.store.complete_from_shard(job, &line);
                    let mut st = link.state.lock().unwrap();
                    if st.in_flight == Some((job, cell as usize)) {
                        st.in_flight = None;
                        link.cv.notify_all();
                    }
                }
                Ok(Some(Frame::Progress {
                    job,
                    cell,
                    trials,
                    steps,
                })) => {
                    self.store.shard_progress(job, cell as usize, trials, steps);
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

    fn addr_path(&self, shard: u64) -> PathBuf {
        self.data_dir.join(format!("shard-{shard}.addr"))
    }
}

/// Waits briefly for a child to exit on its own (it was asked to drain),
/// then kills it.
fn reap(child: &mut Option<Child>) {
    let Some(c) = child else { return };
    for _ in 0..200 {
        match c.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(_) => break,
        }
    }
    let _ = c.kill();
    let _ = c.wait();
}
