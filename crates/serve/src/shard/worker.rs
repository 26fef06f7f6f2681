//! The headless shard worker: runs the cells the front-end sends it, one
//! `Run` frame at a time, through the same [`run_cell`] path the
//! in-process pool uses, streams each record back, and speaks the
//! [`proto`](super::proto) frame protocol with the front-end. It is
//! stateless: it writes no files, since the front-end checkpoints every
//! record before publishing it.
//!
//! [`run_worker`] is the whole process: the `dispersion-shard-worker`
//! binary is a thin flag-parsing wrapper around it, and tests run it on an
//! in-process thread against a listener they bound themselves.
//!
//! ## Session model
//!
//! One coordinator connection at a time. The session's own thread is the
//! **reader**: it acknowledges each `Run` at once with a zero `Progress`
//! frame for that `(job, cell)` (so the coordinator knows the worker took
//! the cell), then runs the cell on a scoped thread of its own, and
//! handles `Cancel` and `Shutdown` frames meanwhile. The coordinator sends
//! the next `Run` only after a cell's `Record`, so at most one cell runs.
//! A **heartbeat** thread sends idle liveness beacons and watches the
//! process termination flag, turning it into a drain.
//!
//! A lost connection aborts the running cell (its partial trials are
//! discarded; records are only durable at cell grain) and the worker goes
//! back to accepting — the coordinator re-queues the cell for any shard.
//! A `Shutdown` frame or the termination flag instead *drains*: the
//! running cell finishes and is answered, `Bye` is sent, and
//! [`run_worker`] returns.

use super::proto::{read_frame, write_frame, Frame};
use crate::spec_json;
use dispersion_sim::runner::{run_cell, CancelToken};
use dispersion_sim::sink::{Event, Record, Sink};
use std::collections::BTreeSet;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// How the worker process is configured (flags of the binary).
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Unused: workers write no files. Kept only because the benchmark
    /// in `perfbench/` still sets it; remove both together.
    pub data_dir: PathBuf,
    /// Chaos hook: hard-drop the coordinator connection after this many
    /// `Record` frames have been sent, once per process. Exercises the
    /// reconnect path in tests; `None` in production.
    pub drop_after_records: Option<u64>,
}

/// What the session's threads share.
struct Session<'a> {
    /// Write half of the coordinator connection; whole frames are sent
    /// under this lock, so they never interleave.
    out: Mutex<TcpStream>,
    /// Remaining chaos budget of the process (see
    /// [`WorkerOptions::drop_after_records`]); outlives the session.
    chaos: &'a Mutex<Option<u64>>,
    shard: u64,
    /// Session teardown flag for the heartbeat thread.
    finished: AtomicBool,
}

impl Session<'_> {
    /// Sends one frame and reports whether it went out; the reader
    /// notices a dead connection and aborts the session.
    fn send(&self, frame: &Frame) -> bool {
        let mut out = self.out.lock().unwrap();
        write_frame(&mut *out, frame).is_ok()
    }

    /// Sends a `Record` frame and, if it went out, burns one unit of
    /// chaos budget.
    fn send_record(&self, job: u64, record: &Record) {
        let sent = self.send(&Frame::Record {
            job,
            cell: record.cell as u64,
            line: record.to_json_line(),
        });
        let mut chaos = self.chaos.lock().unwrap();
        if let Some(left) = chaos.filter(|_| sent) {
            let left = left.saturating_sub(1);
            if left == 0 {
                *chaos = None; // fires once per process
                self.drop_connection();
            } else {
                *chaos = Some(left);
            }
        }
    }

    /// Hard-closes the coordinator connection; the reader sees EOF and
    /// aborts the session.
    fn drop_connection(&self) {
        let _ = self.out.lock().unwrap().shutdown(Shutdown::Both);
    }

    /// Runs one cell to its record and answers it. A `Run` this worker
    /// cannot execute (bad spec JSON, cell out of range) drops the
    /// session, which the coordinator books like a crash.
    fn run(&self, job: u64, cell: usize, spec_json: &str, ctrl: &CancelToken) {
        let spec = match spec_json::spec_from_json(spec_json) {
            Ok(spec) if cell < spec.len() => spec,
            Ok(_) => {
                eprintln!("# shard {}: job {job}: no cell {cell}", self.shard);
                self.drop_connection();
                return;
            }
            Err(e) => {
                eprintln!("# shard {}: job {job}: bad spec: {e}", self.shard);
                self.drop_connection();
                return;
            }
        };
        let mut sink = ShardSink { sess: self, job };
        let record = run_cell(&spec, cell, ctrl, &mut sink);
        self.send_record(job, &record);
    }
}

/// Forwards chunk-grained progress to the coordinator as `Progress`
/// frames (they double as liveness while a long cell runs).
struct ShardSink<'a, 'l> {
    sess: &'a Session<'l>,
    job: u64,
}

impl Sink for ShardSink<'_, '_> {
    fn on_event(&mut self, event: &Event) {
        if let Event::Chunk {
            cell,
            trials,
            steps,
        } = event
        {
            self.sess.send(&Frame::Progress {
                job: self.job,
                cell: *cell as u64,
                trials: *trials,
                steps: *steps,
            });
        }
    }
}

/// Runs the worker: accepts one coordinator session at a time on
/// `listener` until a drain (a `Shutdown` frame or `term` flipping true)
/// completes. This is the whole `dispersion-shard-worker` process; tests
/// call it on a thread with a listener they bound.
///
/// # Errors
///
/// Listener configuration or accept failures; per-session transport
/// errors are handled internally (abort + re-accept).
pub fn run_worker(
    listener: &TcpListener,
    opts: &WorkerOptions,
    term: &AtomicBool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let chaos = Mutex::new(opts.drop_after_records);
    loop {
        // ORDERING: Relaxed — monotone shutdown flag set by a signal
        // handler; the 2ms poll bounds how late we can observe it
        if term.load(Ordering::Relaxed) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let _ = stream.set_nodelay(true);
                if serve_session(stream, &chaos, term) {
                    return Ok(());
                }
            }
            // the poll only runs between sessions, so a short one costs
            // nothing and keeps the coordinator's first handshake fast
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves one coordinator connection; returns whether it drained (the
/// process is done) rather than lost its connection (keep accepting).
fn serve_session(stream: TcpStream, chaos: &Mutex<Option<u64>>, term: &AtomicBool) -> bool {
    // Handshake under a timeout so a stray connection can't wedge the
    // worker; cleared once the coordinator has identified itself.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return false,
    };
    let shard = match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { shard, shards })) if shards > 0 && shard < shards => shard,
        _ => return false,
    };
    let _ = stream.set_read_timeout(None);
    let read_half = reader.get_ref().try_clone().ok();

    let sess = Session {
        out: Mutex::new(stream),
        chaos,
        shard,
        finished: AtomicBool::new(false),
    };
    sess.send(&Frame::Ready { shard });

    std::thread::scope(|scope| {
        let heartbeat = scope.spawn(|| heartbeat_loop(&sess, term, read_half.as_ref()));
        // the running cell: its thread, job and cancel token
        let mut running: Option<(ScopedJoinHandle<()>, u64, CancelToken)> = None;
        // jobs cancelled during this session: their cells stop at once
        // and are answered with a cancelled record (a `Cancel` can
        // overtake the `Run` of a cell claimed just before it)
        let mut cancelled = BTreeSet::new();

        let drain = loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Run {
                    job,
                    cell,
                    spec_json,
                })) => {
                    if let Some((previous, ..)) = running.take() {
                        let _ = previous.join();
                    }
                    sess.send(&Frame::Progress {
                        job,
                        cell,
                        trials: 0,
                        steps: 0,
                    });
                    let ctrl = CancelToken::new();
                    if cancelled.contains(&job) {
                        ctrl.cancel();
                    }
                    let cell = usize::try_from(cell).unwrap_or(usize::MAX);
                    let token = ctrl.clone();
                    let sess = &sess;
                    let handle = scope.spawn(move || sess.run(job, cell, &spec_json, &token));
                    running = Some((handle, job, ctrl));
                }
                Ok(Some(Frame::Cancel { job })) => {
                    cancelled.insert(job);
                    if let Some((_, j, ctrl)) = &running {
                        if *j == job {
                            ctrl.cancel();
                        }
                    }
                }
                Ok(Some(Frame::Shutdown)) => break true,
                Ok(Some(_)) => {} // worker-bound traffic only; ignore echoes
                // EOF / transport error. During a drain (the heartbeat
                // thread shut the read half down on `term`) keep
                // draining; otherwise the coordinator is gone.
                // ORDERING: Relaxed — monotone flag the heartbeat thread
                // read before it shut the read half down
                Ok(None) | Err(_) => break term.load(Ordering::Relaxed),
            }
        };

        if let Some((handle, _, ctrl)) = running {
            if !drain {
                // Abort: discard the running cell; records are durable
                // at cell grain only, and a re-run is byte-identical by
                // construction. Its answer cannot go out on a closed
                // connection.
                sess.drop_connection();
                ctrl.cancel();
            }
            let _ = handle.join();
        }
        if drain {
            sess.send(&Frame::Bye);
            sess.drop_connection();
        }
        // ORDERING: Relaxed — teardown flag polled by the heartbeat
        // thread; its join right below is the real synchronisation point
        sess.finished.store(true, Ordering::Relaxed);
        let _ = heartbeat.join();
        drain
    })
}

/// Idle liveness + termination watcher: beacons every second, and turns
/// the process termination flag into a drain by shutting the read half
/// down (which unblocks the reader thread with a clean EOF).
fn heartbeat_loop(sess: &Session, term: &AtomicBool, read_half: Option<&TcpStream>) {
    let mut ticks: u64 = 0;
    loop {
        // ORDERING: Relaxed — teardown flag; worst case one extra 100ms tick
        if sess.finished.load(Ordering::Relaxed) {
            return;
        }
        // ORDERING: Relaxed — monotone signal flag, polling latency is fine
        if term.load(Ordering::Relaxed) {
            if let Some(r) = read_half {
                let _ = r.shutdown(Shutdown::Read);
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(10) {
            sess.send(&Frame::Heartbeat);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_core::Process;
    use dispersion_graphs::families::Family;
    use dispersion_sim::runner::Runner;
    use dispersion_sim::sink::MemorySink;
    use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
    use std::sync::Arc;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(7);
        for n in [24usize, 32, 48] {
            spec.push(
                CellSpec::new(
                    FamilySpec::explicit(Family::Complete, n),
                    Measure::Dispersion(Process::Sequential),
                )
                .budget(Budget::Trials(8)),
            );
        }
        spec
    }

    fn reference_lines(spec: &ExperimentSpec) -> Vec<String> {
        Runner::new(1)
            .run(spec, &[], &mut MemorySink::default())
            .iter()
            .map(Record::to_json_line)
            .collect()
    }

    /// A worker on a test thread plus a handshaken coordinator connection.
    struct Harness {
        conn: TcpStream,
        r: BufReader<TcpStream>,
        worker: std::thread::JoinHandle<()>,
    }

    impl Harness {
        fn start(shard: u64, shards: u64) -> Harness {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let opts = WorkerOptions {
                data_dir: PathBuf::new(),
                drop_after_records: None,
            };
            let worker = std::thread::spawn(move || {
                run_worker(&listener, &opts, &Arc::new(AtomicBool::new(false))).unwrap();
            });
            let mut conn = TcpStream::connect(addr).unwrap();
            write_frame(&mut conn, &Frame::Hello { shard, shards }).unwrap();
            let mut r = BufReader::new(conn.try_clone().unwrap());
            assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::Ready { shard }));
            Harness { conn, r, worker }
        }

        /// Sends one `Run` and returns the `Record` line that answers it.
        fn run(&mut self, job: u64, cell: u64, spec: &ExperimentSpec) -> String {
            let spec_json = spec_json::spec_to_json(spec);
            write_frame(
                &mut self.conn,
                &Frame::Run {
                    job,
                    cell,
                    spec_json,
                },
            )
            .unwrap();
            loop {
                match read_frame(&mut self.r)
                    .unwrap()
                    .expect("worker closed early")
                {
                    Frame::Record {
                        job: j,
                        cell: c,
                        line,
                    } => {
                        assert_eq!((j, c), (job, cell));
                        return line;
                    }
                    Frame::Progress { .. } | Frame::Heartbeat => {}
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }

        fn shutdown(mut self) {
            write_frame(&mut self.conn, &Frame::Shutdown).unwrap();
            loop {
                match read_frame(&mut self.r).unwrap() {
                    Some(Frame::Bye) | None => break,
                    Some(_) => {}
                }
            }
            self.worker.join().unwrap();
        }
    }

    /// Drives one worker end-to-end over a real socket: each `Run` is
    /// answered by the byte-identical record an in-process `Runner`
    /// produces, in any cell order.
    #[test]
    fn worker_runs_each_cell_bit_identically() {
        let mut h = Harness::start(1, 2);
        let spec = tiny_spec();
        let reference = reference_lines(&spec);
        let mut lines = Vec::new();
        for cell in [2, 1] {
            lines.push(h.run(1, cell, &spec));
        }
        assert_eq!(lines, vec![reference[2].clone(), reference[1].clone()]);
        h.shutdown();
    }

    /// A `Cancel` may overtake the `Run` of a cell claimed just before
    /// it: the worker still answers, with a cancelled record.
    #[test]
    fn cancelled_job_is_answered_with_a_cancelled_record() {
        let mut h = Harness::start(0, 1);
        let spec = tiny_spec();
        write_frame(&mut h.conn, &Frame::Cancel { job: 3 }).unwrap();
        let line = h.run(3, 0, &spec);
        let record = Record::from_json_line(&line).unwrap();
        assert_eq!(record.error.as_deref(), Some("trial 0: cancelled"));
        h.shutdown();
    }
}
