//! The headless shard worker: runs the cells the front-end sends it, one
//! `Run` frame at a time, through the same [`run_cell`] path the
//! in-process pool uses, checkpoints each record to its own
//! `job-<id>.shard<i>.ndjson` *before* streaming it back, and speaks the
//! [`proto`](super::proto) frame protocol with the front-end.
//!
//! [`run_worker`] is the whole process: the `dispersion-shard-worker`
//! binary is a thin flag-parsing wrapper around it, and tests run it on an
//! in-process thread against a listener they bound themselves.
//!
//! ## Session model
//!
//! One coordinator connection at a time. Per session three threads
//! cooperate:
//!
//! * the **reader** (the session's own thread) handles `Run`, `Cancel`
//!   and `Shutdown` frames;
//! * a single **runner** thread runs queued cells to records — the
//!   coordinator sends the next `Run` only after a cell's `Record`, so
//!   the queue holds at most one cell;
//! * a **heartbeat** thread sends idle liveness beacons and watches the
//!   process termination flag (SIGTERM), turning it into a drain.
//!
//! A lost connection aborts the in-flight cell (its partial trials are
//! discarded; records are only durable at cell grain) and the worker goes
//! back to accepting — the coordinator re-queues the cell for any shard.
//! A `Shutdown` frame or a termination signal instead *drains*: the
//! current cell finishes and is answered, checkpoints are fsynced, `Bye`
//! is sent, and [`run_worker`] returns.

use super::proto::{read_frame, write_frame, Frame};
use super::{read_checkpoint, shard_ckpt_path};
use crate::spec_json;
use dispersion_sim::runner::{run_cell, CancelToken};
use dispersion_sim::sink::{Event, Record, Sink};
use std::collections::{BTreeSet, VecDeque};
use std::fs;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How the worker process is configured (flags of the binary).
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Directory for `job-<id>.shard<i>.ndjson` checkpoint files.
    pub data_dir: PathBuf,
    /// Chaos hook: hard-drop the coordinator connection after this many
    /// `Record` frames have been sent, once per process. Exercises the
    /// reconnect path in tests; `None` in production.
    pub drop_after_records: Option<u64>,
}

/// Worker lifecycle stop states.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stop {
    /// Normal operation.
    Run,
    /// Finish the in-flight cell, persist it, send `Bye`, exit.
    Drain,
    /// Connection lost: discard the in-flight cell, go back to accepting.
    Abort,
}

/// What outlives a session: the process's chaos budget and checkpoint
/// files.
struct Life {
    /// Remaining chaos budget (see [`WorkerOptions::drop_after_records`]).
    chaos: Mutex<Option<u64>>,
    /// Checkpoint files appended to in this process life: each had its
    /// torn tail truncated before the first append, and all are fsynced
    /// on drain.
    files: Mutex<BTreeSet<PathBuf>>,
    data_dir: PathBuf,
}

/// One `Run` frame waiting for the runner.
struct RunCell {
    job: u64,
    cell: usize,
    spec_json: String,
}

struct SessState {
    queue: VecDeque<RunCell>,
    /// The running cell's job and cancel token.
    current: Option<(u64, CancelToken)>,
    /// Jobs cancelled during this session: their cells stop at once and
    /// are answered but never checkpointed.
    cancelled: BTreeSet<u64>,
    stop: Stop,
}

/// Everything the three session threads share.
struct Session<'a> {
    state: Mutex<SessState>,
    cv: Condvar,
    /// Write half of the coordinator connection; whole frames are sent
    /// under this lock, so they never interleave.
    out: Mutex<TcpStream>,
    life: &'a Life,
    shard: u64,
    /// Session teardown flag for the heartbeat thread.
    finished: AtomicBool,
}

impl Session<'_> {
    /// Sends one frame, ignoring transport errors (the reader notices the
    /// dead connection and aborts the session).
    fn send(&self, frame: &Frame) {
        let mut out = self.out.lock().unwrap();
        let _ = write_frame(&mut *out, frame);
    }

    /// Sends a `Record` frame and burns one unit of chaos budget.
    fn send_record(&self, job: u64, record: &Record) {
        self.send(&Frame::Record {
            job,
            cell: record.cell as u64,
            line: record.to_json_line(),
        });
        let mut chaos = self.life.chaos.lock().unwrap();
        if let Some(left) = *chaos {
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
    fs::create_dir_all(&opts.data_dir)?;
    listener.set_nonblocking(true)?;
    let life = Life {
        chaos: Mutex::new(opts.drop_after_records),
        files: Mutex::new(BTreeSet::new()),
        data_dir: opts.data_dir.clone(),
    };
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
                match serve_session(stream, &life, term) {
                    Flow::Continue => {}
                    Flow::Exit => return Ok(()),
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

enum Flow {
    /// Session over, keep accepting (coordinator will reconnect).
    Continue,
    /// Drained: the process is done.
    Exit,
}

fn serve_session(stream: TcpStream, life: &Life, term: &AtomicBool) -> Flow {
    // Handshake under a timeout so a stray connection can't wedge the
    // worker; cleared once the coordinator has identified itself.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return Flow::Continue,
    };
    let shard = match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { shard, shards })) if shards > 0 && shard < shards => shard,
        _ => return Flow::Continue,
    };
    let _ = stream.set_read_timeout(None);
    let read_half = reader.get_ref().try_clone().ok();

    let sess = Session {
        state: Mutex::new(SessState {
            queue: VecDeque::new(),
            current: None,
            cancelled: BTreeSet::new(),
            stop: Stop::Run,
        }),
        cv: Condvar::new(),
        out: Mutex::new(stream),
        life,
        shard,
        finished: AtomicBool::new(false),
    };
    sess.send(&Frame::Ready { shard });

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| runner_loop(&sess));
        let heartbeat = scope.spawn(|| heartbeat_loop(&sess, term, read_half.as_ref()));

        let drain_requested = loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Run {
                    job,
                    cell,
                    spec_json,
                })) => {
                    sess.state.lock().unwrap().queue.push_back(RunCell {
                        job,
                        cell: usize::try_from(cell).unwrap_or(usize::MAX),
                        spec_json,
                    });
                    sess.cv.notify_all();
                }
                Ok(Some(Frame::Cancel { job })) => {
                    let mut st = sess.state.lock().unwrap();
                    st.cancelled.insert(job);
                    if let Some((j, ctrl)) = &st.current {
                        if *j == job {
                            ctrl.cancel();
                        }
                    }
                }
                Ok(Some(Frame::Shutdown)) => break true,
                Ok(Some(_)) => {} // worker-bound traffic only; ignore echoes
                Ok(None) | Err(_) => {
                    // EOF / transport error. During a drain (the heartbeat
                    // thread shut the read half down on SIGTERM) keep
                    // draining; otherwise the coordinator is gone.
                    break sess.state.lock().unwrap().stop == Stop::Drain;
                }
            }
        };

        let flow = if drain_requested {
            // Drain: the runner finishes its in-flight cell, then every
            // checkpoint is made durable before the farewell.
            {
                let mut st = sess.state.lock().unwrap();
                if st.stop == Stop::Run {
                    st.stop = Stop::Drain;
                }
            }
            sess.cv.notify_all();
            let _ = runner.join();
            for path in life.files.lock().unwrap().iter() {
                if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
                    let _ = f.sync_all();
                }
            }
            sess.send(&Frame::Bye);
            sess.drop_connection();
            Flow::Exit
        } else {
            // Abort: discard in-flight work; records are durable at cell
            // grain only, and a re-run is byte-identical by construction.
            {
                let mut st = sess.state.lock().unwrap();
                st.stop = Stop::Abort;
                if let Some((_, ctrl)) = &st.current {
                    ctrl.cancel();
                }
            }
            sess.cv.notify_all();
            let _ = runner.join();
            Flow::Continue
        };

        // ORDERING: Relaxed — teardown flag polled by the heartbeat
        // thread; its join right below is the real synchronisation point
        sess.finished.store(true, Ordering::Relaxed);
        let _ = heartbeat.join();
        flow
    })
}

/// The single runner thread: take a `Run` → run → persist → answer,
/// until a drain or abort. A `Run` this worker cannot execute (bad spec
/// JSON, cell out of range) drops the session, which the coordinator
/// books like a crash.
fn runner_loop(sess: &Session) {
    loop {
        let (run, ctrl) = {
            let mut st = sess.state.lock().unwrap();
            let run = loop {
                if st.stop != Stop::Run {
                    return;
                }
                if let Some(run) = st.queue.pop_front() {
                    break run;
                }
                // Timed wait: bounds the damage of any missed wakeup
                // during session teardown races.
                let (guard, _) = sess
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap();
                st = guard;
            };
            let ctrl = CancelToken::new();
            if st.cancelled.contains(&run.job) {
                ctrl.cancel();
            }
            st.current = Some((run.job, ctrl.clone()));
            (run, ctrl)
        };
        let spec = match spec_json::spec_from_json(&run.spec_json) {
            Ok(spec) if run.cell < spec.len() => spec,
            Ok(_) => {
                eprintln!(
                    "# shard {}: job {}: no cell {}",
                    sess.shard, run.job, run.cell
                );
                sess.drop_connection();
                return;
            }
            Err(e) => {
                eprintln!("# shard {}: job {}: bad spec: {e}", sess.shard, run.job);
                sess.drop_connection();
                return;
            }
        };
        let mut sink = ShardSink { sess, job: run.job };
        let record = run_cell(&spec, run.cell, &ctrl, &mut sink);
        finish_cell(sess, run.job, &record);
    }
}

/// Lands a finished cell: append + flush to the shard checkpoint *before*
/// the `Record` frame leaves the process, so anything the coordinator
/// ever saw survives a worker crash. Cells of cancelled jobs are answered
/// but not checkpointed.
fn finish_cell(sess: &Session, job: u64, record: &Record) {
    let durable = {
        let mut st = sess.state.lock().unwrap();
        st.current = None;
        if st.stop == Stop::Abort {
            return; // session died mid-cell; the record is discarded
        }
        !st.cancelled.contains(&job)
    };
    if durable {
        let path = shard_ckpt_path(&sess.life.data_dir, job, sess.shard);
        if let Err(e) = append_checkpoint(sess.life, &path, record) {
            eprintln!(
                "# shard {}: cannot checkpoint {}: {e}",
                sess.shard,
                path.display()
            );
        }
    }
    sess.send_record(job, record);
}

/// Appends one record line to a shard checkpoint and flushes it. The
/// first append to a file in a process life truncates a torn final line
/// (or resets a corrupt file) first, so a crash-cut line never has a
/// record glued onto it.
fn append_checkpoint(life: &Life, path: &Path, record: &Record) -> io::Result<()> {
    let mut files = life.files.lock().unwrap();
    if !files.contains(path) {
        if let Err(e) = read_checkpoint(path) {
            eprintln!("# shard: {e}; resetting {}", path.display());
            fs::write(path, "")?;
        }
        files.insert(path.to_path_buf());
    }
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json_line())?;
    f.flush()
}

/// Idle liveness + termination watcher: beacons every second, and turns
/// the process termination flag into a drain by shutting the read half
/// down (which unblocks the reader thread with a clean EOF).
fn heartbeat_loop(sess: &Session, term: &AtomicBool, read_half: Option<&TcpStream>) {
    let mut ticks: u64 = 0;
    let mut drained = false;
    loop {
        // ORDERING: Relaxed — teardown flag; worst case one extra 100ms tick
        if sess.finished.load(Ordering::Relaxed) {
            return;
        }
        // ORDERING: Relaxed — monotone signal flag, polling latency is fine
        if !drained && term.load(Ordering::Relaxed) {
            drained = true;
            sess.state.lock().unwrap().stop = Stop::Drain;
            sess.cv.notify_all();
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
    use dispersion_graphs::families::Family;
    use dispersion_sim::experiment::Process;
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
        dir: PathBuf,
    }

    impl Harness {
        fn start(tag: &str, shard: u64, shards: u64) -> Harness {
            let dir =
                std::env::temp_dir().join(format!("shard_worker_{tag}_{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let opts = WorkerOptions {
                data_dir: dir.clone(),
                drop_after_records: None,
            };
            let worker = std::thread::spawn(move || {
                run_worker(&listener, &opts, &Arc::new(AtomicBool::new(false))).unwrap();
            });
            let mut conn = TcpStream::connect(addr).unwrap();
            write_frame(&mut conn, &Frame::Hello { shard, shards }).unwrap();
            let mut r = BufReader::new(conn.try_clone().unwrap());
            assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::Ready { shard }));
            Harness {
                conn,
                r,
                worker,
                dir,
            }
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
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// Drives one worker end-to-end over a real socket: each `Run` is
    /// answered by the byte-identical record an in-process `Runner`
    /// produces, checkpointed in completion order after the torn tail a
    /// previous crash left behind was cut.
    #[test]
    fn worker_runs_each_cell_bit_identically() {
        let mut h = Harness::start("unit", 1, 2);
        let spec = tiny_spec();
        let reference = reference_lines(&spec);
        let ckpt = shard_ckpt_path(&h.dir, 1, 1);
        fs::write(&ckpt, format!("{}\n{}", reference[0], &reference[1][..9])).unwrap();
        let mut lines = Vec::new();
        for cell in [2, 1] {
            lines.push(h.run(1, cell, &spec));
        }
        assert_eq!(lines, vec![reference[2].clone(), reference[1].clone()]);
        let text = fs::read_to_string(&ckpt).unwrap();
        assert_eq!(
            text,
            format!("{}\n{}\n{}\n", reference[0], reference[2], reference[1])
        );
        h.shutdown();
    }

    /// A `Cancel` may overtake the `Run` of a cell claimed just before
    /// it: the worker still answers, with a cancelled record that never
    /// reaches its checkpoint.
    #[test]
    fn cancelled_job_is_answered_but_not_checkpointed() {
        let mut h = Harness::start("cancel", 0, 1);
        let spec = tiny_spec();
        write_frame(&mut h.conn, &Frame::Cancel { job: 3 }).unwrap();
        let line = h.run(3, 0, &spec);
        let record = Record::from_json_line(&line).unwrap();
        assert_eq!(record.error.as_deref(), Some("trial 0: cancelled"));
        assert!(!shard_ckpt_path(&h.dir, 3, 0).exists());
        h.shutdown();
    }
}
