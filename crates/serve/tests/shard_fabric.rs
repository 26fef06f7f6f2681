//! Shard-fabric integration tests against in-thread workers: the server
//! runs with `shards = k` and a [`ShardLaunch::Existing`] pool pointed at
//! worker loops running on test-owned threads — real sockets, real
//! frames, no child processes. The contract under test: a client cannot
//! tell `k = 0` from `k > 0` (byte-identical streams), shards pull cells
//! so a long cell holds up only its own shard, a reconnect loses nothing,
//! a dead shard costs nothing but capacity, and cancel propagates.

use dispersion_graphs::families::Family;
use dispersion_serve::shard::worker::{run_worker, WorkerOptions};
use dispersion_serve::shard::ShardLaunch;
use dispersion_serve::spec_json::spec_to_json;
use dispersion_serve::{Client, Server, ServerConfig};
use dispersion_sim::experiment::Process;
use dispersion_sim::json::Json;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::MemorySink;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Eight cells so every shard count under test owns several.
fn spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    for (family, n, process) in [
        (Family::Complete, 48, Process::Sequential),
        (Family::Cycle, 24, Process::Parallel),
        (Family::Star, 32, Process::Sequential),
        (Family::BinaryTree, 31, Process::Parallel),
        (Family::Complete, 24, Process::Parallel),
        (Family::Cycle, 40, Process::Sequential),
        (Family::Star, 16, Process::Parallel),
        (Family::BinaryTree, 15, Process::Sequential),
    ] {
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(family, n),
                Measure::Dispersion(process),
            )
            .budget(Budget::Trials(8)),
        );
    }
    spec
}

/// A single-cell spec slow enough (debug builds) to cancel mid-run.
fn slow_spec(seed: u64) -> ExperimentSpec {
    slow_spec_with(seed, 64)
}

/// One torus cell of `trials` trials (milliseconds each, so a cancel
/// lands fast whatever the budget).
fn slow_spec_with(seed: u64, trials: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Torus2d, 1024),
            Measure::Dispersion(Process::Sequential),
        )
        .budget(Budget::Trials(trials)),
    );
    spec
}

/// Runs `f` on its own thread and fails the test if it takes longer
/// than `limit` (a wedged fabric hangs rather than failing).
fn within<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => handle.join().unwrap(),
        // the closure panicked: re-raise its failure
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(e) = handle.join() {
                std::panic::resume_unwind(e);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("timed out after {limit:?}"),
    }
}

fn reference_lines(spec: &ExperimentSpec) -> Vec<String> {
    Runner::new(1)
        .run(spec, &[], &mut MemorySink::default())
        .iter()
        .map(dispersion_sim::Record::to_json_line)
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard_fabric_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `k` worker loops on test threads, each on its own listener.
struct Fabric {
    addrs: Vec<String>,
    term: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Fabric {
    /// `drop_after[i]` is worker `i`'s chaos budget (see
    /// [`WorkerOptions::drop_after_records`]).
    fn spawn(dir: &Path, drop_after: &[Option<u64>]) -> Fabric {
        let term = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for budget in drop_after {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            let opts = WorkerOptions {
                data_dir: dir.to_path_buf(),
                drop_after_records: *budget,
            };
            let term = Arc::clone(&term);
            handles.push(std::thread::spawn(move || {
                run_worker(&listener, &opts, &term).unwrap();
            }));
        }
        Fabric {
            addrs,
            term,
            handles,
        }
    }

    fn launch(&self) -> ShardLaunch {
        ShardLaunch::Existing {
            addrs: self.addrs.clone(),
        }
    }

    fn stop(self) {
        self.term.store(true, Ordering::Relaxed);
        for h in self.handles {
            h.join().unwrap();
        }
    }
}

fn start_sharded(dir: &Path, fabric: &Fabric) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        shards: fabric.addrs.len() as u64,
        shard_launch: Some(fabric.launch()),
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::new(server.addr());
    (server, client)
}

#[test]
fn sharded_stream_is_byte_identical_for_k_1_and_3() {
    for k in [1usize, 3] {
        let dir = fresh_dir(&format!("ident{k}"));
        let fabric = Fabric::spawn(&dir, &vec![None; k]);
        let (server, client) = start_sharded(&dir, &fabric);

        let spec = spec(7);
        let want = reference_lines(&spec);
        let id = client.submit(&spec_to_json(&spec)).unwrap();
        let mut got = Vec::new();
        client
            .stream_records(id, 0, &mut |line| got.push(line.to_string()))
            .unwrap();
        assert_eq!(got, want, "k={k}: sharded stream diverged from runner");

        // Last-Record resume works across the merge front-end too
        let mut tail = Vec::new();
        client
            .stream_records(id, 3, &mut |line| tail.push(line.to_string()))
            .unwrap();
        assert_eq!(tail, want[3..].to_vec(), "k={k}");

        // together the shard files hold every record exactly once
        let mut held: Vec<String> = (0..k)
            .filter_map(|shard| {
                std::fs::read_to_string(dir.join(format!("job-{id}.shard{shard}.ndjson"))).ok()
            })
            .flat_map(|text| text.lines().map(str::to_string).collect::<Vec<_>>())
            .collect();
        held.sort();
        let mut sorted = want.clone();
        sorted.sort();
        assert_eq!(held, sorted, "k={k}: shard checkpoints");

        server.stop();
        fabric.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_drop_reconnects_and_resumes_byte_identically() {
    let dir = fresh_dir("chaos");
    // shard 0 hard-drops the coordinator connection after 2 record frames
    let fabric = Fabric::spawn(&dir, &[Some(2), None]);
    let (server, client) = start_sharded(&dir, &fabric);

    let spec = spec(21);
    let want = reference_lines(&spec);
    let id = client.submit(&spec_to_json(&spec)).unwrap();
    let mut got = Vec::new();
    client
        .stream_records(id, 0, &mut |line| got.push(line.to_string()))
        .unwrap();
    assert_eq!(got, want, "stream across a shard drop diverged");

    // the supervisor reconnects and records it (shard 1 may have pulled
    // the rest of the job before the reconnect finished)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let text = client.request("GET", "/metrics", &[], b"").unwrap().text();
        let restarts = text
            .lines()
            .find_map(|l| l.strip_prefix("serve_shard_restarts_total{shard=\"0\"} "))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing shard 0 restart counter in:\n{text}"));
        if restarts >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no reconnect recorded:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    server.stop();
    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_list_and_metrics_expose_shard_placement() {
    let dir = fresh_dir("placement");
    let fabric = Fabric::spawn(&dir, &[None, None]);
    let (server, client) = start_sharded(&dir, &fabric);

    let spec = spec(5);
    let id = client.submit(&spec_to_json(&spec)).unwrap();
    client
        .wait_for(id, &["done"], Duration::from_secs(30))
        .unwrap();

    // status: per-cell shard (the one that ran it), shard count, live
    // shard states
    let doc = Json::parse(&client.status(id).unwrap()).unwrap();
    assert_eq!(doc.get("shards").and_then(Json::as_u64), Some(2));
    let states = doc.get("shard_states").and_then(Json::as_arr).unwrap();
    assert_eq!(states.len(), 2);
    for s in states {
        assert_eq!(s.as_str(), Some("up"), "worker thread marked down");
    }
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
    let ran: Vec<u64> = cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let shard = cell.get("shard").and_then(Json::as_u64);
            assert!(matches!(shard, Some(0 | 1)), "cell {c} placement {shard:?}");
            shard.unwrap()
        })
        .collect();

    // list: ids + states + the same placement vector
    let resp = client.request("GET", "/jobs", &[], b"").unwrap();
    let doc = Json::parse(&resp.text()).unwrap();
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Json::as_u64), Some(id));
    let placement: Vec<Option<u64>> = jobs[0]
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(Json::as_u64)
        .collect();
    assert_eq!(placement, ran.iter().map(|&s| Some(s)).collect::<Vec<_>>());

    // metrics: per-shard liveness, and each shard's record counter
    // matches the cells placed on it
    let text = client.request("GET", "/metrics", &[], b"").unwrap().text();
    let mut needles = vec![
        "serve_shards 2".to_string(),
        "serve_shard_up{shard=\"0\"} 1".to_string(),
        "serve_shard_up{shard=\"1\"} 1".to_string(),
    ];
    for shard in 0..2u64 {
        let n = ran.iter().filter(|&&s| s == shard).count();
        needles.push(format!(
            "serve_shard_records_total{{shard=\"{shard}\"}} {n}"
        ));
    }
    for needle in needles {
        assert!(text.contains(&needle), "missing {needle} in:\n{text}");
    }

    // a job submitted before any shard is up shows null placement until
    // its cells are dispatched
    let fresh = Server::start(ServerConfig {
        data_dir: Some(dir.join("idle")),
        shards: 1,
        shard_launch: Some(ShardLaunch::Existing {
            addrs: vec![dead_addr()],
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    let idle = Client::new(fresh.addr());
    let queued = idle.submit(&spec_to_json(&spec)).unwrap();
    let doc = Json::parse(&idle.status(queued).unwrap()).unwrap();
    for cell in doc.get("cells").and_then(Json::as_arr).unwrap() {
        assert_eq!(cell.get("shard"), Some(&Json::Null), "undispatched cell");
    }
    fresh.stop();

    server.stop();
    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_propagates_to_shard_workers() {
    let dir = fresh_dir("cancel");
    let fabric = Fabric::spawn(&dir, &[None, None]);
    let (server, client) = start_sharded(&dir, &fabric);

    let id = client.submit(&spec_to_json(&slow_spec(9))).unwrap();
    client
        .wait_for(id, &["running"], Duration::from_secs(30))
        .unwrap();
    assert!(client.cancel(id).unwrap());
    client
        .wait_for(id, &["cancelled"], Duration::from_secs(30))
        .unwrap();

    // the cancelled stream terminates; nothing durable was produced
    let mut lines = Vec::new();
    client
        .stream_records(id, 0, &mut |line| lines.push(line.to_string()))
        .unwrap();
    assert!(lines.is_empty(), "cancelled job streamed {lines:?}");

    server.stop();
    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn front_end_restart_adopts_workers_and_replays_from_resume() {
    let dir = fresh_dir("adopt");
    let fabric = Fabric::spawn(&dir, &[None, None]);
    let spec = spec(33);
    let want = reference_lines(&spec);

    // first front-end: run the job to completion, then stop it — the
    // worker threads keep running (they only drain on Shutdown/term, and
    // stop() sends Shutdown... so stream first, stop the server *without*
    // letting it drain the workers by using a second fabric-independent
    // check below)
    let (server, client) = start_sharded(&dir, &fabric);
    let id = client.submit(&spec_to_json(&spec)).unwrap();
    let mut got = Vec::new();
    client
        .stream_records(id, 0, &mut |line| got.push(line.to_string()))
        .unwrap();
    assert_eq!(got, want);
    server.stop();

    // workers drained on Shutdown; bring up fresh ones over the same
    // checkpoint directory and a fresh front-end — the re-scan must
    // restore every cell from the shard files without re-running
    fabric.stop();
    let fabric = Fabric::spawn(&dir, &[None, None]);
    let (server, client) = start_sharded(&dir, &fabric);
    let doc = Json::parse(&client.status(id).unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    let mut again = Vec::new();
    client
        .stream_records(id, 0, &mut |line| again.push(line.to_string()))
        .unwrap();
    assert_eq!(again, want, "restored stream diverged");
    assert_eq!(
        server.jobs.metrics.cells_resumed.load(Ordering::Relaxed),
        spec.len() as u64,
        "not every cell was restored from shard checkpoints"
    );

    server.stop();
    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An address nobody listens on (a port bound and released again).
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

/// Pull placement: with one slow single-cell job occupying a shard, the
/// other shard drains every small job queued behind it. Under static
/// `cell mod k` placement each small job's cell 0 waited on shard 0
/// behind the slow cell.
#[test]
fn small_jobs_drain_past_a_slow_cell() {
    within(Duration::from_secs(120), || {
        let dir = fresh_dir("balance");
        let fabric = Fabric::spawn(&dir, &[None, None]);
        let (server, client) = start_sharded(&dir, &fabric);

        let slow = client
            .submit(&spec_to_json(&slow_spec_with(11, 1_000_000)))
            .unwrap();
        client
            .wait_for(slow, &["running"], Duration::from_secs(30))
            .unwrap();
        for seed in 0..4 {
            let spec = spec(100 + seed);
            let id = client.submit(&spec_to_json(&spec)).unwrap();
            let mut got = Vec::new();
            client
                .stream_records(id, 0, &mut |line| got.push(line.to_string()))
                .unwrap();
            assert_eq!(got, reference_lines(&spec), "small job {id}");
        }
        assert_eq!(
            client.status_label(slow).unwrap(),
            "running",
            "the slow cell finished first: the test proves nothing"
        );

        assert!(client.cancel(slow).unwrap());
        client
            .wait_for(slow, &["cancelled"], Duration::from_secs(30))
            .unwrap();
        server.stop();
        fabric.stop();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A shard whose worker never comes up costs capacity, not jobs: every
/// cell is pulled by the live shard, byte-identical to the runner.
#[test]
fn jobs_complete_with_one_shard_down() {
    within(Duration::from_secs(120), || {
        let dir = fresh_dir("onedown");
        let fabric = Fabric::spawn(&dir, &[None]);
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            shards: 2,
            shard_launch: Some(ShardLaunch::Existing {
                addrs: vec![fabric.addrs[0].clone(), dead_addr()],
            }),
            ..ServerConfig::default()
        })
        .unwrap();
        let client = Client::new(server.addr());
        for seed in [1, 2, 3] {
            let spec = spec(seed);
            let id = client.submit(&spec_to_json(&spec)).unwrap();
            let mut got = Vec::new();
            client
                .stream_records(id, 0, &mut |line| got.push(line.to_string()))
                .unwrap();
            assert_eq!(got, reference_lines(&spec), "job {id}");
        }
        server.stop();
        fabric.stop();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A cell that panics inside the engine becomes an error record on the
/// worker; the shard stays healthy and the next job streams
/// byte-identically.
#[test]
fn panicking_cell_becomes_an_error_record() {
    within(Duration::from_secs(120), || {
        let dir = fresh_dir("panic");
        let fabric = Fabric::spawn(&dir, &[None, None]);
        let (server, client) = start_sharded(&dir, &fabric);

        let bad = client
            .submit(
                r#"{"cells":[{"family":"clique","size":0,"measure":"seq","budget":{"trials":4}}]}"#,
            )
            .unwrap();
        let mut lines = Vec::new();
        client
            .stream_records(bad, 0, &mut |line| lines.push(line.to_string()))
            .unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        let record = dispersion_sim::Record::from_json_line(&lines[0]).unwrap();
        let err = record.error.unwrap_or_default();
        assert!(err.starts_with("trial 0: panicked: "), "{err}");
        assert_eq!(client.status_label(bad).unwrap(), "error");

        for seed in [4, 5] {
            let spec = spec(seed);
            let id = client.submit(&spec_to_json(&spec)).unwrap();
            let mut got = Vec::new();
            client
                .stream_records(id, 0, &mut |line| got.push(line.to_string()))
                .unwrap();
            assert_eq!(got, reference_lines(&spec), "job {id} after the panic");
        }
        server.stop();
        fabric.stop();
        let _ = std::fs::remove_dir_all(&dir);
    });
}
