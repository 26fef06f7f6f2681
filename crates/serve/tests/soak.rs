//! Soak test against the real `dispersion-serve` binary: 16 small
//! concurrent jobs riding alongside one big torus job (round-robin
//! fairness must let the small jobs finish first), then a SIGKILL
//! mid-stream and a restart over the same data directory — the
//! concatenation of the pre-kill and post-restart streams must be
//! byte-identical to a single-process run of the same spec. The sharded
//! variants run the same mix under `--shards {2,4}` — real
//! `dispersion-shard-worker` processes — SIGKILL one shard worker
//! mid-stream, and require the merged stream to stay byte-identical to
//! both the unsharded server and the in-process `Runner`.

use dispersion_graphs::families::Family;
use dispersion_serve::spec_json::spec_to_json;
use dispersion_serve::Client;
use dispersion_sim::experiment::Process;
use dispersion_sim::json::Json;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::MemorySink;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The big job: several torus cells, each substantial enough (even in
/// debug builds) that the job is still running long after every small
/// job has drained, and enough cells that a kill lands mid-job with
/// some cells checkpointed and some not.
fn big_spec() -> ExperimentSpec {
    // ~1s per cell in either profile: debug trials are ~20× slower
    let trials = if cfg!(debug_assertions) { 24 } else { 256 };
    let mut spec = ExperimentSpec::new(1000);
    for _ in 0..3 {
        spec.push(
            CellSpec::new(
                FamilySpec::implicit(Family::Torus2d, 1024),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(trials)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::implicit(Family::Torus2d, 1024),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(trials)),
        );
    }
    spec
}

/// A small job: two cheap clique cells. Each of the 16 submissions gets
/// its own seed, so the reference records differ per job.
fn small_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    for process in [Process::Sequential, Process::Parallel] {
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::Dispersion(process),
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
        .map(dispersion_sim::Record::to_json_line)
        .collect()
}

struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

fn spawn_server(data_dir: &Path, extra: &[&str]) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dispersion-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
            &data_dir.display().to_string(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn dispersion-serve");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening http://")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .unwrap();
    ServerProc { child, addr }
}

fn done_cells(client: &Client, id: u64) -> usize {
    let Ok(status) = client.status(id) else {
        return 0;
    };
    Json::parse(&status)
        .ok()
        .and_then(|doc| {
            doc.get("cells").and_then(Json::as_arr).map(|cells| {
                cells
                    .iter()
                    .filter(|c| c.get("state").and_then(Json::as_str) == Some("done"))
                    .count()
            })
        })
        .unwrap_or(0)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_soak_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts the data directory holds only the one layout both modes
/// share: `job-<id>.{spec.json,ndjson,cancelled}` plus `shard-<i>.addr`.
fn assert_single_layout(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let job = name.strip_prefix("job-").and_then(|rest| {
            let (id, ext) = rest.split_once('.')?;
            id.parse::<u64>().ok()?;
            ["spec.json", "ndjson", "cancelled"]
                .contains(&ext)
                .then_some(())
        });
        let addr = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.strip_suffix(".addr"))
            .and_then(|id| id.parse::<u64>().ok());
        assert!(
            job.is_some() || addr.is_some(),
            "unexpected file {name} in {}",
            dir.display()
        );
    }
}

/// Extracts the value of a metrics line that starts with `needle`
/// (including any `{labels}` and the trailing space).
fn metric_value(metrics: &str, needle: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle))
        .and_then(|rest| rest.trim().parse().ok())
}

#[test]
fn soak_sigkill_restart_is_bit_identical() {
    let dir = fresh_dir("k0");

    let server = spawn_server(&dir, &[]);
    let client = Client::new(server.addr);
    assert_eq!(
        client.request("GET", "/healthz", &[], b"").unwrap().status,
        200
    );

    // one big torus job first, then 16 small jobs behind it
    let big = client.submit(&spec_to_json(&big_spec())).unwrap();
    let smalls: Vec<(u64, ExperimentSpec)> = (0..16)
        .map(|k| {
            let spec = small_spec(2000 + k);
            let id = client.submit(&spec_to_json(&spec)).unwrap();
            (id, spec)
        })
        .collect();

    // stream the big job's records from a second thread so the kill
    // lands mid-stream
    let streamed = Arc::new(Mutex::new(Vec::<String>::new()));
    let streamer = {
        let streamed = Arc::clone(&streamed);
        let client = client.clone();
        std::thread::spawn(move || {
            // the server dies mid-stream: the error is expected
            let _ = client.stream_records(big, 0, &mut |line| {
                streamed.lock().unwrap().push(line.to_string());
            });
        })
    };

    // fairness: every small job drains while the big job still has open
    // cells — round-robin claiming must not let the big job starve them
    for (id, _) in &smalls {
        client
            .wait_for(*id, &["done"], Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("small job {id} starved: {e}"));
    }
    let big_done = done_cells(&client, big);
    let big_total = big_spec().len();
    assert!(
        big_done < big_total,
        "big job finished ({big_done}/{big_total} cells) before the small jobs — \
         it is sized too small to exercise fairness"
    );

    // SIGKILL once at least one big cell is checkpointed
    let deadline = Instant::now() + Duration::from_secs(120);
    while done_cells(&client, big) < 1 {
        assert!(Instant::now() < deadline, "no big cell completed in time");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut child = server.child;
    child.kill().unwrap(); // SIGKILL: no flush, no goodbye
    child.wait().unwrap();
    streamer.join().unwrap();
    let pre_kill: Vec<String> = streamed.lock().unwrap().clone();

    // restart over the same data directory
    let server = spawn_server(&dir, &[]);
    let client = Client::new(server.addr);

    // resumed state: completed cells restored, the rest re-run
    let metrics = client.request("GET", "/metrics", &[], b"").unwrap().text();
    assert!(
        metrics.contains("serve_jobs_resumed_total 1"),
        "expected exactly the big job live after restart:\n{metrics}"
    );

    // resume the stream after the records we already hold, then drain
    let mut all = pre_kill.clone();
    client
        .stream_records(big, pre_kill.len(), &mut |line| {
            all.push(line.to_string());
        })
        .unwrap();
    client
        .wait_for(big, &["done"], Duration::from_secs(300))
        .unwrap();
    // the stream may have ended between restart and job completion; pick
    // up any remainder
    client
        .stream_records(big, all.len(), &mut |line| all.push(line.to_string()))
        .unwrap();

    assert_eq!(
        all,
        reference_lines(&big_spec()),
        "concatenated pre-kill + post-restart stream differs from a \
         single-process run"
    );

    // finished small jobs replay purely from checkpoints, bit-identical
    for (id, spec) in &smalls {
        let mut lines = Vec::new();
        client
            .stream_records(*id, 0, &mut |line| lines.push(line.to_string()))
            .unwrap();
        assert_eq!(&lines, &reference_lines(spec), "small job {id}");
        assert_eq!(client.status_label(*id).unwrap(), "done");
    }

    let mut child = server.child;
    child.kill().unwrap();
    child.wait().unwrap();
    assert_single_layout(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the big job on an unsharded server and returns its full stream.
fn unsharded_big_lines() -> Vec<String> {
    let dir = fresh_dir("flat");
    let server = spawn_server(&dir, &[]);
    let client = Client::new(server.addr);
    let id = client.submit(&spec_to_json(&big_spec())).unwrap();
    let mut lines = Vec::new();
    client
        .stream_records(id, 0, &mut |line| lines.push(line.to_string()))
        .unwrap();
    let mut child = server.child;
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

/// The sharded soak: a real `--shards k` server (which spawns real
/// `dispersion-shard-worker` processes next to its own binary), 1 big +
/// 16 small jobs, a SIGKILL of one shard worker mid-stream, and a
/// graceful `POST /shutdown` at the end. Returns the big job's merged
/// stream so callers can cross-check it against other run modes.
fn sharded_soak(shards: u64) -> Vec<String> {
    let dir = fresh_dir(&format!("k{shards}"));
    let server = spawn_server(&dir, &["--shards", &shards.to_string()]);
    let client = Client::new(server.addr);

    let metrics = client.request("GET", "/metrics", &[], b"").unwrap().text();
    assert_eq!(
        metric_value(&metrics, "serve_shards "),
        Some(shards),
        "{metrics}"
    );

    let big = client.submit(&spec_to_json(&big_spec())).unwrap();
    let smalls: Vec<(u64, ExperimentSpec)> = (0..16)
        .map(|k| {
            let spec = small_spec(3000 + k);
            let id = client.submit(&spec_to_json(&spec)).unwrap();
            (id, spec)
        })
        .collect();

    // stream the big job from a second thread; the front-end stays up
    // through the worker kill, so this stream never breaks — it just
    // stalls while the killed shard's cells re-run
    let streamed = Arc::new(Mutex::new(Vec::<String>::new()));
    let streamer = {
        let streamed = Arc::clone(&streamed);
        let client = client.clone();
        std::thread::spawn(move || {
            let _ = client.stream_records(big, 0, &mut |line| {
                streamed.lock().unwrap().push(line.to_string());
            });
        })
    };

    // SIGKILL shard 0's worker process once at least one big cell is
    // checkpointed but the job is still open
    let deadline = Instant::now() + Duration::from_secs(120);
    while done_cells(&client, big) < 1 {
        assert!(Instant::now() < deadline, "no big cell completed in time");
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = client.request("GET", "/metrics", &[], b"").unwrap().text();
    let pid = metric_value(&metrics, "serve_shard_pid{shard=\"0\"} ")
        .filter(|&p| p > 0)
        .unwrap_or_else(|| panic!("no live pid for shard 0:\n{metrics}"));
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -9 {pid}")])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");

    // everything still drains: the killed worker's in-flight cell goes
    // back to the queue and the supervisor restarts the worker
    for (id, spec) in &smalls {
        client
            .wait_for(*id, &["done"], Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("small job {id} after worker kill: {e}"));
        let mut lines = Vec::new();
        client
            .stream_records(*id, 0, &mut |line| lines.push(line.to_string()))
            .unwrap();
        assert_eq!(&lines, &reference_lines(spec), "small job {id}");
    }
    client
        .wait_for(big, &["done"], Duration::from_secs(300))
        .unwrap();
    streamer.join().unwrap();
    let mut big_lines: Vec<String> = streamed.lock().unwrap().clone();
    // safety net: if the stream connection ended early, pick up the tail
    client
        .stream_records(big, big_lines.len(), &mut |line| {
            big_lines.push(line.to_string());
        })
        .unwrap();
    assert_eq!(
        big_lines,
        reference_lines(&big_spec()),
        "sharded (k={shards}) stream differs from a single-process run"
    );

    let metrics = client.request("GET", "/metrics", &[], b"").unwrap().text();
    assert!(
        metric_value(&metrics, "serve_shard_restarts_total{shard=\"0\"} ").unwrap_or(0) >= 1,
        "worker kill not reflected in restart counter:\n{metrics}"
    );

    // graceful drain: POST /shutdown must end the process with status 0
    let resp = client.request("POST", "/shutdown", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let mut child = server.child;
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve did not drain after /shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "serve exited {status} after /shutdown");
    assert_single_layout(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    big_lines
}

#[test]
fn sharded_soak_two_shards_matches_unsharded_and_runner() {
    let sharded = sharded_soak(2);
    assert_eq!(
        sharded,
        unsharded_big_lines(),
        "--shards 2 stream differs from --shards 0"
    );
}

#[test]
fn sharded_soak_four_shards_survives_worker_kill() {
    sharded_soak(4);
}
