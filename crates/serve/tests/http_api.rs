//! End-to-end HTTP tests against an in-process [`Server`]: every
//! endpoint, every error path, and the core determinism contract — the
//! streamed NDJSON is byte-identical to an in-process `Runner` run of
//! the same spec.

use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_serve::spec_json::spec_to_json;
use dispersion_serve::{Client, Server, ServerConfig};
use dispersion_sim::json::Json;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::MemorySink;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use std::time::Duration;

fn small_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    spec.push(
        CellSpec::new(
            FamilySpec::explicit(Family::Complete, 32),
            Measure::Dispersion(Process::Sequential),
        )
        .budget(Budget::Trials(16)),
    );
    spec.push(
        CellSpec::new(
            FamilySpec::explicit(Family::Cycle, 16),
            Measure::Dispersion(Process::Parallel),
        )
        .budget(Budget::Trials(16)),
    );
    spec
}

/// A single-cell spec big enough (in debug builds) to still be running
/// when the next request lands.
fn slow_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Torus2d, 1024),
            Measure::Dispersion(Process::Sequential),
        )
        .budget(Budget::Trials(64)),
    );
    spec
}

fn start(cfg: ServerConfig) -> (Server, Client) {
    let server = Server::start(cfg).unwrap();
    let client = Client::new(server.addr());
    (server, client)
}

fn reference_lines(spec: &ExperimentSpec) -> Vec<String> {
    Runner::new(1)
        .run(spec, &[], &mut MemorySink::default())
        .iter()
        .map(dispersion_sim::Record::to_json_line)
        .collect()
}

#[test]
fn healthz_metrics_and_error_paths() {
    let (server, client) = start(ServerConfig::default());

    let resp = client.request("GET", "/healthz", &[], b"").unwrap();
    assert_eq!((resp.status, resp.text().as_str()), (200, "ok\n"));

    let resp = client.request("GET", "/metrics", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    for needle in [
        "serve_jobs_submitted_total",
        "serve_cells_completed_total",
        "serve_trials_per_second",
        "serve_jobs_live",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    // malformed spec JSON
    let resp = client.request("POST", "/jobs", &[], b"{nope").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().starts_with("invalid spec:"), "{}", resp.text());

    // structurally valid JSON, empty cell list
    let resp = client
        .request("POST", "/jobs", &[], br#"{"seed":1,"cells":[]}"#)
        .unwrap();
    assert_eq!(resp.status, 400);

    // unknown job: status, records, cancel
    for (method, path) in [
        ("GET", "/jobs/99"),
        ("GET", "/jobs/99/records"),
        ("DELETE", "/jobs/99"),
    ] {
        let resp = client.request(method, path, &[], b"").unwrap();
        assert_eq!(resp.status, 404, "{method} {path}");
    }

    // wrong methods
    for (method, path) in [
        ("DELETE", "/healthz"),
        ("POST", "/metrics"),
        ("DELETE", "/jobs"),
        ("GET", "/shutdown"),
        ("POST", "/jobs/1/records"),
    ] {
        let resp = client.request(method, path, &[], b"").unwrap();
        assert_eq!(resp.status, 405, "{method} {path}");
    }

    // unroutable path
    let resp = client.request("GET", "/nope", &[], b"").unwrap();
    assert_eq!(resp.status, 404);

    server.stop();
}

#[test]
fn stream_is_bit_identical_to_in_process_runner_and_resumes() {
    let (server, client) = start(ServerConfig::default());
    let spec = small_spec(7);
    let id = client.submit(&spec_to_json(&spec)).unwrap();

    let mut got = Vec::new();
    let n = client
        .stream_records(id, 0, &mut |line| got.push(line.to_string()))
        .unwrap();
    let want = reference_lines(&spec);
    assert_eq!(n, want.len());
    assert_eq!(got, want, "served stream differs from in-process run");

    // Last-Record resume: ask for everything after the first record
    let mut tail = Vec::new();
    client
        .stream_records(id, 1, &mut |line| tail.push(line.to_string()))
        .unwrap();
    assert_eq!(tail, want[1..].to_vec());

    // resume offset at/after the end yields an empty, well-formed stream
    let mut none = Vec::new();
    let n = client
        .stream_records(id, want.len(), &mut |line| none.push(line.to_string()))
        .unwrap();
    assert_eq!((n, none.len()), (0, 0));

    // a malformed Last-Record header is a client error, not a stream
    let resp = client
        .request(
            "GET",
            &format!("/jobs/{id}/records"),
            &[("Last-Record", "x")],
            b"",
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    assert_eq!(
        client.wait_for(id, &["done"], Duration::from_secs(5)),
        Ok("done".into())
    );
    let status = client.status(id).unwrap();
    let doc = Json::parse(&status).unwrap();
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
    assert_eq!(cells.len(), spec.len());
    for cell in cells {
        assert_eq!(cell.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(cell.get("trials").and_then(Json::as_u64), Some(16));
    }

    server.stop();
}

#[test]
fn job_list_and_shutdown_endpoints() {
    let (server, client) = start(ServerConfig::default());

    // empty list before any submission
    let resp = client.request("GET", "/jobs", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        doc.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
    assert_eq!(doc.get("shards").and_then(Json::as_u64), Some(0));

    let spec = small_spec(11);
    let id = client.submit(&spec_to_json(&spec)).unwrap();
    client
        .wait_for(id, &["done"], Duration::from_secs(5))
        .unwrap();

    let resp = client.request("GET", "/jobs", &[], b"").unwrap();
    let doc = Json::parse(&resp.text()).unwrap();
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Json::as_u64), Some(id));
    assert_eq!(jobs[0].get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(
        jobs[0].get("cells").and_then(Json::as_u64),
        Some(spec.len() as u64)
    );
    assert_eq!(jobs[0].get("open_cells").and_then(Json::as_u64), Some(0));
    // no shard placement in unsharded mode
    assert!(jobs[0].get("shards").is_none());

    // POST /shutdown flips the drain flag the binary's main loop polls
    assert!(!server.shutdown_requested());
    let resp = client.request("POST", "/shutdown", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"stopping\":true"), "{}", resp.text());
    assert!(server.shutdown_requested());

    server.stop();
}

#[test]
fn full_queue_yields_429_and_cancel_frees_a_slot() {
    let (server, client) = start(ServerConfig {
        max_live_jobs: 1,
        workers: 1,
        ..ServerConfig::default()
    });

    // occupy the single slot with a job that runs for a while
    let slow = client.submit(&spec_to_json(&slow_spec(1))).unwrap();
    let err = client.submit(&spec_to_json(&small_spec(2))).unwrap_err();
    assert!(err.contains("429"), "{err}");
    assert!(err.contains("queue full"), "{err}");

    // cancelling the slow job frees the slot
    assert!(client.cancel(slow).unwrap());
    assert_eq!(
        client.wait_for(slow, &["cancelled"], Duration::from_secs(5)),
        Ok("cancelled".into())
    );
    let id = client.submit(&spec_to_json(&small_spec(2))).unwrap();
    assert_ne!(id, slow);

    // the cancelled job's stream terminates instead of blocking forever
    let mut lines = Vec::new();
    client
        .stream_records(slow, 0, &mut |line| lines.push(line.to_string()))
        .unwrap();
    // nothing durable: the only cell was cancelled mid-run or pre-claim
    assert!(lines.is_empty(), "unexpected durable records: {lines:?}");

    server.stop();
}

#[test]
fn cancel_mid_job_reports_cancelled_cells() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let id = client.submit(&spec_to_json(&slow_spec(3))).unwrap();
    client
        .wait_for(id, &["running"], Duration::from_secs(5))
        .unwrap();
    assert!(client.cancel(id).unwrap());
    // cancelling again is a no-op, not an error
    assert!(client.cancel(id).unwrap());
    client
        .wait_for(id, &["cancelled"], Duration::from_secs(5))
        .unwrap();

    let resp = client.request("GET", "/metrics", &[], b"").unwrap();
    assert!(
        resp.text().contains("serve_jobs_cancelled_total 1"),
        "{}",
        resp.text()
    );
    server.stop();
}

/// A spec that panics inside the cell (an implicit torus whose side
/// overflows `u32` vertex ids) ends as an error record instead of killing
/// its worker thread; a normal job submitted after it still streams
/// byte-identically.
#[test]
fn panicking_cell_becomes_an_error_record() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let bad = client
        .submit(r#"{"cells":[{"family":"grid2d","size":8589934592,"backend":"implicit","measure":"seq","budget":{"trials":4}}]}"#)
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

    let spec = small_spec(13);
    let id = client.submit(&spec_to_json(&spec)).unwrap();
    let mut got = Vec::new();
    client
        .stream_records(id, 0, &mut |line| got.push(line.to_string()))
        .unwrap();
    assert_eq!(got, reference_lines(&spec));
    server.stop();
}
