//! The serve workloads (`serve_mixed`, `serve_sharded`): an in-process
//! `Server` with a data directory, one long background job, and two
//! closed-loop clients that each submit a small job, drain its record
//! stream to the end, and submit the next. The loop is closed because
//! that is how researchers use the service: submit, wait for records.
//!
//! Every stream is checked byte for byte against `run_cell` records of
//! the same spec, computed in-process after the timed phase.

use crate::runner_wl::CountingSink;
use crate::specs;
use crate::trace::{Span, Trace};
use crate::{check_record, traced_round, Config, JobObs, PassOut, RoundObs, Scale, WorkerLaunch};
use dispersion_serve::shard::worker::{run_worker, WorkerOptions};
use dispersion_serve::shard::ShardLaunch;
use dispersion_serve::spec_json::spec_from_json;
use dispersion_serve::{Client, Server, ServerConfig};
use dispersion_sim::runner::{run_cell, CancelToken};
use dispersion_sim::sink::{parse_ndjson_lossy, Record};
use dispersion_sim::spec::ExperimentSpec;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client threads and server workers (in-process threads or
/// shard processes): one per core of the 2-core reference machine.
pub const CLIENTS: usize = 2;

/// A running server with its inputs.
pub struct Env {
    server: Server,
    client: Client,
    data_dir: PathBuf,
    /// In-thread shard workers (smoke tests only).
    workers: Vec<JoinHandle<()>>,
    _term: Arc<AtomicBool>,
    /// Seconds from `Server::start` until every shard reported up
    /// (0 in-process).
    pub spawn_s: f64,
}

/// The traffic of one timed phase, in wire form.
pub struct Traffic {
    /// Distinct small-job specs.
    pub pool: Vec<String>,
    /// Submission order (indices into `pool`), cut into equal rounds.
    pub order: Vec<usize>,
    /// Rounds the phase runs; each starts with the long job.
    pub rounds: usize,
    /// The long background job, if any.
    pub long: Option<String>,
}

/// The workload traffic for `cfg`: `rounds` rounds, each the long job
/// plus 96 small jobs (6 at the smoke-test scale). The long job is about
/// a third of a round's work, so the small jobs, spread over both
/// workers, set the round's length rather than the one long cell.
/// `paired` repeats each round's small jobs in the next round, so the
/// untraced and traced rounds of a traced run do the same work.
pub fn traffic(cfg: &Config, rounds: usize, paired: bool) -> Traffic {
    let (side, trials, per_round, shrink) = match cfg.scale {
        Scale::Full => (100, 2, 96, 1),
        Scale::Tiny => (10, 2, 6, 4),
    };
    let order = if paired {
        specs::submission_order(cfg.seed, rounds.div_ceil(2) * per_round)
            .chunks(per_round)
            .flat_map(|r| r.iter().chain(r))
            .copied()
            .collect()
    } else {
        specs::submission_order(cfg.seed, rounds * per_round)
    };
    Traffic {
        pool: specs::small_job_pool(cfg.seed, shrink),
        order,
        rounds,
        long: Some(specs::long_job(cfg.seed, side, trials)),
    }
}

/// `run_cell` records of the warm-up job, which every set-up's warm-up
/// stream must equal. Computed once per run, outside the timed set-ups:
/// it is the benchmark's check, not the program's set-up.
///
/// # Errors
///
/// A warm-up spec the parser rejects.
pub fn warmup_reference() -> Result<Vec<String>, String> {
    Ok(reference(&spec_from_json(&specs::warmup_job())?).lines)
}

/// Starts a server (`shards` = 0: in-process workers) over a fresh data
/// directory, waits until every shard is up, and runs the warm-up job,
/// whose stream must equal `warm_want` (from [`warmup_reference`]).
///
/// # Errors
///
/// Start-up failures, a shard that never comes up, a failed warm-up.
pub fn setup(cfg: &Config, shards: u64, tag: &str, warm_want: &[String]) -> Result<Env, String> {
    let data_dir = cfg.out_dir.join(format!(
        "data-{}-{}-{}-{tag}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("data dir: {e}"))?;
    let term = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    let shard_launch = match (&cfg.worker, shards) {
        (_, 0) => None,
        (WorkerLaunch::Binary(path), _) => Some(ShardLaunch::Process {
            worker_bin: path.clone(),
        }),
        (WorkerLaunch::InThread, k) => {
            let mut addrs = Vec::new();
            for _ in 0..k {
                let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                addrs.push(l.local_addr().map_err(|e| e.to_string())?.to_string());
                let opts = WorkerOptions {
                    data_dir: data_dir.clone(),
                    drop_after_records: None,
                };
                let term = Arc::clone(&term);
                workers.push(std::thread::spawn(move || {
                    let _ = run_worker(&l, &opts, &term);
                }));
            }
            Some(ShardLaunch::Existing { addrs })
        }
    };
    let t0 = Instant::now();
    let server = Server::start(ServerConfig {
        workers: CLIENTS,
        data_dir: Some(data_dir.clone()),
        shards,
        shard_launch,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let client = Client::new(server.addr());
    let mut env = Env {
        server,
        client,
        data_dir,
        workers,
        _term: term,
        spawn_s: 0.0,
    };
    match warm_up(&mut env, shards, t0, warm_want) {
        Ok(()) => Ok(env),
        Err(e) => {
            // stop the shard processes this set-up spawned before failing
            teardown(env);
            Err(e)
        }
    }
}

/// Waits for every shard, then runs the warm-up job and checks its
/// stream.
fn warm_up(env: &mut Env, shards: u64, started: Instant, want: &[String]) -> Result<(), String> {
    if shards > 0 {
        wait_shards_up(&env.client, shards)?;
        env.spawn_s = started.elapsed().as_secs_f64();
    }
    let lines = run_job(&env.client, &specs::warmup_job(), None)?.lines;
    if lines != want {
        return Err("warm-up stream differs from run_cell records".into());
    }
    Ok(())
}

/// Polls `/metrics` until `serve_shard_up` is 1 for every shard.
fn wait_shards_up(client: &Client, shards: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = client
            .request("GET", "/metrics", &[], b"")
            .map_err(|e| format!("metrics: {e}"))?
            .text();
        let up = body
            .lines()
            .filter(|l| l.starts_with("serve_shard_up{") && l.ends_with(" 1"))
            .count() as u64;
        if up == shards {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{up} of {shards} shards up after 30s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Stops the server (and with it every shard process) and removes the
/// data directory.
pub fn teardown(env: Env) {
    env.server.stop();
    for w in env.workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_dir_all(&env.data_dir);
}

/// What the client saw of one job.
pub struct Seen {
    /// NDJSON lines in arrival order.
    pub lines: Vec<String>,
    /// Seconds from `POST /jobs` to the 201.
    pub submit_s: f64,
    /// Seconds from `POST /jobs` to the first record line.
    pub first_s: f64,
    /// Seconds from `POST /jobs` to the end of the stream.
    pub job_s: f64,
}

/// Submits one spec and drains its record stream.
///
/// # Errors
///
/// A refused submission or a broken stream.
pub fn run_job(
    client: &Client,
    json: &str,
    trace: Option<(&Trace, usize)>,
) -> Result<Seen, String> {
    let t0 = Instant::now();
    let id = client.submit(json)?;
    let submit_s = t0.elapsed().as_secs_f64();
    let mut lines = Vec::new();
    let mut first_s = None;
    let mut last = trace.map(|(t, _)| t.at(t0));
    client
        .stream_records(id, 0, &mut |line| {
            first_s.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            lines.push(line.to_string());
            // the client sees a cell as the gap since the previous record
            if let (Some((t, job)), Some(start)) = (trace, last.as_mut()) {
                let now = t.now();
                t.push(Span {
                    name: "cell",
                    label: (lines.len() - 1).to_string(),
                    parent: Some(job),
                    start: *start,
                    end: now,
                });
                *start = now;
            }
        })
        .map_err(|e| format!("job {id} stream: {e}"))?;
    let job_s = t0.elapsed().as_secs_f64();
    Ok(Seen {
        lines,
        submit_s,
        first_s: first_s.unwrap_or(job_s),
        job_s,
    })
}

/// `run_cell` records of a spec, with the steps walked and the time the
/// first cell took.
pub struct Reference {
    /// Record lines in cell order.
    pub lines: Vec<String>,
    /// Walk steps over all cells.
    pub steps: u64,
    /// Seconds `run_cell` took for cell 0.
    pub first_cell_s: f64,
}

/// Runs every cell of `spec` through `run_cell`, in cell order.
pub fn reference(spec: &ExperimentSpec) -> Reference {
    let ctrl = CancelToken::new();
    let mut sink = CountingSink::new(None);
    let mut lines = Vec::with_capacity(spec.len());
    let mut first_cell_s = 0.0;
    for id in 0..spec.len() {
        let t0 = Instant::now();
        lines.push(run_cell(spec, id, &ctrl, &mut sink).to_json_line());
        if id == 0 {
            first_cell_s = t0.elapsed().as_secs_f64();
        }
    }
    Reference {
        lines,
        steps: sink.steps,
        first_cell_s,
    }
}

/// References of many specs, computed on two threads.
fn references(parsed: &[ExperimentSpec]) -> Vec<Reference> {
    let next = Mutex::new(0usize);
    let out: Mutex<Vec<Option<Reference>>> = Mutex::new((0..parsed.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("reference queue poisoned");
                    *n += 1;
                    *n - 1
                };
                if i >= parsed.len() {
                    return;
                }
                let r = reference(&parsed[i]);
                out.lock().expect("reference slots poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("reference slots poisoned")
        .into_iter()
        .map(|r| r.expect("every reference computed"))
        .collect()
}

/// Checks one received stream against its reference: it must parse as
/// NDJSON records, carry no error record, honour every cell's budget and
/// equal the reference byte for byte. Returns the parsed records.
///
/// # Errors
///
/// The first problem found.
pub fn check_stream(
    lines: &[String],
    spec: &ExperimentSpec,
    want: &[String],
) -> Result<Vec<Record>, String> {
    let mut text = lines.join("\n");
    text.push('\n');
    let (records, torn) = parse_ndjson_lossy(&text);
    if let Some(t) = torn {
        return Err(format!("unparseable record line {}: {}", t.line, t.error));
    }
    if records.len() != spec.len() {
        return Err(format!(
            "{} records for {} cells",
            records.len(),
            spec.len()
        ));
    }
    for (r, c) in records.iter().zip(&spec.cells) {
        check_record(r, c)?;
    }
    if lines != want {
        return Err("stream differs from run_cell records".into());
    }
    Ok(records)
}

/// One received job, before verification.
struct Got {
    round: usize,
    pool_idx: Option<usize>,
    seen: Result<Seen, String>,
}

/// Runs one round: the long job on its own thread plus this round's
/// small jobs from two closed-loop clients. `trace` is the trace when
/// this round records spans.
fn round(
    env: &Env,
    traffic: &Traffic,
    r: usize,
    trace: Option<&Trace>,
    parent: Option<usize>,
    got: &Mutex<Vec<Got>>,
) {
    let per = traffic.order.len() / traffic.rounds;
    let jobs = &traffic.order[r * per..(r + 1) * per];
    let run = |pool_idx: Option<usize>, json: &str| {
        let label = pool_idx.map_or("long".to_string(), |k| k.to_string());
        let span = trace.map(|t| (t, t.open("job", label, parent)));
        let seen = run_job(&env.client, json, span);
        if let Some((t, id)) = span {
            t.close(id);
        }
        got.lock().expect("results poisoned").push(Got {
            round: r,
            pool_idx,
            seen,
        });
    };
    std::thread::scope(|s| {
        if let Some(long) = &traffic.long {
            s.spawn(|| run(None, long));
        }
        for c in 0..CLIENTS {
            let run = &run;
            s.spawn(move || {
                for &k in jobs.iter().skip(c).step_by(CLIENTS) {
                    run(Some(k), &traffic.pool[k]);
                }
            });
        }
    });
}

/// Runs the timed phase, round after round, then verifies every stream
/// against `run_cell` records. Under a trace, the rounds
/// [`traced_round`] picks record their spans.
///
/// `corrupt` breaks the first line of the first small job's stream
/// before it is checked (the smoke test's proof that a bad stream is
/// counted).
///
/// # Errors
///
/// A traffic spec the parser rejects.
pub fn timed_pass(
    env: &Env,
    traffic: &Traffic,
    trace: Option<&Trace>,
    corrupt: bool,
) -> Result<PassOut, String> {
    let start = Instant::now();
    let wl_span = trace.map(|t| t.open("workload", String::new(), None));
    let got: Mutex<Vec<Got>> = Mutex::new(Vec::new());
    let mut round_walls = Vec::with_capacity(traffic.rounds);
    for r in 0..traffic.rounds {
        let traced = trace.filter(|_| traced_round(r));
        let t0 = Instant::now();
        round(env, traffic, r, traced, wl_span, &got);
        round_walls.push((t0.elapsed().as_secs_f64(), traced.is_some()));
    }
    if let (Some(t), Some(id)) = (trace, wl_span) {
        t.close(id);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = PassOut::new(wall_s, crate::peak_rss_mib());
    out.rounds = round_walls
        .iter()
        .map(|&(wall_s, traced)| RoundObs {
            wall_s,
            traced,
            ..RoundObs::default()
        })
        .collect();

    // verification, outside the timed phase
    let mut texts: Vec<&str> = traffic.pool.iter().map(String::as_str).collect();
    if let Some(long) = &traffic.long {
        texts.push(long);
    }
    let specs: Vec<ExperimentSpec> = texts
        .iter()
        .map(|t| spec_from_json(t))
        .collect::<Result<_, _>>()?;
    let refs = references(&specs);
    let mut corrupt = corrupt;
    for g in got.into_inner().expect("results poisoned") {
        out.attempted += 1;
        let idx = g.pool_idx.unwrap_or(texts.len() - 1);
        let mut seen = match g.seen {
            Ok(seen) => seen,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if corrupt && g.pool_idx.is_some() {
            corrupt = false;
            if let Some(line) = seen.lines.first_mut() {
                *line = line.replacen("\"trials\":", "\"trials\":x", 1);
            }
        }
        let records = match check_stream(&seen.lines, &specs[idx], &refs[idx].lines) {
            Ok(records) => records,
            Err(e) => {
                out.fail(format!("pool job {idx}: {e}"));
                continue;
            }
        };
        let trials: u64 = records.iter().map(|r| r.trials).sum();
        let rd = &mut out.rounds[g.round];
        rd.steps += refs[idx].steps;
        rd.trials += trials;
        rd.records += seen.lines.len() as u64;
        // latencies describe the small jobs; the long job only adds to
        // the throughput totals
        if g.pool_idx.is_some() {
            out.submit_s.push(seen.submit_s);
            out.queue_wait_s.push(seen.first_s - refs[idx].first_cell_s);
            out.jobs.push(JobObs {
                first_record_s: seen.first_s,
                job_s: seen.job_s,
            });
        }
    }
    Ok(out)
}
