//! The TCP front-end: accept loop, request routing, and the chunked
//! NDJSON record stream. One thread per connection — connections are
//! few (clients, scrapes) and the expensive ones are streams that
//! monopolise their socket anyway.
//!
//! With `shards = k > 0` the server runs no in-process workers; a
//! [`ShardPool`] of `k` `dispersion-shard-worker` processes executes the
//! cells and the store merges their record streams (see
//! [`crate::shard`]). The HTTP surface is identical either way — clients
//! cannot tell `k = 0` from `k = 4`.

use crate::http::{self, ChunkedWriter, Request};
use crate::jobs::{JobStore, NextRecord, SubmitError};
use crate::metrics::Metrics;
use crate::shard::{ShardLaunch, ShardPool};
use crate::spec_json;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration (the CLI flags, structured).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining job cells (ignored when `shards > 0`).
    pub workers: usize,
    /// Data directory for durable jobs; `None` = in-memory only.
    pub data_dir: Option<PathBuf>,
    /// Bound on jobs with open cells (further `POST /jobs` gets 429).
    pub max_live_jobs: usize,
    /// Shard worker processes; 0 = in-process worker threads.
    pub shards: u64,
    /// How to obtain shard workers. `None` (with `shards > 0`) spawns
    /// the `dispersion-shard-worker` binary found next to the current
    /// executable.
    pub shard_launch: Option<ShardLaunch>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            data_dir: None,
            max_live_jobs: 64,
            shards: 0,
            shard_launch: None,
        }
    }
}

/// Shared context a connection handler needs.
struct Ctx {
    jobs: Arc<JobStore>,
    pool: Option<Arc<ShardPool>>,
    /// Set by `POST /shutdown`; the binary's main loop polls it via
    /// [`Server::shutdown_requested`] and calls [`Server::stop`].
    shutdown: AtomicBool,
    /// Connections currently being handled (streams included).
    conns: AtomicU64,
}

/// A running server: bound listener, worker pool (in-process threads or
/// a shard-process fabric), accept thread.
pub struct Server {
    /// The job store (exposed so embedders/tests can inspect state).
    pub jobs: Arc<JobStore>,
    ctx: Arc<Ctx>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Locates the `dispersion-shard-worker` binary next to the current
/// executable (covering `target/{debug,release}` and the `deps/`
/// directory test binaries run from).
fn sibling_worker_bin() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut dirs = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if let Some(p) = d.parent() {
            dirs.push(p.to_path_buf());
        }
    }
    for dir in &dirs {
        let cand = dir.join("dispersion-shard-worker");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "dispersion-shard-worker not found next to the current executable \
         (build it, or pass ServerConfig::shard_launch)",
    ))
}

impl Server {
    /// Binds, re-scans the data directory, and starts the worker pool
    /// (in-process threads, or the shard fabric when `cfg.shards > 0`)
    /// and accept thread. Returns as soon as the listener is live.
    ///
    /// # Errors
    ///
    /// Bind/scan I/O failures; in sharded mode also a missing worker
    /// binary (caught here so misconfiguration fails fast instead of
    /// spinning supervisors).
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let metrics = Arc::new(Metrics::new());
        let jobs = JobStore::open_with_shards(
            cfg.data_dir.clone(),
            cfg.max_live_jobs,
            metrics,
            cfg.shards,
        )?;
        let (workers, pool) = if cfg.shards == 0 {
            (jobs.start_workers(cfg.workers), None)
        } else {
            let launch = match cfg.shard_launch {
                Some(l) => l,
                None => ShardLaunch::Process {
                    worker_bin: sibling_worker_bin()?,
                },
            };
            let pool = ShardPool::start(&jobs, launch, cfg.shards)?;
            (Vec::new(), Some(pool))
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            jobs: Arc::clone(&jobs),
            pool,
            shutdown: AtomicBool::new(false),
            conns: AtomicU64::new(0),
        });
        let accept = {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, ctx, stop))
        };
        Ok(Server {
            jobs,
            ctx,
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked the process to exit via `POST /shutdown`.
    /// The binary polls this from its main loop.
    pub fn shutdown_requested(&self) -> bool {
        // ORDERING: Relaxed — monotone flag polled every 50ms; latency is
        // bounded by the poll, not the ordering
        self.ctx.shutdown.load(Ordering::Relaxed)
    }

    /// Graceful stop: no new connections, workers exit after their
    /// current cell (shard workers drain it and say `Bye`), streams
    /// end with a clean final chunk, checkpoints are fsynced. Blocks
    /// until the accept thread, workers and shard pool are down and
    /// in-flight connections have finished (bounded wait).
    pub fn stop(mut self) {
        // ORDERING: SeqCst — shutdown is once-per-process and cold; buying
        // the strongest ordering costs nothing and reads unambiguously
        self.stop.store(true, Ordering::SeqCst);
        self.jobs.stop();
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(pool) = &self.ctx.pool {
            pool.stop();
        }
        self.jobs.sync_checkpoints();
        // jobs.stop() ended every stream (next_record returns End), so
        // handlers only need to flush their final chunk — give them a
        // bounded grace period rather than exiting under their feet
        let deadline = Instant::now() + Duration::from_secs(5);
        // ORDERING: Relaxed — monotone-to-zero drain gauge, polled
        while self.ctx.conns.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

// The accept thread owns the listener and its Arc handles outright; the
// socket must die with the thread so the port frees on stop().
#[allow(clippy::needless_pass_by_value)]
fn accept_loop(listener: TcpListener, ctx: Arc<Ctx>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        // ORDERING: SeqCst — pairs with the store in stop(); see there
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            // ORDERING: Relaxed — connection drain gauge for stop()
            ctx.conns.fetch_add(1, Ordering::Relaxed);
            let _ = handle_connection(stream, &ctx);
            // ORDERING: Relaxed — see the matching increment above
            ctx.conns.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = stream;
    let Some(req) = http::read_request(&mut reader)? else {
        return Ok(());
    };
    Metrics::bump(&ctx.jobs.metrics.http_requests, 1);
    route(&req, &mut w, ctx)
}

/// Splits `/jobs/<id>[/records]` into `(id, is_records)`.
fn job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/jobs/")?;
    if let Some(id) = rest.strip_suffix("/records") {
        Some((id.parse().ok()?, true))
    } else {
        Some((rest.parse().ok()?, false))
    }
}

fn route(req: &Request, w: &mut TcpStream, ctx: &Ctx) -> io::Result<()> {
    let jobs = &*ctx.jobs;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::respond(w, 200, "text/plain", b"ok\n"),
        ("GET", "/metrics") => {
            let (live, open) = jobs.gauges();
            let mut body = jobs.metrics.render(live, open);
            body.push_str(
                "# HELP serve_connections_active Connections currently being handled.\n\
                 # TYPE serve_connections_active gauge\n",
            );
            // ORDERING: Relaxed — display gauge
            body.push_str(&format!(
                "serve_connections_active {}\n",
                ctx.conns.load(Ordering::Relaxed)
            ));
            if let Some(pool) = &ctx.pool {
                body.push_str(&pool.metrics_text());
            }
            http::respond(w, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        ("POST", "/jobs") => post_job(req, w, jobs),
        ("GET", "/jobs") => {
            let body = jobs.list_json();
            http::respond(w, 200, "application/json", body.as_bytes())
        }
        ("POST", "/shutdown") => {
            // ORDERING: Relaxed — monotone request flag; the main loop's
            // poll is the synchronisation point
            ctx.shutdown.store(true, Ordering::Relaxed);
            http::respond(w, 200, "application/json", b"{\"stopping\":true}")
        }
        (_, "/healthz" | "/metrics" | "/jobs" | "/shutdown") => {
            http::respond(w, 405, "text/plain", b"method not allowed\n")
        }
        (method, path) => match job_path(path) {
            Some((id, true)) if method == "GET" => stream_records(req, w, jobs, id),
            Some((id, false)) if method == "GET" => match jobs.status_json(id) {
                Some(mut body) => {
                    if let Some(pool) = &ctx.pool {
                        // the shards' liveness goes last, inside the
                        // document's closing brace
                        let states: Vec<&str> = pool
                            .shard_states()
                            .iter()
                            .map(|&up| if up { "\"up\"" } else { "\"down\"" })
                            .collect();
                        let at = body.len() - 1;
                        body.insert_str(at, &format!(",\"shard_states\":[{}]", states.join(",")));
                    }
                    http::respond(w, 200, "application/json", body.as_bytes())
                }
                None => http::respond(w, 404, "text/plain", b"no such job\n"),
            },
            Some((id, false)) if method == "DELETE" => {
                if jobs.cancel(id) {
                    if let Some(pool) = &ctx.pool {
                        pool.cancel_job(id);
                    }
                    let body = format!("{{\"id\":{id},\"cancelled\":true}}");
                    http::respond(w, 200, "application/json", body.as_bytes())
                } else {
                    http::respond(w, 404, "text/plain", b"no such job\n")
                }
            }
            Some(_) => http::respond(w, 405, "text/plain", b"method not allowed\n"),
            None => http::respond(w, 404, "text/plain", b"no such endpoint\n"),
        },
    }
}

fn post_job(req: &Request, w: &mut TcpStream, jobs: &JobStore) -> io::Result<()> {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return http::respond(w, 400, "text/plain", b"body is not UTF-8\n"),
    };
    let spec = match spec_json::spec_from_json(text) {
        Ok(s) => s,
        Err(e) => {
            let body = format!("invalid spec: {e}\n");
            return http::respond(w, 400, "text/plain", body.as_bytes());
        }
    };
    let cells = spec.len();
    match jobs.submit(spec) {
        Ok(id) => {
            let body = format!("{{\"id\":{id},\"cells\":{cells}}}");
            http::respond(w, 201, "application/json", body.as_bytes())
        }
        Err(e @ SubmitError::QueueFull { .. }) => {
            let body = format!("{e}\n");
            http::respond(w, 429, "text/plain", body.as_bytes())
        }
        Err(e) => {
            let body = format!("{e}\n");
            http::respond(w, 400, "text/plain", body.as_bytes())
        }
    }
}

/// `GET /jobs/<id>/records`: chunked NDJSON, one record line per chunk,
/// in cell order, blocking as cells complete. A `Last-Record: k` request
/// header skips the first `k` records (the resume handshake: send how
/// many lines you already hold, receive exactly the rest).
fn stream_records(req: &Request, w: &mut TcpStream, jobs: &JobStore, id: u64) -> io::Result<()> {
    if !jobs.exists(id) {
        return http::respond(w, 404, "text/plain", b"no such job\n");
    }
    let mut k = match req.header("last-record").map(str::parse::<usize>) {
        None => 0,
        Some(Ok(k)) => k,
        Some(Err(_)) => {
            return http::respond(w, 400, "text/plain", b"bad Last-Record header\n");
        }
    };
    let mut cw = ChunkedWriter::begin(&mut *w, 200, "application/x-ndjson")?;
    while let NextRecord::Line(line) = jobs.next_record(id, k) {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        cw.chunk(&bytes)?;
        k += 1;
        Metrics::bump(&jobs.metrics.records_streamed, 1);
    }
    cw.finish()
}
