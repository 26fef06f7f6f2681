//! The `dispersion-serve` binary: bind, restore jobs from `--data-dir`,
//! serve until asked to stop.
//!
//! ```text
//! dispersion-serve [--addr 127.0.0.1:7070] [--data-dir DIR]
//!                  [--workers N] [--max-jobs N] [--shards K]
//! ```
//!
//! Prints one `listening http://<addr>` line on stdout once the socket
//! is live (port 0 in `--addr` picks a free port — the line is how
//! callers learn which one). `--shards K` with `K > 0` replaces the
//! in-process worker threads with `K` `dispersion-shard-worker`
//! processes (requires `--data-dir`).
//!
//! SIGTERM/SIGINT or `POST /shutdown` triggers a graceful stop: workers
//! drain their current cell (its record is checkpointed like any other),
//! checkpoints are fsynced, active record streams end with a clean final
//! chunk, then the process exits 0.

use dispersion_serve::{Server, ServerConfig};
use signal_hook::consts::{SIGINT, SIGTERM};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dispersion-serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
         [--max-jobs N] [--shards K]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7070".into(),
        workers: std::thread::available_parallelism().map_or(2, |p| p.get().max(2)),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--data-dir" => cfg.data_dir = Some(value("--data-dir").into()),
            "--workers" => cfg.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--max-jobs" => {
                cfg.max_live_jobs = value("--max-jobs").parse().unwrap_or_else(|_| usage());
            }
            "--shards" => cfg.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let term = Arc::new(AtomicBool::new(false));
    for sig in [SIGTERM, SIGINT] {
        if let Err(e) = signal_hook::flag::register(sig, Arc::clone(&term)) {
            eprintln!("dispersion-serve: cannot trap signal {sig}: {e}");
            std::process::exit(1);
        }
    }

    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("dispersion-serve: {e}");
        std::process::exit(1);
    });
    println!("listening http://{}", server.addr());
    let _ = std::io::stdout().flush();

    // serve until a signal or POST /shutdown asks us to drain
    // ORDERING: Relaxed — monotone flags polled every 50ms
    while !term.load(Ordering::Relaxed) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("dispersion-serve: draining");
    server.stop();
}
