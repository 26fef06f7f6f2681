//! The `dispersion-shard-worker` binary: a headless shard worker the
//! `dispersion-serve` front-end spawns (or adopts) per shard.
//!
//! ```text
//! dispersion-shard-worker --shard I [--listen 127.0.0.1:0] [--chaos-drop-after N]
//! ```
//!
//! Prints one `shard-worker listening <addr>` line on stdout once the
//! socket is live (the coordinator parses it to learn the port), then
//! serves coordinator sessions — running each cell the coordinator sends,
//! one at a time, and answering with its record; it writes no files —
//! until a `Shutdown` frame or SIGTERM/SIGINT drains it. `--chaos-drop-after N` hard-drops
//! the coordinator connection after `N` record frames, once — a test hook
//! for the reconnect path.

use dispersion_serve::shard::worker::{run_worker, WorkerOptions};
use signal_hook::consts::{SIGINT, SIGTERM};
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: dispersion-shard-worker --shard I \
         [--listen HOST:PORT] [--chaos-drop-after N]\n\
         \n\
         Runs the cells a dispersion-serve front-end sends it, one at a time,\n\
         and answers each with its record (the front-end checkpoints it).\n\
         Prints `shard-worker listening <addr>` once bound;\n\
         SIGTERM/SIGINT finishes the running cell and exits."
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut shard: Option<u64> = None;
    let mut drop_after = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => listen = value("--listen"),
            "--shard" => shard = Some(value("--shard").parse().unwrap_or_else(|_| usage())),
            "--chaos-drop-after" => {
                drop_after = Some(
                    value("--chaos-drop-after")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    // `--shard` only names the process in logs; the authoritative shard id
    // arrives in the coordinator's Hello. Requiring it keeps accidental
    // double-spawns visible in `ps`.
    if shard.is_none() {
        eprintln!("--shard is required");
        usage();
    }

    let term = Arc::new(AtomicBool::new(false));
    for sig in [SIGTERM, SIGINT] {
        if let Err(e) = signal_hook::flag::register(sig, Arc::clone(&term)) {
            eprintln!("dispersion-shard-worker: cannot trap signal {sig}: {e}");
            std::process::exit(1);
        }
    }

    let listener = TcpListener::bind(&listen).unwrap_or_else(|e| {
        eprintln!("dispersion-shard-worker: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = listener.local_addr().expect("bound socket has an address");
    println!("shard-worker listening {addr}");
    let _ = std::io::stdout().flush();

    let opts = WorkerOptions {
        data_dir: Default::default(),
        drop_after_records: drop_after,
    };
    if let Err(e) = run_worker(&listener, &opts, &term) {
        eprintln!("dispersion-shard-worker: {e}");
        std::process::exit(1);
    }
}
