//! The multi-process shard fabric: the wire protocol, the headless shard
//! worker, and the front-end coordinator pool.
//!
//! # Placement
//!
//! With `--shards k`, cells are **pulled**, not owned: each shard's
//! supervisor claims the next `(job, cell)` from the same round-robin
//! queue the in-process worker threads drain
//! ([`JobStore`](crate::jobs::JobStore)), sends it to its worker, and
//! claims again only when that cell's record has landed. A long cell
//! therefore occupies one shard while the others drain everything behind
//! it. Placement is **output-invisible**: trial `t` of cell `c` always
//! draws from the RNG stream `Xoshiro256pp::new(trial_seed(master(c), t))`,
//! so which process runs a cell (like which thread, and like whether it
//! was resumed from a checkpoint) cannot change a single byte of its
//! record. The front-end merges the records back into global cell order
//! with the same blocking per-cell iterator the in-process pool uses, so
//! clients cannot tell `k = 1` from `k = 4` — or from `k = 0`.
//!
//! # Pieces
//!
//! * [`proto`] — length-prefixed frames (`Hello`/`Run`/`Record`/…) over
//!   one persistent TCP connection per shard;
//! * [`worker`] — the headless worker loop behind the
//!   `dispersion-shard-worker` binary (also runnable in-thread by tests);
//! * [`pool`] — the coordinator: spawns `k` workers and connects to the
//!   address each prints, each worker the transport of one
//!   [`JobStore`](crate::jobs::JobStore) executor loop (send a claimed
//!   cell as `Run`, hand back its `Record`).
//!
//! # Stateless workers
//!
//! Workers write no files. The front-end appends every record a shard
//! returns to `job-<id>.ndjson` and flushes it before any client can see
//! it — the same writer, file and re-scan as in `k = 0` mode — so a worker
//! crash loses at most its in-flight cell, which re-runs byte-identically.
//! The pool writes no files either, so sharded mode needs no data
//! directory. Workers end with the front-end that spawned them: it holds
//! their stdin pipes, and a worker drains and exits on EOF there.

pub mod pool;
pub mod proto;
pub mod worker;

pub use pool::{ShardLaunch, ShardPool};
