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
//! * [`pool`] — the coordinator: spawns/adopts `k` workers, dispatches
//!   claimed cells one at a time, re-queues a cell whose worker died with
//!   it, feeds records back into the [`JobStore`](crate::jobs::JobStore).
//!
//! # Shard checkpoint files
//!
//! Each worker persists the records it produced to
//! `job-<id>.shard<i>.ndjson` next to the front-end's files, in
//! completion order, appended and flushed before the record is ever
//! streamed. Before its first append to a file in a process life a
//! worker truncates a torn final line, and the startup re-scan of a
//! restarted front-end does the same — the durability contract
//! `job-<id>.ndjson` has in `k = 0` mode, extended across the process
//! boundary. A cell re-run after a lost session may sit in two files;
//! the copies are byte-identical and the re-scan keeps the first.

pub mod pool;
pub mod proto;
pub mod worker;

pub use pool::{ShardLaunch, ShardPool};

use dispersion_sim::sink::{parse_ndjson_lossy, Record};
use std::fs;
use std::path::{Path, PathBuf};

/// The checkpoint file shard `shard` keeps for job `id`.
pub fn shard_ckpt_path(dir: &Path, id: u64, shard: u64) -> PathBuf {
    dir.join(format!("job-{id}.shard{shard}.ndjson"))
}

/// Reads an NDJSON checkpoint file, truncating a torn *final* line in
/// place (the expected crash shape — its cell simply re-runs). A missing
/// file is an empty checkpoint.
///
/// # Errors
///
/// Unreadable files, failed truncation, and interior garbage (a torn
/// line followed by more lines means the file is foreign or corrupt, not
/// crash-cut).
pub fn read_checkpoint(path: &Path) -> Result<Vec<Record>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("checkpoint unreadable: {e}"))?;
    let (records, tail) = parse_ndjson_lossy(&text);
    if let Some(tail) = tail {
        if text[tail.offset..].trim_end().contains('\n') {
            return Err(format!(
                "checkpoint corrupt at line {}: {}",
                tail.line, tail.error
            ));
        }
        eprintln!(
            "# serve: {}: dropping torn final checkpoint line {} ({})",
            path.display(),
            tail.line,
            tail.error
        );
        fs::write(path, &text[..tail.offset])
            .map_err(|e| format!("cannot truncate torn checkpoint: {e}"))?;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_checkpoint_is_empty() {
        let p = std::env::temp_dir().join("serve_shard_no_such_file.ndjson");
        let _ = fs::remove_file(&p);
        assert_eq!(read_checkpoint(&p).unwrap(), Vec::<Record>::new());
    }
}
