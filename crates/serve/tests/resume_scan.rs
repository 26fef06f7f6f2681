//! Checkpoint-directory re-scan tests: a [`JobStore`] opened over the
//! files a killed server left behind must resume exactly where it
//! stopped — completed cells restored from their checkpoints, unfinished
//! cells re-run — and the final NDJSON must be byte-identical to an
//! uninterrupted run, for *every* possible crash point in the checkpoint
//! file (record boundaries and a torn final line alike), whether worker
//! threads or shard workers finish the job.

use dispersion_graphs::families::Family;
use dispersion_serve::jobs::NextRecord;
use dispersion_serve::metrics::Metrics;
use dispersion_serve::shard::worker::{run_worker, WorkerOptions};
use dispersion_serve::shard::{ShardLaunch, ShardPool};
use dispersion_serve::spec_json::spec_to_json;
use dispersion_serve::JobStore;
use dispersion_sim::experiment::Process;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(42);
    for (family, n, process) in [
        (Family::Complete, 48, Process::Sequential),
        (Family::Cycle, 24, Process::Parallel),
        (Family::Star, 32, Process::Sequential),
        (Family::BinaryTree, 31, Process::Parallel),
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_scan_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Who runs the cells the re-scan left open.
#[derive(Clone, Copy, Debug)]
enum Finish {
    /// One in-process worker thread: with a single job, claims happen in
    /// cell order, so the checkpoint *file* is deterministic too.
    Thread,
    /// Two shard workers on test threads behind a `ShardPool`: the file
    /// records completion order, which may differ from cell order.
    Shards,
}

/// Runs the job to completion in `dir` (submitting if the directory has
/// no spec yet) and returns the drained stream lines, which are in cell
/// order either way.
fn run_to_completion(dir: &Path, finish: Finish) -> (Arc<JobStore>, Vec<String>) {
    let shards = match finish {
        Finish::Thread => 0,
        Finish::Shards => 2,
    };
    let metrics = Arc::new(Metrics::new());
    let store = JobStore::open_with_shards(Some(dir.to_path_buf()), 8, metrics, shards).unwrap();
    let id = if dir.join("job-1.spec.json").exists() {
        1
    } else {
        store.submit(spec()).unwrap()
    };
    let stop: Box<dyn FnOnce()> = match finish {
        Finish::Thread => {
            let workers = store.start_workers(1);
            Box::new(move || {
                for w in workers {
                    w.join().unwrap();
                }
            })
        }
        Finish::Shards => {
            let term = Arc::new(AtomicBool::new(false));
            let mut addrs = Vec::new();
            let mut workers = Vec::new();
            for _ in 0..shards {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                addrs.push(listener.local_addr().unwrap().to_string());
                let term = Arc::clone(&term);
                workers.push(std::thread::spawn(move || {
                    let opts = WorkerOptions {
                        data_dir: PathBuf::new(),
                        drop_after_records: None,
                    };
                    run_worker(&listener, &opts, &term).unwrap();
                }));
            }
            let launch = ShardLaunch::Existing { addrs };
            let pool = ShardPool::start(&store, dir.to_path_buf(), launch, shards).unwrap();
            Box::new(move || {
                pool.stop();
                term.store(true, Ordering::Relaxed);
                for w in workers {
                    w.join().unwrap();
                }
            })
        }
    };
    let mut lines = Vec::new();
    let mut k = 0;
    loop {
        match store.next_record(id, k) {
            NextRecord::Line(line) => {
                lines.push(line);
                k += 1;
            }
            NextRecord::End => break,
            NextRecord::NotFound => panic!("job {id} missing"),
        }
    }
    store.stop();
    stop();
    (store, lines)
}

fn cells_resumed(store: &JobStore) -> u64 {
    store.metrics.cells_resumed.load(Ordering::Relaxed)
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn every_crash_point_resumes_to_identical_ndjson() {
    // reference: one uninterrupted run
    let ref_dir = fresh_dir("ref");
    let (_, ref_lines) = run_to_completion(&ref_dir, Finish::Thread);
    assert_eq!(ref_lines.len(), spec().len());
    let full = std::fs::read_to_string(ref_dir.join("job-1.ndjson")).unwrap();
    let spec_file = std::fs::read_to_string(ref_dir.join("job-1.spec.json")).unwrap();
    assert_eq!(spec_file, spec_to_json(&spec()));

    // crash points: empty file, each record boundary, and a torn final
    // line cut mid-record
    let mut cuts: Vec<usize> = vec![0];
    cuts.extend(
        full.bytes()
            .enumerate()
            .filter(|(_, b)| *b == b'\n')
            .map(|(i, _)| i + 1),
    );
    let mid = full.find('\n').unwrap() + full.len() / 3;
    cuts.push(mid.min(full.len() - 2));

    for finish in [Finish::Thread, Finish::Shards] {
        for (case, &cut) in cuts.iter().enumerate() {
            let dir = fresh_dir(&format!("{finish:?}_cut{case}"));
            std::fs::write(dir.join("job-1.spec.json"), &spec_file).unwrap();
            std::fs::write(dir.join("job-1.ndjson"), &full.as_bytes()[..cut]).unwrap();

            let whole_records = full.as_bytes()[..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            let (store, lines) = run_to_completion(&dir, finish);
            assert_eq!(lines, ref_lines, "{finish:?}: cut at byte {cut} diverged");
            let final_bytes = std::fs::read_to_string(dir.join("job-1.ndjson")).unwrap();
            match finish {
                Finish::Thread => assert_eq!(
                    final_bytes, full,
                    "checkpoint after resume from cut {cut} not bit-identical"
                ),
                // shards may finish the re-run cells in any order
                Finish::Shards => assert_eq!(
                    sorted_lines(&final_bytes),
                    sorted_lines(&full),
                    "sharded checkpoint after resume from cut {cut}"
                ),
            }
            // exactly the whole records before the cut were restored, the
            // rest re-ran
            assert_eq!(
                cells_resumed(&store),
                whole_records as u64,
                "{finish:?}: cut at byte {cut}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Per-shard `job-<id>.shard<i>.ndjson` files of older versions are
/// dropped, not migrated: the re-scan ignores them and their cells re-run.
#[test]
fn legacy_shard_checkpoint_is_ignored() {
    let ref_dir = fresh_dir("legacy_ref");
    let (_, ref_lines) = run_to_completion(&ref_dir, Finish::Thread);

    let dir = fresh_dir("legacy");
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    let legacy: String = ref_lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("job-1.shard0.ndjson"), &legacy).unwrap();

    let (store, lines) = run_to_completion(&dir, Finish::Shards);
    assert_eq!(cells_resumed(&store), 0, "legacy shard file restored");
    assert_eq!(
        lines, ref_lines,
        "stream next to a legacy shard file diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A stored spec of an older version may carry the retired
/// `walker_threads` field: it still loads, keeps its cell keys, and the
/// job resumes from its partial checkpoint to the uninterrupted stream.
#[test]
fn legacy_walker_threads_spec_resumes() {
    let ref_dir = fresh_dir("walker_ref");
    let (_, ref_lines) = run_to_completion(&ref_dir, Finish::Thread);
    let full = std::fs::read_to_string(ref_dir.join("job-1.ndjson")).unwrap();

    let dir = fresh_dir("walker");
    let legacy_spec =
        spec_to_json(&spec()).replace(",\"walk\":", ",\"walker_threads\":4,\"walk\":");
    assert_eq!(legacy_spec.matches("walker_threads").count(), spec().len());
    std::fs::write(dir.join("job-1.spec.json"), &legacy_spec).unwrap();
    let partial: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("job-1.ndjson"), &partial).unwrap();

    let (store, lines) = run_to_completion(&dir, Finish::Thread);
    assert_eq!(cells_resumed(&store), 2, "partial checkpoint not restored");
    assert_eq!(
        lines, ref_lines,
        "legacy spec resumed to a different stream"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("job-1.ndjson")).unwrap(),
        full
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn corrupt_interior_or_spec_skips_that_job_only() {
    let dir = fresh_dir("corrupt");
    // job 1: interior checkpoint corruption (not just a torn tail)
    let garbage = "garbage\n{\"also\": bad\n";
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-1.ndjson"), garbage).unwrap();
    // job 2: healthy
    std::fs::write(dir.join("job-2.spec.json"), spec_to_json(&spec())).unwrap();
    // job 3, the highest id: unparseable spec, next to a tombstone and a
    // checkpoint that a reused id would inherit
    let leftovers = [
        ("job-3.spec.json", "{not a spec"),
        ("job-3.cancelled", ""),
        ("job-3.ndjson", "{\"cell\":0"),
    ];
    for (name, text) in leftovers {
        std::fs::write(dir.join(name), text).unwrap();
    }

    let store = JobStore::open(Some(dir.clone()), 8, Arc::new(Metrics::new())).unwrap();
    assert!(store.status_json(1).is_none(), "corrupt checkpoint kept");
    assert!(store.status_json(3).is_none(), "corrupt spec kept");
    let status = store.status_json(2).unwrap();
    assert!(status.contains("\"status\":\"queued\""), "{status}");
    // new ids start after the highest scanned id, even a skipped one
    let id = store.submit(spec()).unwrap();
    assert_eq!(id, 4);
    store.stop();
    // the skipped jobs' files are left as they were
    assert_eq!(
        std::fs::read_to_string(dir.join("job-1.ndjson")).unwrap(),
        garbage
    );
    for (name, text) in leftovers {
        assert_eq!(
            std::fs::read_to_string(dir.join(name)).unwrap(),
            text,
            "{name} touched"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_marker_keeps_job_inert_across_restart() {
    let dir = fresh_dir("marker");
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-1.cancelled"), b"").unwrap();

    let store = JobStore::open(Some(dir.clone()), 8, Arc::new(Metrics::new())).unwrap();
    let workers = store.start_workers(2);
    let status = store.status_json(1).unwrap();
    assert!(status.contains("\"status\":\"cancelled\""), "{status}");
    // its stream ends immediately and no checkpoint appears
    assert_eq!(store.next_record(1, 0), NextRecord::End);
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!dir.join("job-1.ndjson").exists(), "cancelled job ran");
    store.stop();
    for w in workers {
        w.join().unwrap();
    }

    // a restored tombstone does not occupy a queue slot
    let store = JobStore::open(Some(dir.clone()), 1, Arc::new(Metrics::new())).unwrap();
    assert!(store.submit(spec()).is_ok());
    store.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
