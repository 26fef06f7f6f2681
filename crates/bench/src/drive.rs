//! Glue between the shared CLI [`Options`] and the sim crate's
//! spec → runner → sink pipeline: every spec-driven binary funnels its
//! [`ExperimentSpec`] through [`run_spec`], which wires up checkpointing
//! (`--resume FILE`) and returns the completed records in cell order.

use crate::Options;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::{parse_ndjson_lossy, Fanout, NdjsonSink, Record};
use dispersion_sim::spec::ExperimentSpec;
use std::fs;
use std::io::BufWriter;

/// Loads the checkpoint records behind `--resume FILE` (an absent file is
/// an empty checkpoint — the first run of a resumable sweep).
///
/// A malformed *final* line is tolerated with a warning: a kill mid-write
/// can tear the last record, and refusing to resume would waste exactly
/// the work the flag exists to save — the torn cell simply re-runs.
///
/// # Panics
///
/// Panics with a usage hint when the file cannot be read or an *interior*
/// line is malformed (that is not a torn tail but a wrong/corrupt file).
pub fn load_checkpoint(path: &str) -> Vec<Record> {
    if !std::path::Path::new(path).exists() {
        return Vec::new();
    }
    let text =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("--resume {path:?}: cannot read: {e}"));
    let (records, tail) = parse_ndjson_lossy(&text);
    if let Some(tail) = tail {
        // only a *final* malformed line is a torn tail; garbage followed by
        // more complete lines means the wrong/corrupt file was passed
        if text[tail.offset..].trim_end().contains('\n') {
            panic!(
                "--resume {path:?}: malformed checkpoint: line {}: {}",
                tail.line, tail.error
            );
        }
        eprintln!(
            "# resume: dropping torn final line of {path} (line {}: {})",
            tail.line, tail.error
        );
        // repair the file on disk too — appending fresh records after the
        // newline-less torn bytes would glue them into one permanently
        // corrupt interior line
        fs::write(path, &text[..tail.offset])
            .unwrap_or_else(|e| panic!("--resume {path:?}: cannot truncate torn tail: {e}"));
    }
    records
}

/// Runs `spec` with `opts.threads` workers, honouring `--resume`:
/// completed cells are restored from the checkpoint file and fresh
/// results appended to it as they stream in (flushed per record, so a
/// killed run restarts where it died). Prints a `# resume:` note on
/// stderr when the flag is active.
///
/// Extra sinks (e.g. a [`MemorySink`](dispersion_sim::sink::MemorySink)
/// for custom rendering) are unnecessary: the returned records are the
/// complete result set in cell order.
pub fn run_spec(opts: &Options, spec: &ExperimentSpec) -> Vec<Record> {
    let mut sink = Fanout::new();
    let mut resume_records = Vec::new();
    if let Some(path) = &opts.resume {
        resume_records = load_checkpoint(path);
        let matched = resume_records
            .iter()
            .filter(|r| r.cell < spec.len() && spec.cell_key(r.cell) == r.key)
            .count();
        eprintln!(
            "# resume: {matched}/{} cells already complete in {path}",
            spec.len()
        );
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("--resume {path:?}: cannot open for append: {e}"));
        sink.push(Box::new(NdjsonSink::checkpoint(BufWriter::new(file))));
    }
    Runner::new(opts.threads).run(spec, &resume_records, &mut sink)
}

/// Prints any error cells as a stderr footnote and returns how many there
/// were — binaries call this once after rendering so aborted cells are
/// impossible to miss but never crash the sweep.
pub fn report_errors(records: &[Record]) -> usize {
    let errs: Vec<&Record> = records.iter().filter(|r| r.error.is_some()).collect();
    for r in &errs {
        eprintln!(
            "# cell {} ({} n={} {}): {}",
            r.cell,
            r.family,
            r.n,
            r.measure,
            r.error.as_deref().unwrap_or_default()
        );
    }
    errs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_core::Process;
    use dispersion_graphs::families::Family;
    use dispersion_sim::spec::{Budget, CellSpec, FamilySpec, Measure};

    fn spec() -> ExperimentSpec {
        let mut s = ExperimentSpec::new(11);
        s.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 24),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(10)),
        );
        s.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 12),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(10)),
        );
        s
    }

    #[test]
    fn checkpoint_roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("drive_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.ndjson");
        let path_str = path.to_str().unwrap().to_string();
        let _ = fs::remove_file(&path);

        let spec = spec();
        let opts = Options {
            resume: Some(path_str.clone()),
            threads: 2,
            ..Options::defaults()
        };
        let first = run_spec(&opts, &spec);
        assert_eq!(first.len(), 2);
        assert_eq!(load_checkpoint(&path_str).len(), 2);

        // second run restores everything and appends nothing
        let second = run_spec(&opts, &spec);
        assert_eq!(second, first);
        assert_eq!(load_checkpoint(&path_str).len(), 2, "no duplicate lines");

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn missing_checkpoint_is_empty() {
        assert!(load_checkpoint("/nonexistent/definitely_not_here.ndjson").is_empty());
    }

    #[test]
    fn torn_final_line_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("drive_torn_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.ndjson");
        let path_str = path.to_str().unwrap().to_string();

        let spec = spec();
        let opts = Options {
            resume: Some(path_str.clone()),
            threads: 1,
            ..Options::defaults()
        };
        let _ = fs::remove_file(&path);
        let full = run_spec(&opts, &spec);
        // simulate a kill mid-write of the last record
        let text = fs::read_to_string(&path).unwrap();
        let torn = &text[..text.len() - 10];
        fs::write(&path, torn).unwrap();
        let loaded = load_checkpoint(&path_str);
        assert_eq!(loaded.len(), 1, "intact first record survives");
        // and a resumed run still reproduces the uninterrupted result
        fs::write(&path, torn).unwrap();
        let restarted = run_spec(&opts, &spec);
        assert_eq!(restarted, full);

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    #[should_panic(expected = "malformed checkpoint")]
    fn corrupt_interior_line_is_fatal() {
        let dir = std::env::temp_dir().join(format!("drive_corrupt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ndjson");
        fs::write(&path, "garbage line\n{\"also\": \"not a record\"}\n").unwrap();
        let path_str = path.to_str().unwrap().to_string();
        let result = std::panic::catch_unwind(|| load_checkpoint(&path_str));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn report_errors_counts() {
        let spec = spec();
        let records = run_spec(&Options::defaults(), &spec);
        assert_eq!(report_errors(&records), 0);
    }
}
