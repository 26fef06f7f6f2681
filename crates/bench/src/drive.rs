//! Glue between the shared CLI [`Options`] and the sim crate's
//! spec → runner → sink pipeline: every spec-driven binary funnels its
//! [`ExperimentSpec`] through [`run_spec`], which wires up checkpointing
//! (`--resume FILE`) and returns the completed records in cell order.

use crate::{usage_error, Options};
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::{load_checkpoint, CheckpointSink, MemorySink, Record};
use dispersion_sim::spec::ExperimentSpec;
use std::path::Path;

/// Runs `spec` with `opts.threads` workers, honouring `--resume`:
/// completed cells are restored from the checkpoint file and fresh
/// results appended to it as they stream in (flushed per record, so a
/// killed run restarts where it died). Prints a `# resume:` note on
/// stderr when the flag is active.
///
/// A `--resume` file that cannot be read, repaired or appended to, or
/// whose interior is not a checkpoint, is a usage error (exit 2) before
/// any cell runs.
pub fn run_spec(opts: &Options, spec: &ExperimentSpec) -> Vec<Record> {
    let runner = Runner::new(opts.threads);
    let Some(path) = &opts.resume else {
        return runner.run(spec, &[], &mut MemorySink::default());
    };
    let (resume, mut sink) = open_resume(Path::new(path))
        .unwrap_or_else(|e| usage_error(&format!("--resume {path:?}: {e}")));
    let matched = resume
        .iter()
        .filter(|r| r.cell < spec.len() && spec.cell_key(r.cell) == r.key)
        .count();
    eprintln!(
        "# resume: {matched}/{} cells already complete in {path}",
        spec.len()
    );
    runner.run(spec, &resume, &mut sink)
}

/// The records behind `--resume FILE` and the sink that appends to it.
fn open_resume(path: &Path) -> Result<(Vec<Record>, CheckpointSink), String> {
    let records = load_checkpoint(path)?;
    let sink = CheckpointSink::create(path).map_err(|e| format!("cannot open for append: {e}"))?;
    Ok((records, sink))
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
    use std::fs;

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
        assert_eq!(load_checkpoint(&path).unwrap().len(), 2);

        // second run restores everything and appends nothing
        let second = run_spec(&opts, &spec);
        assert_eq!(second, first);
        assert_eq!(
            load_checkpoint(&path).unwrap().len(),
            2,
            "no duplicate lines"
        );

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
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
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.len(), 1, "intact first record survives");
        // and a resumed run still reproduces the uninterrupted result
        fs::write(&path, torn).unwrap();
        let restarted = run_spec(&opts, &spec);
        assert_eq!(restarted, full);

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let dir = std::env::temp_dir().join(format!("drive_corrupt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ndjson");
        fs::write(&path, "garbage line\n{\"also\": \"not a record\"}\n").unwrap();
        let err = open_resume(&path)
            .err()
            .expect("corrupt checkpoint accepted");
        assert!(err.contains("corrupt checkpoint at line 1"), "{err}");
        // neither is a directory, which cannot be read or appended to
        assert!(open_resume(&dir).is_err());
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn report_errors_counts() {
        let spec = spec();
        let records = run_spec(&Options::defaults(), &spec);
        assert_eq!(report_errors(&records), 0);
    }
}
