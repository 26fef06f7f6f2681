//! End-to-end determinism gates for the spec → runner → sink pipeline:
//!
//! * a spec-driven `table1`-style run is **bit-identical** across
//!   `--threads 1/2/8`;
//! * a kill + `--resume` restart reproduces the uninterrupted run exactly
//!   (simulated by feeding a partial checkpoint back in);
//! * the NDJSON serialisation of the run matches a committed golden
//!   fixture, so any change to the runner's numerics is a visible diff.
//!
//! Regenerate the fixture after an *intentional* numerics change with
//! `BLESS_RUNNER_GOLDEN=1 cargo test -p dispersion-bench --test
//! runner_determinism`.

use dispersion_core::Process;
use dispersion_graphs::families::Family;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::{parse_ndjson, MemorySink, NdjsonSink, Record};
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};

const GOLDEN_PATH: &str = "tests/fixtures/table1_small_golden.ndjson";

/// The spec under test: a miniature `table1` grid exactly as the binary
/// builds it (same seed formulas), covering an RNG-consuming family
/// (expander), both measures, both backends, and an adaptive cell.
fn table1_small_spec() -> ExperimentSpec {
    let seed = 7u64;
    let mut spec = ExperimentSpec::new(seed);
    for family in [Family::Complete, Family::Cycle, Family::RandomRegular(3)] {
        for (k, size) in [24usize, 48].into_iter().enumerate() {
            let fam = FamilySpec::explicit(family, size)
                .graph_seed(seed ^ (k as u64).wrapping_mul(0x9E37));
            spec.push(
                CellSpec::new(fam.clone(), Measure::Dispersion(Process::Sequential))
                    .budget(Budget::Trials(25))
                    .master_seed(seed.wrapping_add(2 * k as u64 + 1)),
            );
            spec.push(
                CellSpec::new(fam, Measure::ParallelWithHalf)
                    .budget(Budget::Trials(25))
                    .master_seed(seed.wrapping_add(2 * k as u64 + 2)),
            );
        }
    }
    // an implicit-backend cell and an adaptive cell join the grid
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Hypercube, 64),
            Measure::Dispersion(Process::Parallel),
        )
        .budget(Budget::Trials(25)),
    );
    spec.push(
        CellSpec::new(
            FamilySpec::explicit(Family::Complete, 64),
            Measure::Dispersion(Process::Sequential),
        )
        .budget(Budget::CiHalfWidth {
            rel: 0.1,
            min_trials: 16,
            max_trials: 800,
        }),
    );
    spec
}

/// Uniform/CTU counterpart grid: the event-driven schedules, on explicit
/// and implicit backends, so the skip/clock samplers are covered by the
/// same thread-count and kill+resume bit-equality gates as the cheap
/// schedules.
fn event_driven_spec() -> ExperimentSpec {
    let seed = 11u64;
    let mut spec = ExperimentSpec::new(seed);
    for (k, (family, size)) in [
        (Family::Complete, 40usize),
        (Family::Cycle, 32),
        (Family::Torus2d, 36),
        (Family::Path, 24),
    ]
    .into_iter()
    .enumerate()
    {
        let fam = FamilySpec::explicit(family, size);
        spec.push(
            CellSpec::new(fam.clone(), Measure::Dispersion(Process::Uniform))
                .budget(Budget::Trials(12))
                .master_seed(seed.wrapping_add(10 * k as u64 + 1)),
        );
        spec.push(
            CellSpec::new(fam, Measure::Dispersion(Process::Ctu))
                .budget(Budget::Trials(12))
                .master_seed(seed.wrapping_add(10 * k as u64 + 2)),
        );
    }
    // implicit backends exercise the same samplers through the
    // monomorphised loop, plus a steps measure for per-particle coverage
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Cycle, 64),
            Measure::Dispersion(Process::Uniform),
        )
        .budget(Budget::Trials(12)),
    );
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Torus2d, 64),
            Measure::TotalSteps(Process::Uniform),
        )
        .budget(Budget::Trials(12)),
    );
    spec.push(
        CellSpec::new(
            FamilySpec::implicit(Family::Hypercube, 64),
            Measure::Dispersion(Process::Ctu),
        )
        .budget(Budget::Trials(12)),
    );
    spec
}

fn run_with(threads: usize, resume: &[Record]) -> (Vec<Record>, MemorySink) {
    let mut sink = MemorySink::default();
    let records = Runner::new(threads).run(&table1_small_spec(), resume, &mut sink);
    (records, sink)
}

fn run_event_driven(threads: usize, resume: &[Record]) -> (Vec<Record>, MemorySink) {
    let mut sink = MemorySink::default();
    let records = Runner::new(threads).run(&event_driven_spec(), resume, &mut sink);
    (records, sink)
}

#[test]
fn bit_identical_across_thread_counts() {
    let (r1, _) = run_with(1, &[]);
    let (r2, _) = run_with(2, &[]);
    let (r8, _) = run_with(8, &[]);
    // Record derives PartialEq over raw f64s: this is bit-level equality
    assert_eq!(r1, r2);
    assert_eq!(r1, r8);
}

#[test]
fn kill_and_resume_restart_is_bit_identical() {
    let (full, _) = run_with(4, &[]);
    // simulate a kill after an arbitrary prefix of cells checkpointed
    for cut in [1, 5, full.len()] {
        let checkpoint: Vec<Record> = full[..cut].to_vec();
        let (restarted, sink) = run_with(3, &checkpoint);
        assert_eq!(restarted, full, "restart after {cut} cells diverged");
        assert_eq!(sink.resumed, cut);
    }
}

#[test]
fn resume_roundtrips_through_ndjson_text() {
    // the same restart, but the checkpoint travels through its on-disk
    // NDJSON form — float exactness end to end
    let (full, _) = run_with(2, &[]);
    let text: String = full
        .iter()
        .map(|r| format!("{}\n", r.to_json_line()))
        .collect();
    let parsed = parse_ndjson(&text).unwrap();
    assert_eq!(parsed, full);
    let (restarted, sink) = run_with(4, &parsed);
    assert_eq!(restarted, full);
    assert_eq!(sink.resumed, full.len());
    assert_eq!(sink.started, 0, "nothing re-ran");
}

#[test]
fn checkpoint_sink_only_records_fresh_cells() {
    let (full, _) = run_with(2, &[]);
    let mut ck = NdjsonSink::checkpoint(Vec::new());
    let checkpoint: Vec<Record> = full[..3].to_vec();
    Runner::new(2).run(&table1_small_spec(), &checkpoint, &mut ck);
    let appended = parse_ndjson(&String::from_utf8(ck.into_inner()).unwrap()).unwrap();
    assert_eq!(
        appended.len(),
        full.len() - 3,
        "resumed cells not re-written"
    );
    let mut union = checkpoint;
    union.extend(appended);
    union.sort_by_key(|r| r.cell);
    assert_eq!(union, full, "checkpoint file union reproduces the run");
}

#[test]
fn event_driven_cells_bit_identical_across_thread_counts() {
    let (r1, _) = run_event_driven(1, &[]);
    let (r2, _) = run_event_driven(2, &[]);
    let (r8, _) = run_event_driven(8, &[]);
    assert_eq!(r1, r2);
    assert_eq!(r1, r8);
    // sanity: uniform dispersion times (ticks) are positive and large
    // relative to n — the event-driven path really ran the uniform clock
    assert!(r1
        .iter()
        .zip(event_driven_spec().cells.iter())
        .any(
            |(r, c)| matches!(c.measure, Measure::Dispersion(Process::Uniform))
                && r.stats[0].mean > 64.0
        ));
}

#[test]
fn event_driven_kill_and_resume_is_bit_identical() {
    let (full, _) = run_event_driven(4, &[]);
    for cut in [1, 4, full.len()] {
        let checkpoint: Vec<Record> = full[..cut].to_vec();
        let (restarted, sink) = run_event_driven(3, &checkpoint);
        assert_eq!(restarted, full, "restart after {cut} cells diverged");
        assert_eq!(sink.resumed, cut);
    }
}

#[test]
fn event_driven_resume_roundtrips_through_ndjson_text() {
    let (full, _) = run_event_driven(2, &[]);
    let text: String = full
        .iter()
        .map(|r| format!("{}\n", r.to_json_line()))
        .collect();
    let parsed = parse_ndjson(&text).unwrap();
    assert_eq!(parsed, full);
    let (restarted, sink) = run_event_driven(4, &parsed);
    assert_eq!(restarted, full);
    assert_eq!(sink.resumed, full.len());
    assert_eq!(sink.started, 0, "nothing re-ran");
}

#[test]
fn matches_golden_fixture() {
    let (records, _) = run_with(4, &[]);
    let lines: String = records
        .iter()
        .map(|r| format!("{}\n", r.to_json_line()))
        .collect();
    if std::env::var_os("BLESS_RUNNER_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(GOLDEN_PATH, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {GOLDEN_PATH} ({e}); regenerate with \
             BLESS_RUNNER_GOLDEN=1 cargo test -p dispersion-bench --test runner_determinism"
        )
    });
    assert_eq!(
        lines, golden,
        "runner output diverged from the golden fixture — if the numerics \
         change was intentional, re-bless the fixture"
    );
}
