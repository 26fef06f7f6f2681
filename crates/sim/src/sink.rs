//! Pluggable result sinks for the streaming runner, and the checkpoint
//! file they append to.
//!
//! The [`Runner`](crate::runner::Runner) pushes [`Event`]s — cell
//! activation, round-boundary progress, and per-cell completion
//! [`Record`]s — into one [`Sink`]:
//!
//! * [`MemorySink`] — collect records in memory (what the binaries use to
//!   build their bespoke tables);
//! * [`CheckpointSink`] — append each freshly computed record to an NDJSON
//!   checkpoint file, skipping records that were resumed from it, so
//!   `--resume FILE` can append to the same file it loaded.
//!
//! A checkpoint file is read by [`load_checkpoint`] and written by
//! [`append_record`], one record per line, flushed as it lands. The CLI's
//! `--resume` and the `dispersion-serve` job store both go through these
//! two functions, so they tolerate the same crash shape: a torn final line
//! is cut off and its cell re-runs.
//!
//! Records round-trip through NDJSON *exactly*: floats are serialised with
//! Rust's shortest-roundtrip formatting and parsed back bit-identically,
//! which is what makes kill + `--resume` restarts reproduce the
//! uninterrupted run. The value type and the scalar encoders live in the
//! shared [`crate::json`] module — the same codec the `dispersion-serve`
//! HTTP layer speaks.

use crate::json::{fmt_f64, fmt_str, Json};
use crate::stats::Online;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Summary of one streamed statistic of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct StatSummary {
    /// Statistic name (e.g. `"time"`, `"t_half"`).
    pub name: String,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub var: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl StatSummary {
    /// Builds a summary from a one-pass accumulator.
    pub fn from_online(name: &str, o: &Online) -> Self {
        StatSummary {
            name: name.to_string(),
            mean: o.mean(),
            var: o.var(),
            min: o.min(),
            max: o.max(),
        }
    }
}

/// The completed result of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Cell id (declaration order in the spec).
    pub cell: usize,
    /// Resume fingerprint
    /// ([`ExperimentSpec::cell_key`](crate::spec::ExperimentSpec::cell_key)).
    pub key: String,
    /// Family label.
    pub family: String,
    /// Resolved vertex count.
    pub n: usize,
    /// Measure label.
    pub measure: String,
    /// Backend label (`"explicit"` / `"implicit"`).
    pub backend: String,
    /// Trials completed (may undershoot the budget on error cells).
    pub trials: u64,
    /// One summary per streamed statistic.
    pub stats: Vec<StatSummary>,
    /// Why the cell aborted, when it did.
    pub error: Option<String>,
}

impl Record {
    /// Looks a statistic up by name.
    pub fn stat(&self, name: &str) -> Option<&StatSummary> {
        self.stats.iter().find(|s| s.name == name)
    }

    /// Mean of a named statistic (`NaN` when absent).
    pub fn mean(&self, name: &str) -> f64 {
        self.stat(name).map_or(f64::NAN, |s| s.mean)
    }

    /// Standard error of the mean of a named statistic (`NaN` when
    /// absent, `0` below two trials).
    pub fn sem(&self, name: &str) -> f64 {
        match self.stat(name) {
            None => f64::NAN,
            Some(s) if self.trials == 0 => {
                debug_assert!(s.var == 0.0 || s.var.is_nan());
                0.0
            }
            Some(s) => (s.var / self.trials as f64).sqrt(),
        }
    }

    /// Half-width of the 95% CI of a named statistic.
    pub fn ci95_half(&self, name: &str) -> f64 {
        1.96 * self.sem(name)
    }

    /// Serialises to one NDJSON line (no trailing newline). Floats use
    /// shortest-roundtrip formatting, so [`Record::from_json_line`]
    /// restores them bit-identically.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str(&format!(
            "{{\"cell\":{},\"key\":{},\"family\":{},\"n\":{},\"measure\":{},\"backend\":{},\"trials\":{},\"error\":{},\"stats\":[",
            self.cell,
            fmt_str(&self.key),
            fmt_str(&self.family),
            self.n,
            fmt_str(&self.measure),
            fmt_str(&self.backend),
            self.trials,
            match &self.error {
                None => "null".to_string(),
                Some(e) => fmt_str(e),
            },
        ));
        for (i, st) in self.stats.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stat\":{},\"mean\":{},\"var\":{},\"min\":{},\"max\":{}}}",
                fmt_str(&st.name),
                fmt_f64(st.mean),
                fmt_f64(st.var),
                fmt_f64(st.min),
                fmt_f64(st.max),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses one NDJSON line produced by [`Record::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let obj = v.as_obj().ok_or("record line is not a JSON object")?;
        let field = |k: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let num = |k: &str| -> Result<f64, String> {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("{k:?} not a number"))
        };
        let string = |k: &str| -> Result<String, String> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{k:?} not a string"))
        };
        let stats_json = field("stats")?.as_arr().ok_or("\"stats\" not an array")?;
        let mut stats = Vec::with_capacity(stats_json.len());
        for sj in stats_json {
            let so = sj.as_obj().ok_or("stat entry not an object")?;
            let sfield = |k: &str| -> Result<f64, String> {
                so.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_num())
                    .ok_or_else(|| format!("stat field {k:?} missing or not a number"))
            };
            let name = so
                .iter()
                .find(|(key, _)| key == "stat")
                .and_then(|(_, v)| v.as_str())
                .ok_or("stat entry missing \"stat\" name")?
                .to_string();
            stats.push(StatSummary {
                name,
                mean: sfield("mean")?,
                var: sfield("var")?,
                min: sfield("min")?,
                max: sfield("max")?,
            });
        }
        let error = match field("error")? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return Err("\"error\" must be null or a string".into()),
        };
        Ok(Record {
            cell: num("cell")? as usize,
            key: string("key")?,
            family: string("family")?,
            n: num("n")? as usize,
            measure: string("measure")?,
            backend: string("backend")?,
            trials: num("trials")? as u64,
            stats,
            error,
        })
    }
}

/// A malformed tail found (and skipped) by [`parse_ndjson_lossy`].
#[derive(Clone, Debug, PartialEq)]
// LINT: unused-pub-ok — returned by the public `parse_ndjson_lossy`
pub struct TornTail {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// Byte offset of that line's start — the prefix `text[..offset]` is
    /// the well-formed part a repair should truncate the file to.
    pub offset: usize,
    /// Why the line failed to parse.
    pub error: String,
}

/// Crash-tolerant checkpoint parse: reads records up to the first
/// malformed line and reports that line as a [`TornTail`] instead of
/// failing — a process killed mid-`write` leaves exactly this shape
/// (complete lines, then one torn line at the end). Everything after the
/// torn line is ignored; callers that find interior garbage followed by
/// more data are looking at a corrupt (not torn) file and can tell by
/// checking `offset` against the text length.
pub fn parse_ndjson_lossy(text: &str) -> (Vec<Record>, Option<TornTail>) {
    let mut records = Vec::new();
    let mut offset = 0;
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            match Record::from_json_line(line) {
                Ok(r) => records.push(r),
                Err(e) => {
                    return (
                        records,
                        Some(TornTail {
                            line: i + 1,
                            offset,
                            error: e,
                        }),
                    )
                }
            }
        }
        // `lines()` strips the terminator; step past it when present
        offset += line.len();
        if text[offset..].starts_with("\r\n") {
            offset += 2;
        } else if text[offset..].starts_with('\n') {
            offset += 1;
        }
    }
    (records, None)
}

/// Loads the records of a checkpoint file. A missing file is an empty
/// checkpoint (the first run of a resumable sweep or job).
///
/// A malformed *final* line is the shape a kill mid-write leaves: it is
/// cut off the file in place, with a note on stderr, and its cell simply
/// re-runs. Appending after the torn bytes instead would glue the next
/// record onto them into a permanently corrupt interior line.
///
/// # Errors
///
/// A file that cannot be read (a directory, say) or truncated, and a
/// malformed line followed by more lines: that is a foreign or corrupt
/// file, not a crash-cut one.
pub fn load_checkpoint(path: &Path) -> Result<Vec<Record>, String> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read checkpoint: {e}")),
    };
    let (records, tail) = parse_ndjson_lossy(&text);
    if let Some(tail) = tail {
        if text[tail.offset..].trim_end().contains('\n') {
            return Err(format!(
                "corrupt checkpoint at line {}: {}",
                tail.line, tail.error
            ));
        }
        eprintln!(
            "# checkpoint {}: dropping torn final line {} ({})",
            path.display(),
            tail.line,
            tail.error
        );
        fs::write(path, &text[..tail.offset])
            .map_err(|e| format!("cannot truncate torn checkpoint: {e}"))?;
    }
    Ok(records)
}

/// Appends one record line to a checkpoint file (created if missing) and
/// flushes it. Records are rare (one per cell), so durability beats
/// batching: a killed run loses at most the line being written.
///
/// # Errors
///
/// The file cannot be opened for append or written.
pub fn append_record(path: &Path, record: &Record) -> io::Result<()> {
    let mut line = record.to_json_line();
    line.push('\n');
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(line.as_bytes())?;
    f.flush()
}

/// A streamed runner event.
#[derive(Clone, Debug)]
pub enum Event<'a> {
    /// A cell was activated (its instance resolved, trials starting).
    Started {
        /// Cell id.
        cell: usize,
        /// The cell's fingerprint key.
        key: &'a str,
    },
    /// A work chunk of a cell landed (chunk-grained progress: what a
    /// serving layer aggregates into live trial counts and steps/s).
    /// Counts are *deltas* for the one chunk, not cumulative totals.
    Chunk {
        /// Cell id.
        cell: usize,
        /// Trials the chunk completed.
        trials: u64,
        /// Walk steps those trials performed.
        steps: u64,
    },
    /// An adaptive cell finished a round without meeting its budget yet.
    Progress {
        /// Cell id.
        cell: usize,
        /// Trials completed so far.
        trials_done: u64,
        /// Current relative CI half-width of the primary statistic.
        relative_ci: f64,
    },
    /// A cell completed (successfully or with an error record).
    Done {
        /// The completed record.
        record: &'a Record,
        /// Whether it was restored from a checkpoint rather than run.
        resumed: bool,
    },
}

/// Receives streamed events from the runner. Implementations must be
/// `Send`: the runner's worker threads emit events under an internal lock.
pub trait Sink: Send {
    /// Handles one event.
    fn on_event(&mut self, event: &Event);

    /// Called once after every cell has completed.
    fn finish(&mut self) {}
}

/// Collects records (and counts the other events) in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Completed records, sorted by cell id at [`Sink::finish`].
    pub records: Vec<Record>,
    /// Number of `Started` events seen.
    pub started: usize,
    /// Number of `Chunk` events seen.
    pub chunks: usize,
    /// Trials summed over `Chunk` events.
    pub trials: u64,
    /// Walk steps summed over `Chunk` events.
    pub steps: u64,
    /// Number of `Progress` events seen.
    pub progress: usize,
    /// Number of resumed records among `records`.
    pub resumed: usize,
}

impl Sink for MemorySink {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Started { .. } => self.started += 1,
            Event::Chunk { trials, steps, .. } => {
                self.chunks += 1;
                self.trials += trials;
                self.steps += steps;
            }
            Event::Progress { .. } => self.progress += 1,
            Event::Done { record, resumed } => {
                self.records.push((*record).clone());
                if *resumed {
                    self.resumed += 1;
                }
            }
        }
    }

    fn finish(&mut self) {
        self.records.sort_by_key(|r| r.cell);
    }
}

/// Appends every freshly computed record to a checkpoint file through
/// [`append_record`]. Resumed records are skipped: they are already in the
/// file the run resumed from.
pub struct CheckpointSink {
    path: PathBuf,
}

impl CheckpointSink {
    /// A sink appending to `path`, which is created if missing.
    ///
    /// # Errors
    ///
    /// `path` cannot be opened for append — reported up front rather than
    /// after the first cell has run.
    pub fn create(path: &Path) -> io::Result<Self> {
        OpenOptions::new().create(true).append(true).open(path)?;
        Ok(CheckpointSink {
            path: path.to_path_buf(),
        })
    }
}

impl Sink for CheckpointSink {
    fn on_event(&mut self, event: &Event) {
        if let Event::Done {
            record,
            resumed: false,
        } = event
        {
            if let Err(e) = append_record(&self.path, record) {
                eprintln!(
                    "# checkpoint {}: cannot append cell {}: {e}",
                    self.path.display(),
                    record.cell
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            cell: 3,
            key: "cycle:n32:seq:explicit:t100:m2a:g0".into(),
            family: "cycle".into(),
            n: 32,
            measure: "seq".into(),
            backend: "explicit".into(),
            trials: 100,
            stats: vec![
                StatSummary {
                    name: "time".into(),
                    mean: 462.512_345_678_901,
                    var: 0.1 + 0.2, // deliberately non-representable
                    min: 101.0,
                    max: 903.0,
                },
                StatSummary {
                    name: "t_half".into(),
                    mean: 30.5,
                    var: 2.25,
                    min: 21.0,
                    max: 44.0,
                },
            ],
            error: None,
        }
    }

    #[test]
    fn record_json_roundtrip_is_exact() {
        let r = sample_record();
        let line = r.to_json_line();
        let back = Record::from_json_line(&line).unwrap();
        assert_eq!(back, r);
        // and a second roundtrip is stable
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn record_json_roundtrip_with_error_and_weird_strings() {
        let mut r = sample_record();
        r.error = Some("parallel run exceeded step cap 4 with 3 \"particles\"\nunsettled".into());
        r.key = "weird\\key\twith\u{1F980}unicode".into();
        r.stats.clear();
        r.trials = 0;
        let back = Record::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        let mut r = sample_record();
        r.stats[0].min = f64::INFINITY;
        r.stats[0].max = f64::NEG_INFINITY;
        let back = Record::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.stats[0].min, f64::INFINITY);
        assert_eq!(back.stats[0].max, f64::NEG_INFINITY);
    }

    #[test]
    fn record_sem_and_ci() {
        let r = sample_record();
        let sem = (r.stats[1].var / 100.0f64).sqrt();
        assert!((r.sem("t_half") - sem).abs() < 1e-15);
        assert!((r.ci95_half("t_half") - 1.96 * sem).abs() < 1e-15);
        assert!(r.sem("nope").is_nan());
        assert!(r.mean("nope").is_nan());
    }

    #[test]
    fn memory_sink_sorts_and_counts() {
        let mut r1 = sample_record();
        r1.cell = 7;
        let r2 = sample_record();
        let mut m = MemorySink::default();
        m.on_event(&Event::Started { cell: 3, key: "k" });
        m.on_event(&Event::Progress {
            cell: 3,
            trials_done: 30,
            relative_ci: 0.1,
        });
        m.on_event(&Event::Done {
            record: &r1,
            resumed: true,
        });
        m.on_event(&Event::Done {
            record: &r2,
            resumed: false,
        });
        m.finish();
        assert_eq!(m.started, 1);
        assert_eq!(m.progress, 1);
        assert_eq!(m.resumed, 1);
        assert_eq!(m.records[0].cell, 3);
        assert_eq!(m.records[1].cell, 7);
    }

    #[test]
    fn lossy_parse_stops_at_torn_tail() {
        let r = sample_record();
        let line = r.to_json_line();
        // a kill mid-write tears the final line at an arbitrary byte
        let torn = format!("{line}\n{line}\n{}", &line[..line.len() / 2]);
        let (records, tail) = parse_ndjson_lossy(&torn);
        assert_eq!(records.len(), 2);
        let tail = tail.expect("torn tail detected");
        assert_eq!(tail.line, 3);
        assert_eq!(&torn[..tail.offset], &format!("{line}\n{line}\n"));
        // a clean file has no tail
        let (records, tail) = parse_ndjson_lossy(&format!("{line}\n\n{line}\n"));
        assert_eq!(records.len(), 2);
        assert!(tail.is_none());
        // empty input parses to nothing
        assert_eq!(parse_ndjson_lossy(""), (Vec::new(), None));
    }

    /// A fresh scratch path for one test's checkpoint file.
    fn scratch(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("sim_ck_{tag}_{}", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn missing_checkpoint_is_empty() {
        assert_eq!(load_checkpoint(&scratch("missing")), Ok(Vec::new()));
    }

    #[test]
    fn torn_final_line_is_truncated_on_disk() {
        let line = sample_record().to_json_line();
        let path = scratch("torn");
        fs::write(&path, format!("{line}\n{}", &line[..line.len() / 2])).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().len(), 1);
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{line}\n"));
        // an append now starts on a fresh line
        append_record(&path, &sample_record()).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interior_garbage_is_an_error() {
        let line = sample_record().to_json_line();
        let path = scratch("interior");
        let text = format!("{line}\nnot json\n{line}\n");
        fs::write(&path, &text).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(fs::read_to_string(&path).unwrap(), text, "left as it was");
        let _ = fs::remove_file(&path);
        // a directory is no checkpoint either
        assert!(load_checkpoint(&std::env::temp_dir()).is_err());
    }

    #[test]
    fn crlf_lines_load() {
        let line = sample_record().to_json_line();
        let path = scratch("crlf");
        fs::write(&path, format!("{line}\r\n{line}\r\n{}", &line[..9])).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), vec![sample_record(); 2]);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            format!("{line}\r\n{line}\r\n")
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_sink_appends_only_fresh_records() {
        let path = scratch("sink");
        let mut sink = CheckpointSink::create(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "", "created empty");
        let r = sample_record();
        for resumed in [true, false] {
            sink.on_event(&Event::Done {
                record: &r,
                resumed,
            });
        }
        assert_eq!(load_checkpoint(&path).unwrap(), vec![r]);
        let _ = fs::remove_file(&path);
        assert!(CheckpointSink::create(&std::env::temp_dir()).is_err());
    }
}
