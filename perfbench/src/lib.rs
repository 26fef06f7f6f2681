//! The dispersion-repro benchmark: three workloads that drive the program
//! only through its stable surfaces — spec JSON parsed by
//! `serve::spec_json::spec_from_json`, executed by `sim::Runner` /
//! `sim::runner::run_cell`, and served over HTTP by `serve::{Server,
//! Client}` — plus a traced run that breaks the end-to-end figures into
//! per-layer costs. See `README.md` next to this crate for the workload
//! rationale and the layer → end-to-end metric map.

#![forbid(unsafe_code)]

pub mod layers;
pub mod runner_wl;
pub mod serve_wl;
pub mod specs;
pub mod stats;
pub mod trace;

use dispersion_sim::sink::Record;
use dispersion_sim::spec::{Budget, CellSpec};
use stats::{median, quantile, Dist, Paired};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Trace;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many short cells over the Table 1 families × four schedules.
    Table1Sweep,
    /// The job server with in-process workers.
    ServeMixed,
    /// The job server over two shard-worker processes.
    ServeSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Sweep,
        Workload::ServeMixed,
        Workload::ServeSharded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Sweep => "table1_sweep",
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeSharded => "serve_sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn shards(self) -> Option<u64> {
        match self {
            Workload::ServeMixed => Some(0),
            Workload::ServeSharded => Some(2),
            _ => None,
        }
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Sizes small enough for a debug-build test.
    Tiny,
}

/// How sharded servers get their worker processes.
#[derive(Clone, Debug)]
pub enum WorkerLaunch {
    /// Spawn the `dispersion-shard-worker` binary at this path.
    Binary(PathBuf),
    /// Run the worker loop on threads of this process (smoke test).
    InThread,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; sets how much work a run does.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for data directories, span dumps and reports.
    pub out_dir: PathBuf,
    /// Shard worker source for `serve_sharded`.
    pub worker: WorkerLaunch,
    /// Corrupt one received stream before checking it (smoke test).
    pub corrupt_stream: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Nominal reference-machine seconds per round, from which a run sizes
/// its work to last about `--seconds`: a `table1_sweep` job, a serve
/// round in-process and sharded.
const TABLE1_JOB_S: f64 = 0.75;
const SERVE_ROUND_S: f64 = 1.15;
const SHARDED_ROUND_S: f64 = 1.95;

/// What one job looked like from the outside.
#[derive(Clone, Debug)]
pub struct JobObs {
    /// Seconds from submission to the first record.
    pub first_record_s: f64,
    /// Seconds from submission to the last record.
    pub job_s: f64,
}

/// One round of the timed phase: a unit of work that repeats. Its rates
/// are the per-round spread the report gives next to each total rate.
#[derive(Clone, Debug, Default)]
pub struct RoundObs {
    /// Wall-clock seconds of the round.
    pub wall_s: f64,
    /// Walk steps performed in the round.
    pub steps: u64,
    /// Trials completed in the round.
    pub trials: u64,
    /// Records produced in the round.
    pub records: u64,
    /// Whether the round ran traced.
    pub traced: bool,
}

/// Which rounds of a traced run's timed phase are traced: pairs of an
/// untraced and a traced round, in the order untraced-traced,
/// traced-untraced, … so that drift over the run cancels out of the
/// pairs behind `trace.overhead_frac`.
pub fn traced_round(r: usize) -> bool {
    matches!(r % 4, 1 | 2)
}

/// The outcome of one timed phase.
#[derive(Clone, Debug)]
pub struct PassOut {
    /// Wall-clock seconds of the timed phase.
    pub wall_s: f64,
    /// Peak resident set of this process at the end of the phase, MiB.
    pub rss_mib: f64,
    /// Operations attempted (jobs, and probe checks in a traced run).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// Per-job observations used for latencies.
    pub jobs: Vec<JobObs>,
    /// Per-round totals used for rates.
    pub rounds: Vec<RoundObs>,
    /// `POST /jobs` round trips (serve workloads).
    pub submit_s: Vec<f64>,
    /// First-record latency minus the first cell's `run_cell` time.
    pub queue_wait_s: Vec<f64>,
}

impl PassOut {
    /// An empty outcome for a phase that took `wall_s`.
    pub fn new(wall_s: f64, rss_mib: f64) -> Self {
        PassOut {
            wall_s,
            rss_mib,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            jobs: Vec::new(),
            rounds: Vec::new(),
            submit_s: Vec::new(),
            queue_wait_s: Vec::new(),
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// Checks a record against its cell: no error, the budget honoured, and
/// finite statistics.
///
/// # Errors
///
/// The first problem found.
pub fn check_record(r: &Record, c: &CellSpec) -> Result<(), String> {
    if let Some(e) = &r.error {
        return Err(format!("cell {} error record: {e}", r.cell));
    }
    let ok = match c.budget {
        Budget::Trials(t) => r.trials == t as u64,
        Budget::CiHalfWidth {
            min_trials,
            max_trials,
            ..
        } => (min_trials as u64..=max_trials as u64).contains(&r.trials),
    };
    if !ok {
        return Err(format!(
            "cell {}: {} trials outside its budget",
            r.cell, r.trials
        ));
    }
    if r.n == 0
        || r.stats
            .iter()
            .any(|s| !(s.mean.is_finite() && s.var.is_finite()))
    {
        return Err(format!("cell {}: degenerate statistics", r.cell));
    }
    Ok(())
}

/// `VmHWM` of this process in MiB (shard worker processes excluded).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics, in report order, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("steps_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("first_record_p50_s", "s"),
    ("first_record_p90_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
    /// The sample behind the value, when it is an order statistic.
    pub dist: Option<Dist>,
}

impl Metric {
    fn new(name: &str, unit: &str, value: f64, dist: Option<Dist>) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            dist,
        }
    }
}

/// The outcome of a whole run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Free-form notes for the report (sizes, sample counts, paths).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The end-to-end metrics of one untraced pass. Rates are totals over
/// the timed phase (the per-round rates go into the report as their
/// spread); latencies are percentiles over jobs.
fn end_to_end(setup: &[f64], pass: &PassOut) -> Vec<Metric> {
    let rate = |count: &dyn Fn(&RoundObs) -> u64| {
        let total: u64 = pass.rounds.iter().map(count).sum();
        let per_round: Vec<f64> = pass
            .rounds
            .iter()
            .map(|r| count(r) as f64 / r.wall_s)
            .collect();
        (total as f64 / pass.wall_s, Some(Dist::of(&per_round)))
    };
    let (steps, steps_d) = rate(&|r| r.steps);
    let (trials, trials_d) = rate(&|r| r.trials);
    let (records, records_d) = rate(&|r| r.records);
    let first: Vec<f64> = pass.jobs.iter().map(|j| j.first_record_s).collect();
    let whole: Vec<f64> = pass.jobs.iter().map(|j| j.job_s).collect();
    vec![
        Metric::new("steps_per_s", "1/s", steps, steps_d),
        Metric::new("trials_per_s", "1/s", trials, trials_d),
        Metric::new("records_per_s", "1/s", records, records_d),
        Metric::new("wall_s", "s", pass.wall_s, None),
        Metric::new("setup_s", "s", median(setup), Some(Dist::of(setup))),
        Metric::new(
            "first_record_p50_s",
            "s",
            median(&first),
            Some(Dist::of(&first)),
        ),
        Metric::new(
            "first_record_p90_s",
            "s",
            quantile(&first, 0.9),
            Some(Dist::of(&first)),
        ),
        Metric::new("job_p50_s", "s", median(&whole), Some(Dist::of(&whole))),
        Metric::new(
            "job_p90_s",
            "s",
            quantile(&whole, 0.9),
            Some(Dist::of(&whole)),
        ),
        Metric::new("peak_rss_mib", "MiB", pass.rss_mib, None),
    ]
}

/// How many rounds one timed phase runs: enough work to last about
/// `seconds` on the reference machine. A traced run's phase alternates
/// untraced and traced rounds, so its count is even and it costs about
/// as much as an untraced run's.
fn rounds_for(cfg: &Config) -> usize {
    let s = cfg.seconds;
    let (unit, min) = match cfg.workload {
        Workload::Table1Sweep => (TABLE1_JOB_S, 3.0),
        // ≥ 3 rounds of 96 small jobs: p90 latencies keep ≥ 10 samples
        // beyond them
        Workload::ServeMixed => (SERVE_ROUND_S, 3.0),
        Workload::ServeSharded => (SHARDED_ROUND_S, 3.0),
    };
    let rounds = match cfg.scale {
        Scale::Tiny => 2,
        Scale::Full => (s / unit).round().max(min) as usize,
    };
    if cfg.trace {
        rounds.max(4).next_multiple_of(2)
    } else {
        rounds
    }
}

/// A workload's set-up product.
enum Env {
    Runner(runner_wl::Env),
    Serve(serve_wl::Env),
}

fn setup_once(cfg: &Config, k: usize, warm_want: &[String]) -> Result<Env, String> {
    match cfg.workload.shards() {
        None => runner_wl::setup(cfg).map(Env::Runner),
        Some(shards) => {
            serve_wl::setup(cfg, shards, &format!("setup{k}"), warm_want).map(Env::Serve)
        }
    }
}

fn timed(cfg: &Config, env: &Env, trace: Option<&Trace>) -> Result<PassOut, String> {
    let rounds = rounds_for(cfg);
    match env {
        Env::Runner(e) => Ok(runner_wl::timed_pass(e, rounds, trace)),
        Env::Serve(e) => {
            let traffic = serve_wl::traffic(cfg, rounds, trace.is_some());
            serve_wl::timed_pass(e, &traffic, trace, cfg.corrupt_stream)
        }
    }
}

/// Runs one benchmark run: set-ups, the timed phase, and in a traced run
/// a traced repeat of the phase plus the layer probes.
///
/// # Errors
///
/// Anything that stops the run from producing metrics at all (as
/// opposed to failed checks, which are counted).
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("out dir: {e}"))?;
    let warm_want = match cfg.workload.shards() {
        Some(_) => serve_wl::warmup_reference()?,
        None => Vec::new(),
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env = None;
    for k in 0..SETUPS {
        if let Some(Env::Serve(old)) = env.take() {
            serve_wl::teardown(old);
        }
        let t0 = std::time::Instant::now();
        env = Some(setup_once(cfg, k, &warm_want)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let result = measure(cfg, &env, &setup_s);
    if let Env::Serve(e) = env {
        serve_wl::teardown(e);
    }
    result
}

fn measure(cfg: &Config, env: &Env, setup_s: &[f64]) -> Result<RunResult, String> {
    let tr = cfg.trace.then(Trace::new);
    let pass = timed(cfg, env, tr.as_ref())?;
    let mut result = RunResult {
        attempted: pass.attempted,
        failed: pass.failed,
        failures: pass.failures.clone(),
        metrics: Vec::new(),
        notes: vec![
            ("jobs".to_string(), pass.jobs.len().to_string()),
            ("rounds".to_string(), pass.rounds.len().to_string()),
            ("setups".to_string(), setup_s.len().to_string()),
            (
                "peak_rss_scope".to_string(),
                "benchmark process only; shard worker processes excluded".to_string(),
            ),
        ],
    };
    match &tr {
        None => result.metrics = end_to_end(setup_s, &pass),
        Some(tr) => layer_metrics(cfg, tr, &pass, &mut result)?,
    }
    result.notes.push((
        "error_frac".to_string(),
        (result.failed as f64 / result.attempted.max(1) as f64).to_string(),
    ));
    Ok(result)
}

/// The traced run's metrics: the layer probes, the tracing overhead from
/// the phase's untraced/traced round pairs, and self time per layer from
/// the spans, which are also written out.
fn layer_metrics(
    cfg: &Config,
    tr: &Trace,
    pass: &PassOut,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut probe = layers::suite(cfg, tr)?;
    let overhead: Vec<f64> = pass
        .rounds
        .chunks_exact(2)
        .map(|pair| {
            let (t, u) = if pair[0].traced {
                (&pair[0], &pair[1])
            } else {
                (&pair[1], &pair[0])
            };
            t.wall_s / u.wall_s - 1.0
        })
        .collect();
    let overhead = Paired::of(&overhead);
    let spans = tr.spans();
    let mut metrics = Vec::new();
    metrics.append(&mut probe.metrics);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        overhead.value(),
        None,
    ));
    for (layer, secs) in trace::self_times(&spans) {
        metrics.push(Metric::new(
            &format!("trace.self_s.{layer}"),
            "s",
            secs,
            None,
        ));
    }
    metrics.push(Metric::new(
        "trace.spans",
        "count",
        spans.len() as f64,
        None,
    ));
    let path = cfg
        .out_dir
        .join(format!("trace-{}-{}.ndjson", cfg.workload.name(), cfg.seed));
    std::fs::write(&path, trace::to_ndjson(&spans)).map_err(|e| format!("span dump: {e}"))?;
    result.notes.push((
        "trace_overhead".to_string(),
        format!(
            "traced over untraced round wall, minus 1: {}",
            overhead.describe()
        ),
    ));
    result
        .notes
        .push(("spans".to_string(), path.display().to_string()));
    result.notes.append(&mut probe.notes);
    result.attempted += probe.attempted;
    result.failed += probe.failed;
    result.failures.extend(probe.failures);
    result.metrics = layers::ordered(metrics)?;
    Ok(())
}

/// The last stdout line: the contract object.
pub fn result_line(r: &RunResult) -> Result<String, String> {
    let mut m = String::new();
    for (i, x) in r.metrics.iter().enumerate() {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            m,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed
    ))
}

/// A fuller report line: every metric with its sample summary, the
/// notes, the failures and the machine stamp passed in by the launcher.
pub fn report_line(cfg: &Config, r: &RunResult, stamp: &[(String, String)]) -> String {
    let esc = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let mut s = format!(
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    );
    for (k, v) in stamp.iter().chain(r.notes.iter()) {
        let _ = write!(s, ",\"{}\":\"{}\"", esc(k), esc(v));
    }
    s.push_str(",\"metrics\":{");
    for (i, x) in r.metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let dist = x
            .dist
            .as_ref()
            .map_or(String::new(), |d| format!(",\"sample\":{}", d.json()));
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"{dist}}}",
            x.name, x.value, x.unit
        );
    }
    s.push_str("},\"failures\":[");
    let fails: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    s.push_str(&fails.join(","));
    s.push_str("]}}");
    s
}
