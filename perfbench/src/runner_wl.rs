//! The Runner workload (`table1_sweep`): one spec, parsed from its wire
//! form, run back to back through `Runner::new(2)`.
//!
//! Every repetition runs the *same* spec, so every repetition must return
//! byte-identical records and walk exactly as many steps; the timings of
//! the repetitions are the samples the latency percentiles come from.

use crate::specs;
use crate::trace::{Span, Trace};
use crate::{check_record, traced_round, Config, JobObs, PassOut, RoundObs, Scale};
use dispersion_serve::spec_json::spec_from_json;
use dispersion_sim::runner::Runner;
use dispersion_sim::sink::{Event, Record, Sink};
use dispersion_sim::spec::ExperimentSpec;
use std::time::Instant;

/// Runner threads: one per core of the 2-core reference machine.
pub const THREADS: usize = 2;

/// A parsed workload spec, ready to run.
pub struct Env {
    /// The spec every repetition runs.
    pub spec: ExperimentSpec,
}

/// The workload's spec in wire form.
pub fn job_json(cfg: &Config) -> String {
    match cfg.scale {
        Scale::Full => specs::table1_job(cfg.seed, 1),
        Scale::Tiny => specs::table1_job(cfg.seed, 8),
    }
}

/// Set-up: generate and parse the spec, then run the warm-up job.
///
/// # Errors
///
/// A spec the parser rejects.
pub fn setup(cfg: &Config) -> Result<Env, String> {
    let spec = spec_from_json(&job_json(cfg))?;
    let warm = spec_from_json(&specs::warmup_job())?;
    Runner::new(THREADS).run(&warm, &[], &mut CountingSink::new(None));
    Ok(Env { spec })
}

/// Runs the timed phase: `jobs` repetitions of the spec. Under a trace,
/// the repetitions [`traced_round`] picks record their spans.
pub fn timed_pass(env: &Env, jobs: usize, trace: Option<&Trace>) -> PassOut {
    let runner = Runner::new(THREADS);
    let start = Instant::now();
    let wl_span = trace.map(|t| t.open("workload", String::new(), None));
    let mut obs = Vec::with_capacity(jobs);
    let mut rounds = Vec::with_capacity(jobs);
    let mut outputs: Vec<Vec<Record>> = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let job_span = trace
            .filter(|_| traced_round(j))
            .map(|t| (t, t.open("job", j.to_string(), wl_span)));
        let mut sink = CountingSink::new(job_span);
        let t0 = Instant::now();
        let records = runner.run(&env.spec, &[], &mut sink);
        let job_s = t0.elapsed().as_secs_f64();
        if let Some((t, id)) = job_span {
            t.close(id);
        }
        obs.push(JobObs {
            first_record_s: sink.first_done.unwrap_or(job_s),
            job_s,
        });
        rounds.push(RoundObs {
            wall_s: job_s,
            steps: sink.steps,
            trials: sink.trials,
            records: records.len() as u64,
            traced: job_span.is_some(),
        });
        outputs.push(records);
    }
    if let (Some(t), Some(id)) = (trace, wl_span) {
        t.close(id);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mib = crate::peak_rss_mib();
    let mut out = PassOut::new(wall_s, rss_mib);
    verify(env, &rounds, &outputs, &mut out);
    out.jobs = obs;
    out.rounds = rounds;
    out
}

/// Correctness: no error records, budgets honoured, and every repetition
/// byte-identical to the first with exactly the same step count.
fn verify(env: &Env, obs: &[RoundObs], outputs: &[Vec<Record>], out: &mut PassOut) {
    let first: Vec<String> = outputs[0].iter().map(Record::to_json_line).collect();
    for (j, records) in outputs.iter().enumerate() {
        out.attempted += 1;
        let problem = if records.len() != env.spec.len() {
            Some(format!(
                "{} records for {} cells",
                records.len(),
                env.spec.len()
            ))
        } else if let Some(e) = records
            .iter()
            .zip(&env.spec.cells)
            .find_map(|(r, c)| check_record(r, c).err())
        {
            Some(e)
        } else if records
            .iter()
            .map(Record::to_json_line)
            .ne(first.iter().cloned())
        {
            Some("records differ from the first repetition".to_string())
        } else if obs[j].steps != obs[0].steps {
            Some(format!(
                "{} steps vs {} in the first repetition",
                obs[j].steps, obs[0].steps
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            out.fail(format!("job {j}: {p}"));
        }
    }
}

/// A sink that counts trials and steps from `Chunk` events and stamps
/// the first `Done`; in a traced pass it also records cell and chunk
/// spans under the job's span.
pub struct CountingSink<'a> {
    t0: Instant,
    /// Seconds from creation to the first `Done` event.
    pub first_done: Option<f64>,
    /// Walk steps summed over `Chunk` events.
    pub steps: u64,
    /// Trials summed over `Chunk` events.
    pub trials: u64,
    trace: Option<(&'a Trace, usize)>,
    /// Per traced cell: (cell id, span id, time of its last event).
    open: Vec<(usize, usize, f64)>,
}

impl<'a> CountingSink<'a> {
    /// A sink whose clock starts now, tracing under `trace`'s job span.
    pub fn new(trace: Option<(&'a Trace, usize)>) -> Self {
        CountingSink {
            t0: Instant::now(),
            first_done: None,
            steps: 0,
            trials: 0,
            trace,
            open: Vec::new(),
        }
    }
}

impl Sink for CountingSink<'_> {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Chunk {
                cell,
                trials,
                steps,
            } => {
                self.steps += steps;
                self.trials += trials;
                if let Some((t, _)) = self.trace {
                    let now = t.now();
                    if let Some(o) = self.open.iter_mut().find(|o| o.0 == *cell) {
                        t.push(Span {
                            name: "chunk",
                            label: cell.to_string(),
                            parent: Some(o.1),
                            start: o.2,
                            end: now,
                        });
                        o.2 = now;
                    }
                }
            }
            Event::Started { cell, .. } => {
                if let Some((t, job)) = self.trace {
                    let id = t.open("cell", cell.to_string(), Some(job));
                    self.open.push((*cell, id, t.now()));
                }
            }
            Event::Done { record, .. } => {
                self.first_done
                    .get_or_insert_with(|| self.t0.elapsed().as_secs_f64());
                if let Some((t, _)) = self.trace {
                    if let Some(pos) = self.open.iter().position(|o| o.0 == record.cell) {
                        t.close(self.open.swap_remove(pos).1);
                    }
                }
            }
            Event::Progress { .. } => {}
        }
    }
}
