//! Engine throughput baseline: walker steps per second of the
//! schedule-generic dispersion engine, per schedule × graph family ×
//! topology backend.
//!
//! This is the repo's perf gate for the hot loop: run it with
//! `--format json` and keep the output as `BENCH_engine_throughput.json`
//! so refactors of `crates/core/src/engine/` can be compared row by row.
//!
//! ```text
//! cargo run -p dispersion-bench --release --bin engine_throughput -- \
//!     [--sizes 1024] [--trials 8] [--format json] \
//!     [--schedules seq,par,unif,ctu] [clique|cycle|...]
//! ```
//!
//! `--schedules` restricts the schedule rows. Every schedule is now
//! walk-bound: the event-chain Uniform schedule *samples* its
//! `Θ(n · t_par)` no-op ticks in one draw per settle instead of simulating
//! them, so `unif` rows are ordinary at any `n`. Rows report both
//! `steps_per_sec` (wall-clock walker moves — simulated progress) and
//! `ticks_per_sec` (simulated ticks retired per second, counting skipped
//! no-ops); for every schedule except `unif` the two coincide. Historical
//! note: before the event-driven engine, `unif` rows' `steps_per_sec` was
//! wall-clock tick work (~188× the walker moves on the clique), which is
//! exactly what `ticks_per_sec` now measures.
//!
//! Families with closed-form neighbour math (clique, cycle, grid2d,
//! hypercube, path) get a second set of rows with `backend = "implicit"`:
//! the same trials (identical seeds, hence identical trajectories) run on
//! the `dispersion_graphs::topology` implicit types instead of CSR
//! adjacency, so the implicit-vs-explicit delta isolates the memory
//! indirection the `Topology` redesign removes from the hot loop. Each
//! row times the backend it names, also where a spec cell would walk the
//! other one (an `implicit` request within
//! `dispersion_sim::spec::IMPLICIT_CSR_BYTES` walks the CSR graph, and an
//! `explicit` clique the closed form).
//! `--topology explicit|implicit` restricts the rows to one backend
//! (implicit-only runs never materialise an adjacency, so they scale to
//! sizes the explicit rows cannot); without the flag both backends run.
//!
//! Commentary goes to stderr; with `--format json` stdout is pure NDJSON,
//! one record per schedule × family × backend:
//!
//! ```text
//! {"schedule":"par","family":"torus2d","backend":"implicit","n":1024,
//!  "trials":8,"steps":...,"ticks":...,"secs":...,
//!  "steps_per_sec":...,"ticks_per_sec":...,"rate":"..."}
//! ```

use dispersion_bench::{usage_error, Options};
use dispersion_core::engine::observer::Odometer;
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::{Topology, Vertex};
use dispersion_sim::parallel::par_trials;
use dispersion_sim::rng::trial_seed;
use dispersion_sim::spec::{BackendSpec, FamilySpec};
use dispersion_sim::table::{fmt_rate, TextTable};
use dispersion_sim::with_resolved_topology;

fn default_families() -> Vec<Family> {
    vec![
        Family::Complete,
        Family::Cycle,
        Family::Hypercube,
        Family::Torus2d,
        Family::BinaryTree,
    ]
}

const SCHEDULES: [Process; 4] = [
    Process::Sequential,
    Process::Parallel,
    Process::Uniform,
    Process::Ctu,
];

/// `--schedules seq,par,unif,ctu` filter (default: all four). The Uniform
/// schedule's no-op ticks grow like `n · t_par`, so large-`n` baseline
/// sections restrict to the walk-bound schedules.
fn schedule_filter(opts: &mut Options) -> Vec<Process> {
    let Some(spec) = opts.take_flag("--schedules") else {
        return SCHEDULES.to_vec();
    };
    spec.split(',')
        .map(|label| {
            SCHEDULES
                .into_iter()
                .find(|p| p.label() == label.trim())
                .unwrap_or_else(|| {
                    usage_error(&format!("unknown schedule {label:?} in --schedules"))
                })
        })
        .collect()
}

/// Times every selected schedule on one (family, backend) pair. Generic so
/// each backend's hot loop is fully monomorphised — implicit rows measure
/// the closed-form neighbour math, not enum dispatch.
#[allow(clippy::too_many_arguments)]
fn bench_backend<T: Topology + Sync>(
    t: &T,
    origin: Vertex,
    family: &str,
    backend: &str,
    schedules: &[Process],
    opts: &Options,
    fk: usize,
    table: &mut TextTable,
) {
    let cfg = ProcessConfig::simple();
    for (sk, &process) in schedules.iter().enumerate() {
        // same seed per (family, schedule) for both backends: identical
        // RNG consumption means identical trajectories, so the rows
        // differ only in the neighbour lookup being measured
        let seed = opts.seed + (100 * fk + sk) as u64;
        let run_batch = |trials: usize| -> (u64, u64) {
            let counts: Vec<(u64, u64)> = par_trials(trials, opts.threads, seed, |_, rng| {
                let mut odo = Odometer::default();
                // the default 2⁴⁴-step cap is about a day of walking, but
                // an overrun still exits 2 rather than panicking
                if let Err(e) = process.run_observed(t, origin, &cfg, &mut odo, rng) {
                    usage_error(&format!(
                        "--sizes {}: {} {family} {backend}: {e}",
                        t.n(),
                        process.label()
                    ));
                }
                (odo.steps, odo.ticks)
            });
            counts
                .into_iter()
                .fold((0, 0), |(s, k), (ds, dk)| (s + ds, k + dk))
        };
        // one warm-up trial keeps allocator effects out of the timing
        let _ = run_batch(1);
        let t0 = std::time::Instant::now();
        let (steps, ticks) = run_batch(opts.trials.max(1));
        let secs = t0.elapsed().as_secs_f64();
        let rate = steps as f64 / secs.max(1e-9);
        let tick_rate = ticks as f64 / secs.max(1e-9);
        table.push_row([
            process.label().to_string(),
            family.to_string(),
            backend.to_string(),
            t.n().to_string(),
            opts.trials.max(1).to_string(),
            steps.to_string(),
            ticks.to_string(),
            format!("{secs:.4}"),
            format!("{rate:.0}"),
            format!("{tick_rate:.0}"),
            fmt_rate(rate),
        ]);
    }
}

fn main() {
    let mut opts = Options::from_env().reject_resume();
    let n = opts.sizes_or(&[1024])[0];
    let schedules = schedule_filter(&mut opts);
    let families: Vec<Family> = if opts.positional.is_empty() {
        default_families()
    } else {
        opts.positional
            .iter()
            .map(|label| {
                Family::table1()
                    .into_iter()
                    .find(|f| f.label() == label.as_str())
                    .unwrap_or_else(|| usage_error(&format!("unknown family {label:?}")))
            })
            .collect()
    };

    eprintln!(
        "# engine throughput: n ≈ {n}, trials = {}, threads = {}",
        opts.trials, opts.threads
    );
    let mut t = TextTable::new([
        "schedule",
        "family",
        "backend",
        "n",
        "trials",
        "steps",
        "ticks",
        "secs",
        "steps_per_sec",
        "ticks_per_sec",
        "rate",
    ]);
    for (fk, &family) in families.iter().enumerate() {
        // `--topology` restricts to one backend; implicit-only runs must
        // not build the CSR instance at all (that is their point)
        let explicit = FamilySpec::explicit(family, n).graph_seed(trial_seed(opts.seed, fk as u64));
        let backends = match opts.backend {
            Some(BackendSpec::Explicit) => vec![explicit],
            Some(BackendSpec::Implicit) => vec![FamilySpec::implicit(family, n)],
            None => vec![explicit, FamilySpec::implicit(family, n)],
        };
        for spec in backends {
            let backend = spec.backend.label();
            // each row times the backend it names even where `resolve`
            // would walk the other twin; a family without closed-form
            // neighbour math has no implicit row
            let cell = match spec.resolve_as_requested() {
                Ok(cell) => cell,
                Err(e) => {
                    eprintln!("# {} {backend}: {e}", family.label());
                    continue;
                }
            };
            with_resolved_topology!(&cell.topo, g => {
                bench_backend(g, cell.origin, cell.label, backend, &schedules, &opts, fk, &mut t);
            });
        }
    }
    print!("{}", opts.render(&t));
}
