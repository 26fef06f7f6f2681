//! Per-layer metrics for the traced run, measured from the benchmark's
//! own code by timing calls into each layer's public functions.
//!
//! Every traced run measures every layer with the same probes, whatever
//! its workload, so a layer figure means the same thing in every row.
//! Probe inputs come from the run seed.

use crate::runner_wl::{CountingSink, THREADS};
use crate::serve_wl;
use crate::specs::{self, Seeds};
use crate::stats::{median, quantile, Paired};
use crate::trace::Trace;
use crate::{Config, Metric, Scale};
use dispersion_core::engine::observer::Odometer;
use dispersion_core::engine::schedule::{Ctu, Parallel, Sequential, Uniform};
use dispersion_core::engine::{self, EngineConfig, FirstVacant, Observer, Schedule};
use dispersion_core::{Occupancy, ProcessConfig};
use dispersion_graphs::topology::{Hypercube, Torus2d};
use dispersion_graphs::{generators, walk, Topology, Vertex, WalkKind};
use dispersion_serve::http::{read_request, ChunkedWriter};
use dispersion_serve::shard::proto::{read_frame, write_frame, Frame};
use dispersion_serve::spec_json::{spec_from_json, spec_to_json};
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::runner::{run_cell, CancelToken, Runner};
use dispersion_sim::sink::{MemorySink, Record};
use dispersion_sim::stats::Online;
use rand::rand_core::TryRng;
use rand::{Rng, RngExt};
use std::convert::Infallible;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::time::Instant;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("graphs.topology.torus2d.neighbour_ns", "ns"),
    ("graphs.topology.csr.neighbour_ns", "ns"),
    ("graphs.topology.hypercube.neighbour_ns", "ns"),
    ("graphs.walk.step_ns", "ns"),
    ("sim.rng.next_u64_ns", "ns"),
    ("core.occupancy.test_ns.small", "ns"),
    ("core.occupancy.test_ns.large", "ns"),
    ("core.occupancy.small_bytes", "bytes"),
    ("core.occupancy.large_bytes", "bytes"),
    ("core.occupancy.llc_bytes", "bytes"),
    ("core.occupancy.settle_ns", "ns"),
    ("core.engine.steps", "count"),
    ("core.engine.rounds", "count"),
    ("core.engine.settles", "count"),
    ("core.engine.ticks", "count"),
    ("core.engine.draws_per_step", "count"),
    ("core.engine.ns_per_step.par", "ns"),
    ("core.engine.ns_per_step.seq", "ns"),
    ("core.engine.ns_per_step.unif", "ns"),
    ("core.engine.ns_per_step.ctu", "ns"),
    ("core.engine.ns_per_step.fill", "ns"),
    ("core.engine.observer_ns_per_step", "ns"),
    ("core.engine.partition.wt2_over_wt1", "ratio"),
    ("core.engine.reconcile_ratio", "ratio"),
    ("sim.spec.resolve_s.p50", "s"),
    ("sim.spec.resolve_s.max", "s"),
    ("sim.runner.chunks", "count"),
    ("sim.runner.chunk_s.p50", "s"),
    ("sim.runner.chunk_s.p90", "s"),
    ("sim.runner.cell_s.p50", "s"),
    ("sim.runner.cell_s.max", "s"),
    ("sim.runner.start_wait_s.p50", "s"),
    ("sim.runner.busy_frac", "ratio"),
    ("sim.runner.threads2_over_1", "ratio"),
    ("sim.stats.merge_ns", "ns"),
    ("sim.sink.encode_ns", "ns"),
    ("sim.sink.decode_ns", "ns"),
    ("sim.sink.record_bytes", "bytes"),
    ("serve.spec_json.parse_ns_per_cell", "ns"),
    ("serve.spec_json.emit_ns_per_cell", "ns"),
    ("serve.http.read_request_ns", "ns"),
    ("serve.http.chunk_ns", "ns"),
    ("serve.http.submit_s.p50", "s"),
    ("serve.jobs.queue_wait_s.p50", "s"),
    ("serve.jobs.queue_wait_s.p90", "s"),
    ("serve.checkpoint.append_flush_us", "us"),
    ("serve.checkpoint.fsync_ms", "ms"),
    ("serve.shard.proto.write_frame_ns", "ns"),
    ("serve.shard.proto.read_frame_ns", "ns"),
    ("serve.shard.frame_bytes", "bytes"),
    ("serve.shard.spawn_s", "s"),
    ("serve.shard.sharded_over_inproc", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_s.workload", "s"),
    ("trace.self_s.job", "s"),
    ("trace.self_s.cell", "s"),
    ("trace.self_s.chunk", "s"),
    ("trace.self_s.microbench", "s"),
    ("trace.spans", "count"),
];

/// Puts `metrics` in [`PER_LAYER`] order, checking each is present once
/// with its declared unit.
///
/// # Errors
///
/// A missing, duplicated, unknown or mis-united metric.
pub fn ordered(metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    if metrics.len() != PER_LAYER.len() {
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|p| p.0)
            .filter(|n| !names.contains(n))
            .collect();
        return Err(format!(
            "{} per-layer metrics, {} declared; missing {missing:?}",
            metrics.len(),
            PER_LAYER.len()
        ));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("per-layer metric {name} missing"))?;
            if m.unit != unit {
                return Err(format!("{name}: unit {} vs declared {unit}", m.unit));
            }
            Ok(m.clone())
        })
        .collect()
}

/// What the layer probes produced.
pub struct Probe {
    /// Per-layer metrics (all but the `trace.*` ones).
    pub metrics: Vec<Metric>,
    /// Probe checks attempted.
    pub attempted: u64,
    /// Probe checks failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Report notes (working-set sizes, probe sizes).
    pub notes: Vec<(String, String)>,
}

impl Probe {
    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER.iter().find(|p| p.0 == name).map_or("?", |p| p.1);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            dist: None,
        });
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    fn note(&mut self, k: &str, v: String) {
        self.notes.push((k.to_string(), v));
    }
}

/// Times `reps` calls of `f`, each doing `ops` operations and returning
/// a checksum, after one untimed warm-up call; returns the median
/// nanoseconds per operation and records one `microbench` span.
fn bench(tr: &Trace, name: &str, reps: usize, ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f());
    let span = tr.open("microbench", name.to_string(), None);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    tr.close(span);
    median(&samples)
}

/// Times one closure once, recording a `microbench` span.
fn once<T>(tr: &Trace, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.open("microbench", name.to_string(), None);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    tr.close(span);
    (out, secs)
}

/// A writer that keeps only a byte count, so framing code has somewhere
/// real to write that costs (almost) nothing.
struct Counted(u64);

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += black_box(buf).len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An RNG wrapper that counts draws, for the per-step draw count.
struct Counting(Xoshiro256pp, u64);

impl TryRng for Counting {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        self.1 += 1;
        Ok(self.0.next_u32())
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        self.1 += 1;
        Ok(self.0.next_u64())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        self.1 += dest.len().div_ceil(8) as u64;
        self.0.fill_bytes(dest);
        Ok(())
    }
}

/// The last-level cache size in bytes, from sysfs (0 when unknown).
fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(n) => (n, 1024),
                None => match s.strip_suffix('M') {
                    Some(n) => (n, 1024 * 1024),
                    None => (s, 1),
                },
            };
            num.parse::<u64>().ok().map(|n| n * mult)
        })
        .max()
        .unwrap_or(0)
}

/// Sizes of the probes at each scale.
struct Sizes {
    /// Bits in the large occupancy working set.
    large_bits: usize,
    /// Ops per microbench repetition (hot-loop benches).
    ops: u64,
    /// Side of the per-schedule engine probe torus.
    engine_side: usize,
    /// Side of the intra-trial scaling probe (n ≥ 10⁵ at full scale).
    partition_side: u64,
    /// Tick cap of the intra-trial scaling probe.
    partition_cap: u64,
    /// Repetitions of the slow codec benches (record, spec, frame).
    codec_reps: u64,
    /// Odometer/no-observer pairs behind the observer's cost.
    observer_pairs: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            // the largest bitset a u32 vertex id can address: 512 MiB
            large_bits: 1 << 32,
            ops: 1 << 22,
            engine_side: 100,
            partition_side: 317,
            partition_cap: 150_000_000,
            codec_reps: 400,
            observer_pairs: 12,
        },
        Scale::Tiny => Sizes {
            large_bits: 1 << 24,
            ops: 1 << 12,
            engine_side: 10,
            partition_side: 317,
            partition_cap: 100_000,
            codec_reps: 4,
            observer_pairs: 4,
        },
    }
}

/// One engine run: nanoseconds per walk step and the outcome.
fn engine_run<T, S, O>(
    g: &T,
    mut schedule: S,
    obs: &mut O,
    seed: u64,
) -> (f64, engine::EngineOutcome)
where
    T: Topology + ?Sized,
    S: Schedule,
    O: Observer,
{
    let cfg = EngineConfig::full(g, 0, &ProcessConfig::simple());
    let mut rng = Xoshiro256pp::new(trial_seed(seed, 0));
    let t0 = Instant::now();
    let out = engine::run(g, &mut schedule, &FirstVacant, &cfg, obs, &mut rng)
        .expect("an uncapped fill on a connected torus terminates");
    let ns = t0.elapsed().as_nanos() as f64 / out.total_steps as f64;
    (ns, out)
}

/// Runs every layer probe.
///
/// # Errors
///
/// A generated probe spec the parser rejects, or a probe server that
/// will not start.
pub fn suite(cfg: &Config, tr: &Trace) -> Result<Probe, String> {
    let z = sizes(cfg.scale);
    let mut p = Probe {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
    };
    let mut seeds = Seeds::new(cfg.seed, 100);
    hot_loop(&mut p, tr, &z, &mut seeds);
    engine_layer(&mut p, tr, &z, &mut seeds, cfg)?;
    runner_layer(&mut p, tr, cfg)?;
    codec_layer(&mut p, tr, &z, cfg)?;
    serve_layer(&mut p, tr, cfg)?;
    Ok(p)
}

/// RNG, neighbour decode, walk step and occupancy microbenches.
fn hot_loop(p: &mut Probe, tr: &Trace, z: &Sizes, seeds: &mut Seeds) {
    let ops = z.ops;
    let mut rng = seeds.rng();
    let v = bench(tr, "rng", 5, ops, || {
        let mut acc = 0u64;
        for _ in 0..ops {
            acc ^= rng.next_u64();
        }
        acc
    });
    p.put("sim.rng.next_u64_ns", v);

    // a dependent chain of neighbour reads: the next vertex is this
    // read's answer, as in a walk; slot indices are pre-drawn so the
    // RNG stays out of the timed loop
    let slots: Vec<u8> = (0..4096).map(|_| rng.random_range(0..40u8)).collect();
    let chain = |g: &dyn Fn(Vertex, usize) -> Vertex, degree: usize| {
        let mut v: Vertex = 0;
        for k in 0..ops as usize {
            v = g(v, slots[k & 4095] as usize % degree);
        }
        u64::from(v)
    };
    let side = specs::FILL_SIDE as usize;
    let torus = Torus2d::new(side);
    let v = bench(tr, "torus2d.neighbour", 5, ops, || {
        chain(&|v, i| torus.neighbour(v, i), 4)
    });
    p.put("graphs.topology.torus2d.neighbour_ns", v);
    let csr = generators::torus2d(32);
    let v = bench(tr, "csr.neighbour", 5, ops, || {
        chain(&|v, i| csr.neighbour(v, i), 4)
    });
    p.put("graphs.topology.csr.neighbour_ns", v);
    let cube = Hypercube::new(10);
    let v = bench(tr, "hypercube.neighbour", 5, ops, || {
        chain(&|v, i| cube.neighbour(v, i), 10)
    });
    p.put("graphs.topology.hypercube.neighbour_ns", v);
    let v = bench(tr, "walk.step", 5, ops, || {
        let mut v: Vertex = 0;
        for _ in 0..ops {
            v = walk::step(&torus, WalkKind::Simple, v, &mut rng);
        }
        u64::from(v)
    });
    p.put("graphs.walk.step_ns", v);

    // occupancy: the small set is the probe fill's bitset half full; the
    // large one is as big as a u32 vertex id allows
    let n_small = side * side;
    let mut perm: Vec<Vertex> = (0..n_small as Vertex).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let mut small = Occupancy::new(n_small);
    for &v in &perm[..n_small / 2] {
        small.settle(v);
    }
    let probe_small: Vec<Vertex> = (0..1 << 16)
        .map(|_| rng.random_range(0..n_small as Vertex))
        .collect();
    let occ_test = |occ: &Occupancy, idx: &[Vertex]| {
        let mut acc = 0u64;
        for k in 0..ops as usize {
            acc += u64::from(occ.is_occupied(idx[k & 0xFFFF]));
        }
        acc
    };
    let v = bench(tr, "occupancy.test.small", 5, ops, || {
        occ_test(&small, &probe_small)
    });
    p.put("core.occupancy.test_ns.small", v);
    let small_bytes = n_small.div_ceil(64) * 8;
    p.put("core.occupancy.small_bytes", small_bytes as f64);
    {
        let (mut large, _) = once(tr, "occupancy.alloc.large", || Occupancy::new(z.large_bits));
        // one settled bit per 4 KiB page, so every page is real memory
        // rather than the shared zero page
        let top = (z.large_bits - 1).min(u32::MAX as usize) as Vertex;
        for page in (0..z.large_bits).step_by(1 << 15) {
            large.settle(page as Vertex);
        }
        let probe_large: Vec<Vertex> = (0..1 << 16).map(|_| rng.random_range(0..=top)).collect();
        let v = bench(tr, "occupancy.test.large", 3, ops, || {
            occ_test(&large, &probe_large)
        });
        p.put("core.occupancy.test_ns.large", v);
    }
    p.put("core.occupancy.large_bytes", (z.large_bits / 8) as f64);
    p.put("core.occupancy.llc_bytes", llc_bytes() as f64);
    let v = bench(tr, "occupancy.settle", 9, n_small as u64, || {
        let mut occ = Occupancy::new(n_small);
        for &v in &perm {
            occ.settle(v);
        }
        occ.settled_count() as u64
    });
    p.put("core.occupancy.settle_ns", v);
    p.note(
        "occupancy_sizes",
        format!(
            "small {small_bytes} B (the probe fill's bitset), large {} B vs last-level cache {} B",
            z.large_bits / 8,
            llc_bytes()
        ),
    );
}

/// Engine probes: per-schedule ns/step, the observer's cost, the draw
/// count, the 200×200 Parallel fill under the `Odometer`, the
/// intra-trial scaling probe, and the reconciliation of layer costs
/// against the fill.
fn engine_layer(
    p: &mut Probe,
    tr: &Trace,
    z: &Sizes,
    seeds: &mut Seeds,
    cfg: &Config,
) -> Result<(), String> {
    let g = Torus2d::new(z.engine_side);
    let n = g.n();
    let seed = seeds.draw();
    let ((par, _), _) = once(tr, "engine.par", || {
        engine_run(&g, Parallel::new(), &mut (), seed)
    });
    let ((seq, _), _) = once(tr, "engine.seq", || {
        engine_run(&g, Sequential::new(), &mut (), seed)
    });
    let ((unif, _), _) = once(tr, "engine.unif", || {
        engine_run(&g, Uniform::new(n), &mut (), seed)
    });
    let ((ctu, _), _) = once(tr, "engine.ctu", || {
        engine_run(&g, Ctu::new(), &mut (), seed)
    });
    p.put("core.engine.ns_per_step.par", par);
    p.put("core.engine.ns_per_step.seq", seq);
    p.put("core.engine.ns_per_step.unif", unif);
    p.put("core.engine.ns_per_step.ctu", ctu);

    // draws per step, counted on the small torus
    let ecfg = EngineConfig::full(&g, 0, &ProcessConfig::simple());
    let mut counting = Counting(Xoshiro256pp::new(trial_seed(seed, 1)), 0);
    let out = engine::run(
        &g,
        &mut Parallel::new(),
        &FirstVacant,
        &ecfg,
        &mut (),
        &mut counting,
    )
    .map_err(|e| e.to_string())?;
    let draws_per_step = counting.1 as f64 / out.total_steps as f64;
    p.put("core.engine.draws_per_step", draws_per_step);

    // the observer's cost: Odometer vs no observer on the small torus,
    // same seed (same trajectory) within a pair, pairs run in alternating
    // order; a cost not above the pairs' spread is reported as that
    // spread and left out of the reconciliation
    let mut diffs = Vec::new();
    let span = tr.open("microbench", "engine.observer".to_string(), None);
    for k in 0..z.observer_pairs {
        let s = trial_seed(seed, 2 + k);
        let mut odo = Odometer::default();
        let (plain, out, counted) = if k % 2 == 0 {
            let (plain, out) = engine_run(&g, Parallel::new(), &mut (), s);
            (plain, out, engine_run(&g, Parallel::new(), &mut odo, s).0)
        } else {
            let (counted, _) = engine_run(&g, Parallel::new(), &mut odo, s);
            let (plain, out) = engine_run(&g, Parallel::new(), &mut (), s);
            (plain, out, counted)
        };
        p.check(
            odo.steps == out.total_steps && odo.rounds == out.rounds && odo.ticks == out.ticks,
            || format!("odometer {odo:?} disagrees with the outcome"),
        );
        diffs.push(counted - plain);
    }
    tr.close(span);
    let observer = Paired::of(&diffs);
    p.put("core.engine.observer_ns_per_step", observer.value());
    p.note(
        "observer",
        format!(
            "Odometer minus no observer, ns/step: {}",
            observer.describe()
        ),
    );
    let observer_ns = if observer.resolved() {
        observer.median
    } else {
        0.0
    };

    // the Open Problem 1 fill, counted by the Odometer
    let side = match cfg.scale {
        Scale::Full => specs::FILL_SIDE as usize,
        Scale::Tiny => 20,
    };
    let fill = Torus2d::new(side);
    let mut odo = Odometer::default();
    let ((fill_ns, _), _) = once(tr, "engine.fill", || {
        engine_run(&fill, Parallel::new(), &mut odo, seed)
    });
    p.put("core.engine.steps", odo.steps as f64);
    p.put("core.engine.rounds", odo.rounds as f64);
    p.put("core.engine.settles", odo.settles as f64);
    p.put("core.engine.ticks", odo.ticks as f64);
    p.put("core.engine.ns_per_step.fill", fill_ns);

    let layer = |name: &str, p: &Probe| {
        p.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let predicted = draws_per_step * layer("sim.rng.next_u64_ns", p)
        + layer("graphs.topology.torus2d.neighbour_ns", p)
        + layer("core.occupancy.test_ns.small", p)
        + odo.settles as f64 / odo.steps as f64 * layer("core.occupancy.settle_ns", p)
        + observer_ns;
    p.put("core.engine.reconcile_ratio", predicted / fill_ns);
    p.note(
        "reconcile",
        format!(
            "predicted {predicted:.3} ns/step = {draws_per_step:.3} draws x rng + torus2d \
             neighbour + small occupancy test + settles/steps x settle + observer (0 when \
             unresolved); measured {fill_ns:.3} ns/step on the {side}x{side} Parallel fill \
             (Odometer attached)"
        ),
    );

    // intra-trial threads through the wire form, over the first
    // `partition_cap` ticks of a fill at n ≥ 10⁵
    let mut walls = Vec::new();
    let mut errors = Vec::new();
    for wt in [1, 2] {
        let text = specs::capped_torus(cfg.seed, z.partition_side, z.partition_cap, wt);
        let spec = spec_from_json(&text)?;
        let (rec, secs) = once(tr, &format!("partition.wt{wt}"), || {
            run_cell(&spec, 0, &CancelToken::new(), &mut MemorySink::default())
        });
        walls.push(secs);
        errors.push(rec.error.unwrap_or_default());
    }
    p.check(
        errors[0].contains("step cap") && errors[0] == errors[1],
        || format!("capped fills disagree across walker threads: {errors:?}"),
    );
    p.put("core.engine.partition.wt2_over_wt1", walls[0] / walls[1]);
    p.note(
        "partition_probe",
        format!(
            "throughput at walker_threads 2 over 1, first {} ticks of a Parallel fill of the \
             implicit {}x{} torus",
            z.partition_cap, z.partition_side, z.partition_side
        ),
    );
    Ok(())
}

/// Runner probes: graph resolution, and the table1 spec through
/// `Runner::new(1)` and `Runner::new(2)` with every event timestamped.
fn runner_layer(p: &mut Probe, tr: &Trace, cfg: &Config) -> Result<(), String> {
    let text = crate::runner_wl::job_json(&Config {
        workload: crate::Workload::Table1Sweep,
        ..cfg.clone()
    });
    let spec = spec_from_json(&text)?;
    let resolve: Vec<f64> = spec
        .cells
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            black_box(c.family.resolve().map(|r| r.n()).unwrap_or(0));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    p.put("sim.spec.resolve_s.p50", median(&resolve));
    p.put("sim.spec.resolve_s.max", quantile(&resolve, 1.0));

    // each run under its own microbench span, whose cell spans (and
    // their chunk spans) the counting sink records
    let mut runs = Vec::new();
    for threads in [1, THREADS] {
        let span = tr.open("microbench", format!("runner.threads{threads}"), None);
        let mut sink = CountingSink::new(Some((tr, span)));
        let t0 = Instant::now();
        let records = Runner::new(threads).run(&spec, &[], &mut sink);
        let wall = t0.elapsed().as_secs_f64();
        tr.close(span);
        runs.push((records, wall, span));
    }
    let (one, two) = (&runs[0], &runs[1]);
    p.check(one.0 == two.0, || {
        "runner records differ between 1 and 2 threads".into()
    });

    let spans = tr.spans();
    let children = |parent: usize, name: &'static str| {
        spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == Some(parent) && s.name == name)
    };
    let chunks_of = |run: usize| -> Vec<f64> {
        children(run, "cell")
            .flat_map(|(id, _)| children(id, "chunk"))
            .map(|(_, s)| s.end - s.start)
            .collect()
    };
    // chunk durations from the 1-thread run, where events are sequential:
    // a chunk spans from its cell's previous event to its own
    let chunk_s = chunks_of(one.2);
    let run_start = spans[two.2].start;
    let cells: Vec<(f64, f64)> = children(two.2, "cell")
        .map(|(_, s)| (s.end - s.start, s.start - run_start))
        .collect();
    p.check(cells.len() == spec.len(), || {
        format!("{} cell spans for {} cells", cells.len(), spec.len())
    });
    let cell_s: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let start_wait: Vec<f64> = cells.iter().map(|c| c.1).collect();
    p.put("sim.runner.chunks", chunks_of(two.2).len() as f64);
    p.put("sim.runner.chunk_s.p50", median(&chunk_s));
    p.put("sim.runner.chunk_s.p90", quantile(&chunk_s, 0.9));
    p.put("sim.runner.cell_s.p50", median(&cell_s));
    p.put("sim.runner.cell_s.max", quantile(&cell_s, 1.0));
    p.put("sim.runner.start_wait_s.p50", median(&start_wait));
    let busy: f64 = cell_s.iter().sum();
    p.put("sim.runner.busy_frac", busy / (two.1 * THREADS as f64));
    p.put("sim.runner.threads2_over_1", one.1 / two.1);
    Ok(())
}

/// Statistics, record codec, spec codec, HTTP framing and shard frames.
fn codec_layer(p: &mut Probe, tr: &Trace, z: &Sizes, cfg: &Config) -> Result<(), String> {
    let ops = z.ops >> 4;
    let mut a = Online::new();
    let mut b = Online::new();
    for k in 0..64 {
        a.push(f64::from(k));
        b.push(f64::from(k * k));
    }
    let v = bench(tr, "online.merge", 5, ops, || {
        let mut acc = a;
        for _ in 0..ops {
            acc.merge(black_box(&b));
        }
        acc.count()
    });
    p.put("sim.stats.merge_ns", v);

    // records: the table1 spec's own records at the tiny size
    let text = specs::table1_job(cfg.seed, 8);
    let spec = spec_from_json(&text)?;
    let records: Vec<Record> = Runner::new(THREADS).run(&spec, &[], &mut MemorySink::default());
    let lines: Vec<String> = records.iter().map(Record::to_json_line).collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    p.put("sim.sink.record_bytes", bytes as f64 / lines.len() as f64);
    let reps = z.codec_reps;
    let per = reps * records.len() as u64;
    let v = bench(tr, "record.encode", 5, per, || {
        let mut acc = 0;
        for _ in 0..reps {
            for r in &records {
                acc += r.to_json_line().len() as u64;
            }
        }
        acc
    });
    p.put("sim.sink.encode_ns", v);
    let mut decoded_ok = true;
    let v = bench(tr, "record.decode", 5, per, || {
        let mut acc = 0;
        for _ in 0..reps {
            for l in &lines {
                match Record::from_json_line(l) {
                    Ok(r) => acc += r.trials,
                    Err(_) => decoded_ok = false,
                }
            }
        }
        acc
    });
    p.check(decoded_ok, || "a record line failed to decode".into());
    p.put("sim.sink.decode_ns", v);

    let cells = spec.len() as u64;
    let spec_reps = z.codec_reps;
    let v = bench(tr, "spec_json.parse", 5, spec_reps * cells, || {
        let mut acc = 0;
        for _ in 0..spec_reps {
            acc += spec_from_json(&text).map_or(0, |s| s.len() as u64);
        }
        acc
    });
    p.put("serve.spec_json.parse_ns_per_cell", v);
    let v = bench(tr, "spec_json.emit", 5, spec_reps * cells, || {
        let mut acc = 0;
        for _ in 0..spec_reps {
            acc += spec_to_json(&spec).len() as u64;
        }
        acc
    });
    p.put("serve.spec_json.emit_ns_per_cell", v);

    let body = specs::small_job_pool(cfg.seed, 1).swap_remove(3);
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let many = reps * 100;
    let v = bench(tr, "http.read_request", 5, many, || {
        let mut acc = 0;
        for _ in 0..many {
            let mut r = BufReader::new(request.as_bytes());
            acc += read_request(&mut r)
                .ok()
                .flatten()
                .map_or(0, |q| q.body.len() as u64);
        }
        acc
    });
    p.put("serve.http.read_request_ns", v);
    let line = format!("{}\n", lines[0]);
    let v = bench(tr, "http.chunk", 5, many, || {
        let mut out = Counted(0);
        {
            let mut w = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson")
                .expect("writing to memory cannot fail");
            for _ in 0..many {
                let _ = w.chunk(line.as_bytes());
            }
        }
        out.0
    });
    p.put("serve.http.chunk_ns", v);

    let frame = Frame::Record {
        job: 7,
        cell: 3,
        line: lines[0].clone(),
    };
    let v = bench(tr, "proto.write_frame", 5, many, || {
        let mut out = Counted(0);
        for _ in 0..many {
            let _ = write_frame(&mut out, &frame);
        }
        out.0
    });
    p.put("serve.shard.proto.write_frame_ns", v);
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &frame).map_err(|e| e.to_string())?;
    p.put("serve.shard.frame_bytes", encoded.len() as f64);
    let mut frames_ok = true;
    let v = bench(tr, "proto.read_frame", 5, many, || {
        let mut acc = 0;
        for _ in 0..many {
            match read_frame(&mut encoded.as_slice()) {
                Ok(Some(f)) if f == frame => acc += 1,
                _ => frames_ok = false,
            }
        }
        acc
    });
    p.check(frames_ok, || "a shard frame failed to round-trip".into());
    p.put("serve.shard.proto.read_frame_ns", v);

    // checkpoint durability, as the serve layer does it: open for
    // append, write one record line, flush; and the fsync on drain
    let path = cfg
        .out_dir
        .join(format!("ckpt-{}-{}.ndjson", std::process::id(), cfg.seed));
    let append = |sync: bool| -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        f.write_all(line.as_bytes())?;
        f.flush()?;
        if sync {
            f.sync_all()?;
        }
        Ok(())
    };
    let mut io_ok = true;
    let appends = reps * 4;
    let v = bench(tr, "checkpoint.append_flush", 5, appends, || {
        for _ in 0..appends {
            io_ok &= append(false).is_ok();
        }
        appends
    });
    p.put("serve.checkpoint.append_flush_us", v / 1e3);
    let v = bench(tr, "checkpoint.fsync", 5, 4, || {
        for _ in 0..4 {
            io_ok &= append(true).is_ok();
        }
        4
    });
    p.put("serve.checkpoint.fsync_ms", v / 1e6);
    p.check(io_ok, || "checkpoint append failed".into());
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// Serve probes: the same small-job traffic (no long job) through an
/// in-process server with two workers and a sharded one with two shard
/// processes.
fn serve_layer(p: &mut Probe, tr: &Trace, cfg: &Config) -> Result<(), String> {
    let warm_want = serve_wl::warmup_reference()?;
    let mut walls = Vec::new();
    for shards in [0, 2] {
        let env = serve_wl::setup(cfg, shards, &format!("probe{shards}"), &warm_want)?;
        if shards > 0 {
            p.put("serve.shard.spawn_s", env.spawn_s);
        }
        let traffic = serve_wl::Traffic {
            long: None,
            ..serve_wl::traffic(cfg, 1, false)
        };
        let span = tr.open("microbench", format!("serve.shards{shards}"), None);
        let out = serve_wl::timed_pass(&env, &traffic, None, false);
        tr.close(span);
        serve_wl::teardown(env);
        let out = out?;
        p.attempted += out.attempted;
        p.failed += out.failed;
        p.failures.extend(out.failures.iter().cloned());
        if shards == 0 {
            p.put("serve.http.submit_s.p50", median(&out.submit_s));
            p.put("serve.jobs.queue_wait_s.p50", median(&out.queue_wait_s));
            p.put(
                "serve.jobs.queue_wait_s.p90",
                quantile(&out.queue_wait_s, 0.9),
            );
        }
        walls.push(out.wall_s);
    }
    p.put("serve.shard.sharded_over_inproc", walls[1] / walls[0]);
    Ok(())
}
