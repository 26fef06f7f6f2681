//! Pins the engine's observer hook stream event for event.
//!
//! The record goldens see hook order only through the statistics that
//! observers fold out of it. This suite records every hook the engine
//! fires — with the particle, its position, `view.steps[pid]` and the
//! clocks — for all five [`Process`] variants on small torus, binary
//! tree, hypercube, clique and cycle instances, plus a lazy walk, random
//! origins under a delayed settle rule and a step-capped run. The stream
//! must match `tests/fixtures/observer_stream.txt` byte for byte, and the
//! implicit backend of each family must emit exactly the stream of its CSR
//! twin.

use dispersion_core::engine::rule::DelayedExcept;
use dispersion_core::engine::{EngineConfig, EngineView, FirstVacant, SettleRule};
use dispersion_core::{Observer, Process, ProcessConfig};
use dispersion_graphs::generators::{binary_tree, complete, cycle, hypercube, torus2d};
use dispersion_graphs::topology::{Complete, Cycle, Hypercube, Torus2d};
use dispersion_graphs::{Topology, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// Writes one line per hook: tag, particle, position, the particle's step
/// count and the clocks (`-` where a hook has no particle).
#[derive(Default)]
struct Recorder {
    out: String,
}

impl Recorder {
    fn line(&mut self, tag: &str, pid: Option<usize>, pos: Option<Vertex>, view: &EngineView<'_>) {
        let dash = || "-".to_string();
        let pid_s = pid.map_or_else(dash, |p| p.to_string());
        let pos_s = pos.map_or_else(dash, |v| v.to_string());
        let steps = pid.map_or_else(dash, |p| view.steps[p].to_string());
        let c = view.clock;
        writeln!(
            self.out,
            "{tag} {pid_s} {pos_s} {steps} {} {} {:?} {}",
            c.ticks, c.rounds, c.time, view.unsettled
        )
        .unwrap();
    }
}

impl Observer for Recorder {
    fn on_spawn(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        self.line("spawn", Some(pid), Some(pos), view);
    }
    fn on_start(&mut self, view: &EngineView<'_>) {
        self.line("start", None, None, view);
    }
    fn on_tick(&mut self, pid: usize, view: &EngineView<'_>) {
        self.line("tick", Some(pid), Some(view.positions[pid]), view);
    }
    fn on_skip(&mut self, noops: u64, view: &EngineView<'_>) {
        self.line(&format!("skip{noops}"), None, None, view);
    }
    fn on_step(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        assert_eq!(view.positions[pid], pos, "on_step sees the moved position");
        self.line("step", Some(pid), Some(pos), view);
    }
    fn on_settle(&mut self, pid: usize, pos: Vertex, view: &EngineView<'_>) {
        self.line("settle", Some(pid), Some(pos), view);
    }
    fn on_round(&mut self, view: &EngineView<'_>) {
        self.line("round", None, None, view);
    }
    fn on_finish(&mut self, view: &EngineView<'_>) {
        self.line("finish", None, None, view);
    }
}

/// One recorded run: a header, every hook, then the outcome or the error.
fn record<T: Topology, Q: SettleRule>(
    name: &str,
    t: &T,
    p: Process,
    rule: &Q,
    cfg: &EngineConfig,
    seed: u64,
) -> String {
    let mut rec = Recorder::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let res = p.run(t, rule, cfg, &mut rec, &mut rng);
    let mut out = format!("# {name} {} seed {seed}\n", p.label());
    out.push_str(&rec.out);
    match res {
        Ok(o) => writeln!(
            out,
            "= steps {:?} at {:?} total {} ticks {} settle {} rounds {} time {:?}",
            o.steps, o.settled_at, o.total_steps, o.ticks, o.settle_tick, o.rounds, o.time
        ),
        Err(e) => writeln!(out, "! {e}"),
    }
    .unwrap();
    out
}

/// The five processes under the standard full run from vertex 0.
fn all_processes<T: Topology>(name: &str, t: &T, seed: u64) -> String {
    let cfg = EngineConfig::full(t, 0, &ProcessConfig::simple());
    Process::all()
        .into_iter()
        .zip(seed..)
        .map(|(p, s)| record(name, t, p, &FirstVacant, &cfg, s))
        .collect()
}

/// [`all_processes`] on a CSR graph and on its implicit twin, which must
/// emit the identical stream.
fn both_backends<A: Topology, B: Topology>(name: &str, csr: &A, implicit: &B, seed: u64) -> String {
    let explicit = all_processes(name, csr, seed);
    assert!(
        explicit == all_processes(name, implicit, seed),
        "{name}: implicit stream differs from CSR"
    );
    explicit
}

/// Every family on both backends (the binary tree is CSR only), plus the
/// lazy-walk, random-origin and capped Sequential runs.
fn stream() -> String {
    let mut out = both_backends("torus5", &torus2d(5), &Torus2d::new(5), 1);
    out += &both_backends("hypercube4", &hypercube(4), &Hypercube::new(4), 11);
    out += &both_backends("clique12", &complete(12), &Complete::new(12), 21);
    out += &both_backends("cycle9", &cycle(9), &Cycle::new(9), 31);
    out.push_str(&all_processes("btree3", &binary_tree(3), 41));

    let g = torus2d(5);
    let lazy = EngineConfig::with_particles(10, 12, &ProcessConfig::lazy());
    out.push_str(&record(
        "torus5-lazy",
        &g,
        Process::Sequential,
        &FirstVacant,
        &lazy,
        51,
    ));
    let tree = binary_tree(4);
    let origins = EngineConfig::random_origins(10, &ProcessConfig::simple());
    let rule = DelayedExcept {
        threshold: 6,
        special: 3,
    };
    for p in [Process::Sequential, Process::ContinuousSequential] {
        out.push_str(&record("btree4-origins", &tree, p, &rule, &origins, 61));
    }
    let capped = EngineConfig::full(&g, 0, &ProcessConfig::simple().with_cap(24));
    for p in Process::all() {
        out.push_str(&record("torus5-cap24", &g, p, &FirstVacant, &capped, 71));
    }
    out
}

#[test]
fn observer_stream_matches_fixture() {
    let path = format!(
        "{}/tests/fixtures/observer_stream.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = stream();
    if let Some((i, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("{path}:{}: got `{g}`, want `{w}`", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{path}: stream length differs"
    );
}
