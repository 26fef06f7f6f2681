//! Declarative experiment specifications: the paper's (family × size ×
//! schedule) Monte-Carlo grid as data.
//!
//! An [`ExperimentSpec`] is a list of **cells**. Each [`CellSpec`] names a
//! graph instance ([`FamilySpec`] — resolving to an explicit CSR
//! [`Graph`] or a closed-form implicit [`Implicit`] topology), a
//! [`Measure`] (which per-trial statistics one engine pass yields), and a
//! [`Budget`] (a fixed trial count, or adaptive stopping on the confidence
//! interval). The streaming [`Runner`](crate::runner::Runner) executes the
//! whole spec: cells are scheduled across threads, statistics stream
//! through one-pass [`Online`](crate::stats::Online) accumulators, and
//! results arrive as [`Record`](crate::sink::Record)s on a
//! [`Sink`](crate::sink::Sink).
//!
//! Reproducibility contract: trial `t` of cell `c` always draws from
//! `Xoshiro256pp::new(trial_seed(master(c), t))`, where `master(c)` is the
//! cell's explicit master seed or a value derived from `(spec seed, c)` —
//! so results are bit-identical for any thread count, and legacy binaries
//! can pin their historical per-sweep seeds cell by cell.

use crate::rng::splitmix64;
use dispersion_core::engine::observer::{AggregateShape, PhaseTimes};
use dispersion_core::engine::{EngineConfig, EngineError, FirstVacant};
use dispersion_core::{Process, ProcessConfig};
use dispersion_graphs::families::Family;
use dispersion_graphs::topology::Implicit;
use dispersion_graphs::{Graph, Topology, Vertex};
use rand::Rng;

/// Which graph backend a [`FamilySpec`] resolves to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// Materialised CSR adjacency — works for every family.
    #[default]
    Explicit,
    /// Closed-form implicit topology — no adjacency storage beyond
    /// [`IMPLICIT_CSR_BYTES`]; only the families with closed-form
    /// neighbour math support it. A request whose row table fits that
    /// budget walks the CSR graph of the same instance instead, which
    /// takes the same draws: the records are the same either way.
    Implicit,
}

impl BackendSpec {
    /// Short label for keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            BackendSpec::Explicit => "explicit",
            BackendSpec::Implicit => "implicit",
        }
    }
}

/// A graph instance request: family, approximate size, backend, and the
/// deterministic ingredients (graph seed, origin override) that make the
/// resolved instance reproducible.
#[derive(Clone, Debug)]
pub struct FamilySpec {
    /// The Table 1 family.
    pub family: Family,
    /// Requested vertex count (families round to the nearest feasible
    /// size, exactly as [`Family::instance`] does).
    pub size: usize,
    /// Explicit CSR or implicit closed-form backend.
    pub backend: BackendSpec,
    /// Seed of the RNG handed to the family constructor (only random
    /// families consume it); defaults to 0.
    pub graph_seed: u64,
    /// Origin override; defaults to the family's conventional origin
    /// (path endpoint, tree root, vertex 0, …).
    pub origin: Option<Vertex>,
}

impl FamilySpec {
    /// An explicit-backend instance request.
    pub fn explicit(family: Family, size: usize) -> Self {
        FamilySpec {
            family,
            size,
            backend: BackendSpec::Explicit,
            graph_seed: 0,
            origin: None,
        }
    }

    /// An implicit-backend instance request.
    pub fn implicit(family: Family, size: usize) -> Self {
        FamilySpec {
            backend: BackendSpec::Implicit,
            ..FamilySpec::explicit(family, size)
        }
    }

    /// Sets the graph-construction seed.
    pub fn graph_seed(mut self, seed: u64) -> Self {
        self.graph_seed = seed;
        self
    }

    /// Overrides the origin vertex.
    pub fn origin(mut self, v: Vertex) -> Self {
        self.origin = Some(v);
        self
    }

    /// The identity of the graph [`FamilySpec::resolve`] builds: specs
    /// with equal keys resolve to equal instances, so an explicit request
    /// and an implicit one within [`IMPLICIT_CSR_BYTES`] share a key. The
    /// graph seed counts only for families whose builder reads it
    /// ([`Family::is_random`]).
    pub(crate) fn graph_key(&self) -> GraphKey {
        GraphKey {
            family: self.family,
            size: self.size,
            csr: self.builds_csr(),
            origin: self.origin,
            graph_seed: self.family.is_random().then_some(self.graph_seed),
        }
    }

    /// Whether [`FamilySpec::resolve`] builds the CSR graph: for every
    /// explicit request, and for an implicit one whose row table fits
    /// [`IMPLICIT_CSR_BYTES`].
    fn builds_csr(&self) -> bool {
        match self.backend {
            BackendSpec::Explicit => true,
            BackendSpec::Implicit => self
                .family
                .row_table_bytes(self.size)
                .is_some_and(|bytes| bytes <= IMPLICIT_CSR_BYTES),
        }
    }

    /// Builds the instance this spec describes: the CSR graph for an
    /// explicit request and for an implicit one whose row table fits
    /// [`IMPLICIT_CSR_BYTES`], the closed form for a larger implicit one.
    ///
    /// # Errors
    ///
    /// [`CellError::Invalid`] when the family has no implicit form and
    /// [`BackendSpec::Implicit`] was requested, when the family cannot be
    /// built at this size (size 0 for path, cycle, clique and star; a
    /// lollipop below 4 vertices; an expander degree outside `2..size`; a
    /// hypercube dimension of 31 or more, past `u32` vertex ids), or when
    /// the origin override is not a vertex of the instance.
    pub fn resolve(&self) -> Result<ResolvedCell, CellError> {
        self.resolve_as(self.builds_csr())
    }

    /// What [`FamilySpec::resolve`] builds, except that an implicit
    /// request gets its closed form at every size: for timing the closed
    /// forms against their CSR twins.
    ///
    /// # Errors
    ///
    /// As [`FamilySpec::resolve`].
    pub fn resolve_closed_form(&self) -> Result<ResolvedCell, CellError> {
        self.resolve_as(self.backend == BackendSpec::Explicit)
    }

    fn resolve_as(&self, csr: bool) -> Result<ResolvedCell, CellError> {
        self.check_size()?;
        let cell = if csr {
            self.build_csr()
        } else {
            self.build_closed_form()?
        };
        if cell.origin as usize >= cell.n() {
            return Err(CellError::Invalid(format!(
                "origin {} out of range for {} with n = {}",
                cell.origin,
                cell.label,
                cell.n()
            )));
        }
        Ok(cell)
    }

    /// Rejects the sizes the family constructors would panic on, before
    /// anything is built.
    fn check_size(&self) -> Result<(), CellError> {
        let n = self.size;
        let why = match self.family {
            Family::Path | Family::Cycle | Family::Complete | Family::Star if n == 0 => {
                "needs at least one vertex".to_string()
            }
            Family::Lollipop if n < 4 => "needs at least 4 vertices".to_string(),
            Family::RandomRegular(d) if d < 2 || d >= n => {
                format!("needs a degree in 2..{n}, got {d}")
            }
            Family::Hypercube => {
                // the dimension rounding of `Family::instance`/`implicit`
                let k = (n as f64).log2().round().max(1.0) as usize;
                if k < 31 {
                    return Ok(());
                }
                format!("needs a dimension below 31, got {k}")
            }
            _ => return Ok(()),
        };
        Err(CellError::Invalid(format!(
            "{} of size {n} {why}",
            self.family.label()
        )))
    }

    /// The CSR graph, whichever backend was requested. The families with
    /// a closed form have the same label and origin (vertex 0) on both
    /// backends, so an implicit request keeps its own.
    fn build_csr(&self) -> ResolvedCell {
        // LINT: rng-discipline-ok — graph_seed IS the spec-pinned stream id:
        // the cell hash covers it, so the same spec always draws the same graph
        let mut rng = crate::rng::Xoshiro256pp::new(self.graph_seed);
        let inst = self.family.instance(self.size, &mut rng);
        ResolvedCell {
            origin: self.origin.unwrap_or(inst.origin),
            label: inst.label,
            topo: ResolvedTopo::Explicit(inst.graph),
        }
    }

    fn build_closed_form(&self) -> Result<ResolvedCell, CellError> {
        let imp = self.family.implicit(self.size).ok_or_else(|| {
            CellError::Invalid(format!(
                "family {} has no implicit topology",
                self.family.label()
            ))
        })?;
        Ok(ResolvedCell {
            origin: self.origin.unwrap_or(0),
            label: self.family.label(),
            topo: ResolvedTopo::Implicit(imp),
        })
    }
}

/// The largest row table, in bytes ([`Family::row_table_bytes`]), for
/// which a [`BackendSpec::Implicit`] request walks the CSR graph of its
/// instance instead of the closed form. The two take the same draws, so
/// the records do not change; the CSR step is one load from a table that
/// stays in cache, the closed form a decode of a few dozen instructions.
/// The clique always stays closed form ([`Family::row_table_bytes`] gives
/// it no size): its CSR is `n²` arcs, and its closed form, one sampled
/// index and a compare, took 0.71–0.97× the CSR time per step at
/// n = 64–256 and 0.09–0.24× at n = 1024 (Parallel and Sequential runs
/// capped at 5·10⁶ steps, on the machine below).
///
/// 1 MiB is half the per-core L2 of the machine below, leaving room for
/// the engine's own arrays. Capped runs (2·10⁷ steps from vertex 0,
/// median of 5 alternating runs, ns per step, CSR vs closed form) on a
/// 2 vCPU Intel Xeon (2 MiB L2 per core, rustc 1.95.0, git `0846925`):
///
/// | instance        | table    | Parallel    | Sequential  |
/// |-----------------|----------|-------------|-------------|
/// | hypercube k=13  | 416 KiB  | 10.5 / 20.9 | 11.2 / 26.3 |
/// | hypercube k=14  | 896 KiB  | 12.0 / 20.8 | 13.5 / 26.4 |
/// | hypercube k=15  | 1.9 MiB  | 16.6 / 19.6 | 23.5 / 26.3 |
/// | hypercube k=16  | 4 MiB    | 23.0 / 18.6 | 90.2 / 25.7 |
/// | torus side 128  | 256 KiB  |  6.0 / 10.1 |  3.9 /  7.1 |
/// | torus side 256  | 1 MiB    |  5.9 / 11.3 |  4.1 /  7.0 |
/// | torus side 362  | 2 MiB    |  6.1 / 12.4 |  4.0 /  7.2 |
/// | torus side 512  | 4 MiB    |  6.7 / 16.0 |  4.2 /  7.1 |
///
/// The hypercube's CSR lead shrinks to 1.1–1.2× at 1.9 MiB and turns
/// into a loss at 4 MiB, where a Sequential walker jumps across the whole
/// table. The torus walkers stay near one another, so its CSR still wins
/// at 4 MiB, at the price of holding that memory for the cell.
pub const IMPLICIT_CSR_BYTES: usize = 1 << 20;

/// What [`FamilySpec::graph_key`] compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GraphKey {
    family: Family,
    size: usize,
    /// The CSR graph rather than the closed form.
    csr: bool,
    origin: Option<Vertex>,
    graph_seed: Option<u64>,
}

/// A resolved graph backend: the two shapes a [`FamilySpec`] can take at
/// run time.
#[derive(Clone, Debug)]
pub enum ResolvedTopo {
    /// Materialised CSR graph: every explicit request, and the implicit
    /// ones within [`IMPLICIT_CSR_BYTES`].
    Explicit(Graph),
    /// Closed-form implicit family.
    Implicit(Implicit),
}

/// A resolved cell instance: backend, origin, human label.
#[derive(Clone, Debug)]
pub struct ResolvedCell {
    /// The graph backend.
    pub topo: ResolvedTopo,
    /// Origin vertex of the process.
    pub origin: Vertex,
    /// Family label (e.g. `"cycle"`).
    pub label: &'static str,
}

/// Monomorphising dispatch over a [`ResolvedTopo`]: expands `$body` once
/// per concrete backend type, so engine hot loops never pay an enum match
/// per walk step. This is the one dispatch over the implicit families;
/// [`Implicit`] itself is not a [`Topology`].
#[macro_export]
macro_rules! with_resolved_topology {
    ($topo:expr, $t:ident => $body:expr) => {
        match $topo {
            $crate::spec::ResolvedTopo::Explicit($t) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Path($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Cycle($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Torus2d($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Hypercube($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Complete($t),
            ) => $body,
        }
    };
}

impl ResolvedCell {
    /// Vertex count of the resolved instance.
    pub fn n(&self) -> usize {
        with_resolved_topology!(&self.topo, t => t.n())
    }
}

/// What one trial of a cell measures: each engine pass yields the fixed
/// set of named statistics in [`Measure::stat_names`] order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Measure {
    /// Dispersion time of one process, in its native unit (stat `time`).
    Dispersion(Process),
    /// Parallel-IDLA dispersion time plus the Theorem 3.3 half-milestone,
    /// both from one engine pass (stats `time`, `t_half`).
    ParallelWithHalf,
    /// Total walk steps over all particles (stat `steps`) — the Theorem
    /// 4.1 equidistributed quantity.
    TotalSteps(Process),
    /// Prop. 5.10 aggregate-shape statistics of a sequential `k = n/2`
    /// fill on a 2-d torus: one pass with composed shape/time/phase
    /// observers (stats `inner_r`, `outer_r`, `fluct`, `roundness`,
    /// `t_fill`, `half_t`). Requires a square torus instance.
    TorusShapeHalfFill,
    /// Cover time of a simple random walk from the origin (stat `cover`),
    /// computed on any backend via the neighbour oracle.
    CoverTime,
}

impl Measure {
    /// Names of the statistics one trial produces, in output order.
    pub fn stat_names(&self) -> &'static [&'static str] {
        match self {
            Measure::Dispersion(_) => &["time"],
            Measure::ParallelWithHalf => &["time", "t_half"],
            Measure::TotalSteps(_) => &["steps"],
            Measure::TorusShapeHalfFill => &[
                "inner_r",
                "outer_r",
                "fluct",
                "roundness",
                "t_fill",
                "half_t",
            ],
            Measure::CoverTime => &["cover"],
        }
    }

    /// Short label for keys and tables.
    pub fn label(&self) -> String {
        match self {
            Measure::Dispersion(p) => p.label().to_string(),
            Measure::ParallelWithHalf => "par+half".to_string(),
            Measure::TotalSteps(p) => format!("steps:{}", p.label()),
            Measure::TorusShapeHalfFill => "shape".to_string(),
            Measure::CoverTime => "cover".to_string(),
        }
    }

    /// Runs one trial on a resolved backend, writing one value per
    /// [`Measure::stat_names`] entry into `out` and returning the trial's
    /// total walk-step count (what the engine's `Odometer` observer counts
    /// as `steps`) — the raw material for throughput metrics like the
    /// serve layer's steps/s gauge.
    ///
    /// # Errors
    ///
    /// Engine step-cap overruns and invalid measure/backend pairings come
    /// back as [`CellError`]s — the runner turns them into per-cell error
    /// records instead of aborting the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from `stat_names().len()`.
    pub fn run_trial<R: Rng + ?Sized>(
        &self,
        cell: &ResolvedCell,
        cfg: &ProcessConfig,
        out: &mut [f64],
        rng: &mut R,
    ) -> Result<u64, CellError> {
        assert_eq!(out.len(), self.stat_names().len(), "stat arity mismatch");
        with_resolved_topology!(&cell.topo, t => self.run_on(t, cell.origin, cfg, out, rng))
    }

    /// The generic trial body, monomorphised per backend.
    fn run_on<T: Topology + ?Sized, R: Rng + ?Sized>(
        &self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        out: &mut [f64],
        rng: &mut R,
    ) -> Result<u64, CellError> {
        let steps = match self {
            Measure::Dispersion(p) => {
                let o = p.run_observed(g, origin, cfg, &mut (), rng)?;
                out[0] = p.dispersion_of(&o);
                o.total_steps
            }
            Measure::ParallelWithHalf => {
                let mut phases = PhaseTimes::for_particles(g.n());
                let o = Process::Parallel.run_observed(g, origin, cfg, &mut phases, rng)?;
                out[0] = o.dispersion_time() as f64;
                out[1] = phases.phases[PhaseTimes::half_index(g.n())] as f64;
                o.total_steps
            }
            Measure::TotalSteps(p) => {
                // continuous clocks do not change the jump sequence
                let p = match p {
                    Process::ContinuousSequential => Process::Sequential,
                    p => *p,
                };
                let o = p.run_observed(g, origin, cfg, &mut (), rng)?;
                out[0] = o.total_steps as f64;
                o.total_steps
            }
            Measure::TorusShapeHalfFill => {
                let n = g.n();
                let side = (n as f64).sqrt().round() as usize;
                if side * side != n {
                    return Err(CellError::Invalid(format!(
                        "shape measure needs a square torus, got n = {n}"
                    )));
                }
                let dims = [side, side];
                let particles = (n / 2).max(1);
                let j_half = PhaseTimes::half_index(particles);
                let mut shape = AggregateShape::at_counts(origin, &dims, &[particles]);
                // tick clock: per-particle steps are not a shared clock
                // under the Sequential schedule
                let mut phases = PhaseTimes::in_ticks(particles);
                let ecfg = EngineConfig::with_particles(particles, origin, cfg);
                let o = Process::Sequential.run(
                    g,
                    &FirstVacant,
                    &ecfg,
                    &mut (&mut shape, &mut phases),
                    rng,
                )?;
                let s = &shape.snapshots[0].1;
                out[0] = s.inner_radius;
                out[1] = s.outer_radius;
                out[2] = s.fluctuation();
                out[3] = s.roundness();
                out[4] = o.dispersion_time() as f64;
                out[5] = phases.phases[j_half] as f64;
                o.total_steps
            }
            Measure::CoverTime => {
                let (cover, steps) = cover_time(g, origin, cfg.step_cap, rng)?;
                out[0] = cover;
                steps
            }
        };
        Ok(steps)
    }
}

/// Simple-random-walk cover time from `origin`, on any neighbour oracle.
/// Returns `(cover_time, steps)` — identical here, but typed apart so the
/// caller can feed the step count into throughput accounting.
fn cover_time<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cap: u64,
    rng: &mut R,
) -> Result<(f64, u64), CellError> {
    let n = g.n();
    let mut visited = vec![false; n];
    visited[origin as usize] = true;
    let mut remaining = n - 1;
    let mut v = origin;
    let mut steps = 0u64;
    while remaining > 0 {
        v = g.random_step(v, rng);
        steps += 1;
        let slot = &mut visited[v as usize];
        if !*slot {
            *slot = true;
            remaining -= 1;
        }
        if steps > cap {
            return Err(CellError::Engine(EngineError::StepCapExceeded {
                schedule: "cover",
                cap,
                unsettled: remaining,
            }));
        }
    }
    Ok((steps as f64, steps))
}

/// How many trials a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Exactly this many trials.
    Trials(usize),
    /// Adaptive stopping: run at least `min_trials`, then stop as soon as
    /// the relative 95% CI half-width of the cell's primary statistic
    /// drops to `rel` or below, capped at `max_trials`. The stopping rule
    /// is evaluated only at deterministic round boundaries, so the trial
    /// count is identical for every `--threads` setting.
    CiHalfWidth {
        /// Target relative half-width (`1.96·sem / |mean|`).
        rel: f64,
        /// Trials to run before the first check.
        min_trials: usize,
        /// Hard ceiling on trials.
        max_trials: usize,
    },
}

impl Budget {
    /// Compact label for cell keys, e.g. `"t100"` or `"ci0.02:30:10000"`.
    pub fn label(&self) -> String {
        match self {
            Budget::Trials(n) => format!("t{n}"),
            Budget::CiHalfWidth {
                rel,
                min_trials,
                max_trials,
            } => format!("ci{rel}:{min_trials}:{max_trials}"),
        }
    }
}

/// One cell of the experiment grid.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The graph instance.
    pub family: FamilySpec,
    /// What each trial measures.
    pub measure: Measure,
    /// How many trials to run.
    pub budget: Budget,
    /// Process configuration (walk flavour, step cap).
    pub cfg: ProcessConfig,
    /// Explicit master seed; `None` derives one from `(spec seed, cell
    /// id)`. Legacy binaries pin their historical sweep seeds here.
    pub master_seed: Option<u64>,
}

impl CellSpec {
    /// A cell with 100 trials, the simple walk config, and a derived
    /// master seed.
    pub fn new(family: FamilySpec, measure: Measure) -> Self {
        CellSpec {
            family,
            measure,
            budget: Budget::Trials(100),
            cfg: ProcessConfig::simple(),
            master_seed: None,
        }
    }

    /// Sets the trial budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the process configuration.
    pub fn config(mut self, cfg: ProcessConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pins the master seed the per-trial RNG streams derive from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = Some(seed);
        self
    }
}

/// A whole declarative experiment: a seed plus a list of cells.
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    /// Spec-level seed; cells without an explicit master seed derive
    /// theirs from `(seed, cell id)`.
    pub seed: u64,
    /// The cells, in declaration order (= cell id order).
    pub cells: Vec<CellSpec>,
}

impl ExperimentSpec {
    /// An empty spec with the given seed.
    pub fn new(seed: u64) -> Self {
        ExperimentSpec {
            seed,
            cells: Vec::new(),
        }
    }

    /// Appends a cell and returns its cell id.
    pub fn push(&mut self, cell: CellSpec) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Builder-style [`ExperimentSpec::push`].
    #[must_use]
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the spec has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The master seed of cell `id`: its explicit override, or a value
    /// derived deterministically from `(spec seed, id)`.
    pub fn master_seed(&self, id: usize) -> u64 {
        self.cells[id].master_seed.unwrap_or_else(|| {
            let mut s = self.seed ^ (id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            splitmix64(&mut s)
        })
    }

    /// The resume fingerprint of cell `id`: everything that determines the
    /// cell's result, including the process configuration (walk kind and
    /// step cap). A checkpoint record is only reused when both its cell id
    /// and its key match the spec being run.
    pub fn cell_key(&self, id: usize) -> String {
        let c = &self.cells[id];
        let origin = c
            .family
            .origin
            .map(|v| format!(":o{v}"))
            .unwrap_or_default();
        format!(
            "{}:n{}:{}:{}:{}:m{:x}:g{:x}:w{:?}:c{:x}{}",
            c.family.family.label(),
            c.family.size,
            c.measure.label(),
            c.family.backend.label(),
            c.budget.label(),
            self.master_seed(id),
            c.family.graph_seed,
            c.cfg.walk,
            c.cfg.step_cap,
            origin
        )
    }
}

/// Why a cell failed (surfaced as an error record, not a panic).
#[derive(Clone, Debug, PartialEq)]
pub enum CellError {
    /// The engine aborted (step cap).
    Engine(EngineError),
    /// The spec asked for something the backend cannot do.
    Invalid(String),
    /// A [`CancelToken`](crate::runner::CancelToken) fired: the cell was
    /// stopped cooperatively at a trial boundary, keeping the statistics
    /// of the trials that completed.
    Cancelled,
}

impl From<EngineError> for CellError {
    fn from(e: EngineError) -> Self {
        CellError::Engine(e)
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Engine(e) => write!(f, "{e}"),
            CellError::Invalid(msg) => write!(f, "{msg}"),
            CellError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn resolve_explicit_and_implicit_agree_on_size() {
        let e = FamilySpec::explicit(Family::Cycle, 32).resolve().unwrap();
        let i = FamilySpec::implicit(Family::Cycle, 32).resolve().unwrap();
        assert_eq!(e.n(), 32);
        assert_eq!(i.n(), 32);
        assert_eq!(e.origin, i.origin);
        assert_eq!(e.label, "cycle");
    }

    #[test]
    fn implicit_unavailable_is_an_error() {
        let err = FamilySpec::implicit(Family::BinaryTree, 63)
            .resolve()
            .unwrap_err();
        assert!(matches!(err, CellError::Invalid(_)), "{err}");
    }

    #[test]
    fn degenerate_cells_become_error_records() {
        use crate::runner::Runner;
        use crate::sink::MemorySink;
        let e = FamilySpec::explicit;
        let i = FamilySpec::implicit;
        let cases = [
            e(Family::Path, 0),
            i(Family::Path, 0),
            e(Family::Cycle, 0),
            i(Family::Cycle, 0),
            e(Family::Complete, 0),
            i(Family::Complete, 0),
            e(Family::Star, 0),
            e(Family::Lollipop, 3),
            e(Family::RandomRegular(1), 16),
            e(Family::RandomRegular(16), 16),
            e(Family::Hypercube, 1 << 31),
            i(Family::Hypercube, 1 << 31),
            e(Family::Cycle, 8).origin(8),
            i(Family::Torus2d, 16).origin(16),
        ];
        for fam in cases {
            assert!(
                matches!(fam.resolve(), Err(CellError::Invalid(_))),
                "{fam:?}"
            );
            let spec = ExperimentSpec::new(1).cell(
                CellSpec::new(fam.clone(), Measure::Dispersion(Process::Sequential))
                    .budget(Budget::Trials(4)),
            );
            let records = Runner::new(2).run(&spec, &[], &mut MemorySink::default());
            let err = records[0].error.as_deref().unwrap_or_default();
            assert!(err.starts_with("trial 0: "), "{fam:?}: {err:?}");
            assert!(!err.contains("panicked:"), "{fam:?}: {err}");
            assert_eq!(records[0].trials, 0, "{fam:?}");
        }
    }

    #[test]
    fn graph_keys_ignore_seeds_no_builder_reads() {
        let e = FamilySpec::explicit;
        let key = |f: FamilySpec| f.graph_key();
        assert_eq!(
            key(e(Family::Torus3d, 64).graph_seed(1)),
            key(e(Family::Torus3d, 64).graph_seed(2))
        );
        assert_ne!(
            key(e(Family::RandomRegular(4), 64).graph_seed(1)),
            key(e(Family::RandomRegular(4), 64).graph_seed(2))
        );
        let base = key(e(Family::Cycle, 64));
        assert_ne!(base, key(e(Family::Cycle, 65)));
        // within the budget an implicit request builds the same CSR graph;
        // past it, the closed form
        assert_eq!(base, key(FamilySpec::implicit(Family::Cycle, 64)));
        let big = 1 << 20;
        assert_ne!(
            key(e(Family::Cycle, big)),
            key(FamilySpec::implicit(Family::Cycle, big))
        );
        assert_ne!(base, key(e(Family::Cycle, 64).origin(3)));
    }

    #[test]
    fn implicit_requests_build_csr_within_the_budget() {
        let i = FamilySpec::implicit;
        let is_csr = |f: FamilySpec| matches!(f.resolve().unwrap().topo, ResolvedTopo::Explicit(_));
        // 256² vertices × 4 slots × 4 bytes: exactly the budget
        assert!(is_csr(i(Family::Torus2d, 256 * 256)));
        assert!(!is_csr(i(Family::Torus2d, 257 * 257)));
        // 14 · 2¹⁴ · 4 bytes fits, 15 · 2¹⁵ · 4 does not
        assert!(is_csr(i(Family::Hypercube, 1 << 14)));
        assert!(!is_csr(i(Family::Hypercube, 1 << 15)));
        assert!(is_csr(i(Family::Path, 64)));
        assert!(is_csr(i(Family::Cycle, 64)));
        // the clique's n² arcs lose to its closed form at every size
        assert!(!is_csr(i(Family::Complete, 16)));
        let e = FamilySpec::explicit(Family::Hypercube, 64)
            .resolve()
            .unwrap();
        let c = i(Family::Hypercube, 64).resolve().unwrap();
        assert_eq!((c.n(), c.origin, c.label), (e.n(), e.origin, e.label));
        let closed = i(Family::Hypercube, 64).resolve_closed_form().unwrap();
        assert!(matches!(closed.topo, ResolvedTopo::Implicit(_)));
    }

    #[test]
    fn implicit_records_match_explicit_within_the_budget() {
        use crate::runner::Runner;
        use crate::sink::MemorySink;
        let measures = [
            Measure::Dispersion(Process::Sequential),
            Measure::Dispersion(Process::Parallel),
            Measure::Dispersion(Process::Uniform),
            Measure::Dispersion(Process::Ctu),
            Measure::ParallelWithHalf,
            Measure::TotalSteps(Process::Parallel),
            Measure::TorusShapeHalfFill,
            Measure::CoverTime,
        ];
        let cfg = ProcessConfig::simple();
        for family in [
            Family::Path,
            Family::Cycle,
            Family::Torus2d,
            Family::Hypercube,
        ] {
            // every size is a square, as the shape measure asks
            let spec = |fam: FamilySpec| {
                let mut spec = ExperimentSpec::new(5);
                for m in measures {
                    spec.push(CellSpec::new(fam.clone(), m).budget(Budget::Trials(3)));
                }
                Runner::new(2).run(&spec, &[], &mut MemorySink::default())
            };
            let explicit = spec(FamilySpec::explicit(family, 64));
            let implicit = spec(FamilySpec::implicit(family, 64));
            for (e, i) in explicit.iter().zip(&implicit) {
                assert!(e.error.is_none(), "{e:?}");
                assert_eq!(i.backend, "implicit");
                assert_eq!(
                    e.to_json_line(),
                    i.to_json_line().replace("implicit", "explicit")
                );
            }
            // and the closed form the budget sets aside takes the same
            // draws as the CSR graph it builds instead
            let csr = FamilySpec::implicit(family, 64).resolve().unwrap();
            let closed = FamilySpec::implicit(family, 64)
                .resolve_closed_form()
                .unwrap();
            for m in measures {
                let mut a = vec![0.0; m.stat_names().len()];
                let mut b = a.clone();
                let sa = m.run_trial(&csr, &cfg, &mut a, &mut Xoshiro256pp::new(3));
                let sb = m.run_trial(&closed, &cfg, &mut b, &mut Xoshiro256pp::new(3));
                assert_eq!(sa, sb, "{} {m:?}", family.label());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{} {m:?}", family.label());
            }
        }
    }

    #[test]
    fn origin_override_respected() {
        let r = FamilySpec::explicit(Family::Torus2d, 64)
            .origin(27)
            .resolve()
            .unwrap();
        assert_eq!(r.origin, 27);
    }

    #[test]
    fn measure_arity_matches_names() {
        let cell = FamilySpec::explicit(Family::Complete, 16)
            .resolve()
            .unwrap();
        let cfg = ProcessConfig::simple();
        for m in [
            Measure::Dispersion(Process::Sequential),
            Measure::ParallelWithHalf,
            Measure::TotalSteps(Process::Parallel),
            Measure::CoverTime,
        ] {
            let mut out = vec![f64::NAN; m.stat_names().len()];
            let mut rng = Xoshiro256pp::new(1);
            m.run_trial(&cell, &cfg, &mut out, &mut rng).unwrap();
            assert!(out.iter().all(|x| x.is_finite()), "{m:?}: {out:?}");
        }
    }

    #[test]
    fn shape_measure_requires_square_torus() {
        let cell = FamilySpec::explicit(Family::Complete, 16)
            .resolve()
            .unwrap();
        let mut out = [0.0; 6];
        let mut rng = Xoshiro256pp::new(1);
        // complete(16) has n = 16 = 4², so it passes the square check and
        // simply measures a (degenerate) shape; a non-square n must error
        let cell9 = FamilySpec::explicit(Family::Complete, 15)
            .resolve()
            .unwrap();
        let err = Measure::TorusShapeHalfFill
            .run_trial(&cell9, &ProcessConfig::simple(), &mut out, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CellError::Invalid(_)));
        drop(cell);
    }

    #[test]
    fn cover_time_visits_everything() {
        let cell = FamilySpec::explicit(Family::Cycle, 24).resolve().unwrap();
        let mut out = [0.0];
        let mut rng = Xoshiro256pp::new(5);
        Measure::CoverTime
            .run_trial(&cell, &ProcessConfig::simple(), &mut out, &mut rng)
            .unwrap();
        // covering a 24-cycle needs at least n - 1 steps
        assert!(out[0] >= 23.0);
    }

    #[test]
    fn cover_time_cap_surfaces_as_error() {
        let cell = FamilySpec::explicit(Family::Cycle, 64).resolve().unwrap();
        let mut out = [0.0];
        let mut rng = Xoshiro256pp::new(5);
        let err = Measure::CoverTime
            .run_trial(
                &cell,
                &ProcessConfig::simple().with_cap(3),
                &mut out,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CellError::Engine(EngineError::StepCapExceeded { .. })
        ));
    }

    #[test]
    fn master_seed_override_and_derivation() {
        let mut spec = ExperimentSpec::new(9);
        let a = spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 16),
                Measure::Dispersion(Process::Sequential),
            )
            .master_seed(1234),
        );
        let b = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Complete, 16),
            Measure::Dispersion(Process::Parallel),
        ));
        assert_eq!(spec.master_seed(a), 1234);
        assert_ne!(spec.master_seed(b), spec.master_seed(a));
        // derived seeds depend on the spec seed
        let spec2 = ExperimentSpec {
            seed: 10,
            ..spec.clone()
        };
        assert_eq!(spec2.master_seed(a), 1234, "override survives seed change");
        assert_ne!(spec2.master_seed(b), spec.master_seed(b));
    }

    #[test]
    fn cell_keys_fingerprint_the_cell() {
        let mut spec = ExperimentSpec::new(1);
        let a = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Cycle, 32),
            Measure::Dispersion(Process::Sequential),
        ));
        let b = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Cycle, 32),
            Measure::Dispersion(Process::Parallel),
        ));
        assert_ne!(spec.cell_key(a), spec.cell_key(b));
        assert!(spec.cell_key(a).contains("cycle:n32:seq:explicit:t100"));
    }

    #[test]
    fn budget_labels() {
        assert_eq!(Budget::Trials(40).label(), "t40");
        assert_eq!(
            Budget::CiHalfWidth {
                rel: 0.02,
                min_trials: 30,
                max_trials: 10_000
            }
            .label(),
            "ci0.02:30:10000"
        );
    }
}
