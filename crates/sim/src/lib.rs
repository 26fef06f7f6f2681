//! # dispersion-sim
//!
//! Monte-Carlo harness for the dispersion-time reproduction:
//!
//! * [`rng::Xoshiro256pp`] — fast seedable RNG behind the `rand` traits,
//! * [`parallel::par_trials`] — deterministic trial-level multithreading
//!   for drivers that need every per-trial sample (quantiles, KS tests,
//!   gadget graphs, custom settle rules),
//! * [`stats::Summary`] / [`stats::Online`] — two-pass and streaming
//!   one-pass statistics,
//! * [`dominance`] — KS tests and empirical stochastic-dominance checks
//!   (the statistics behind the Theorem 4.1 verification),
//! * [`fit`] — `a·n^b·(ln n)^c` scaling-law fitting for Table 1 shapes,
//! * [`table`] — text/CSV output,
//! * [`json`] — the shared dependency-free JSON codec (exact f64
//!   roundtrip; used by the NDJSON sinks and the `dispersion-serve`
//!   wire format),
//! * [`spec`] / [`runner`] / [`sink`] — the declarative experiment
//!   pipeline: describe a (family × size × schedule) grid once as an
//!   [`spec::ExperimentSpec`], let the streaming [`runner::Runner`]
//!   execute it deterministically across threads with adaptive
//!   trial budgets, and receive [`sink::Record`]s on pluggable
//!   [`sink::Sink`]s (tables, CSV, NDJSON checkpoints, memory).
//!
//! ```
//! use dispersion_core::Process;
//! use dispersion_graphs::families::Family;
//! use dispersion_sim::sink::MemorySink;
//! use dispersion_sim::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure, Runner};
//!
//! let spec = ExperimentSpec::new(7).cell(
//!     CellSpec::new(
//!         FamilySpec::explicit(Family::Complete, 64),
//!         Measure::Dispersion(Process::Sequential),
//!     )
//!     .budget(Budget::Trials(100)),
//! );
//! let records = Runner::new(2).run(&spec, &[], &mut MemorySink::default());
//! assert!(records[0].mean("time") > 64.0); // t_seq(K_n) ≈ 1.255 n
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
pub mod fit;
pub mod histogram;
pub mod json;
pub mod parallel;
pub mod rng;
pub mod runner;
pub mod sink;
pub mod spec;
pub mod stats;
pub mod table;

pub use parallel::{default_threads, par_trials};
pub use rng::Xoshiro256pp;
pub use runner::Runner;
pub use sink::{Record, Sink};
pub use spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
pub use stats::{Online, Summary};
