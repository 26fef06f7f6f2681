//! # dispersion-bench
//!
//! Experiment drivers shared by the reproduction binaries (`src/bin/*.rs`,
//! one per experiment in DESIGN.md) and the Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod drive;
pub mod sweep;

pub use args::{Backend, Options, OutputFormat};
pub use drive::{report_errors, run_spec};
