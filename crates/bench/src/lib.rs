//! # dispersion-bench
//!
//! Experiment drivers shared by the reproduction binaries (`src/bin/*.rs`,
//! one per experiment of the paper, plus the `engine_throughput` baseline).
//! Performance is measured by the standalone `perfbench/` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod drive;
pub mod sweep;

pub use args::{usage_error, Options, OutputFormat};
pub use drive::{report_errors, run_spec};
