#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # summitfold-bench
//!
//! The reproduction harness: one module per table/figure/number in the
//! paper's evaluation section, each regenerating its artifact from the
//! workspace's models and writing Markdown plus side files into
//! `results/` (full size) or `results/quick/` (`--quick`).
//!
//! Run everything, or check every committed artifact, with:
//!
//! ```text
//! cargo run --release -p summitfold-bench --bin repro -- all [--quick]
//! cargo run --release -p summitfold-bench --bin repro -- check
//! ```
//!
//! The experiments are listed in [`harness::EXPERIMENTS`].

pub mod harness;
pub mod microbench;
pub mod report;
