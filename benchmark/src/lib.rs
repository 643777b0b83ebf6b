//! # sfbench — summitfold's wall-clock benchmark
//!
//! Six workloads, two ledgers, per-layer attribution; see `README.md`.
//! The package sits outside the root workspace on purpose and measures
//! the product crates **from outside only**: it times calls into their
//! public functions from its own code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod json;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
