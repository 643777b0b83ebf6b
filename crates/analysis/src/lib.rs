#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # summitfold-analysis
//!
//! `sfcheck`: the workspace invariant linter. DESIGN.md stakes the
//! reproduction on two properties — bit-for-bit determinism of seeded
//! runs, and a panic-free, `unsafe`-free core — and at the paper's scale
//! (35,634 sequences across 6,000 GPUs) a single nondeterministic
//! ordering or panicking worker invalidates a multi-thousand-node-hour
//! campaign. This crate enforces those properties mechanically on every
//! `cargo test` run instead of trusting review:
//!
//! * **determinism** — no `HashMap`/`HashSet`, wall-clock time,
//!   `std::env`, or thread-identity logic in the deterministic crates;
//! * **panic-hygiene** — no `unwrap`/`expect`/`panic!`-family macros in
//!   non-test library code;
//! * **unsafe** — `#![forbid(unsafe_code)]` on every crate root and no
//!   `unsafe` token anywhere;
//! * **manifest** — every declared dependency is referenced in source
//!   (the dead-`rand` regression class), and every
//!   `[workspace.dependencies]` entry is consumed by a member.
//!
//! v2 adds a second, *workspace-flow* phase: every file is first reduced
//! to a [`facts::FileFacts`] table (mutex declarations, lock sites with
//! guard scopes, blocking calls under guards, metric-path literals), and
//! phase-2 rules score the merged table:
//!
//! * **lock-discipline** — the crate-qualified lock-order graph must be
//!   acyclic, and no guard may be held across spawn/join/recv/file IO;
//! * **lock-unwrap** — `.lock().unwrap()` propagates poison as a panic;
//!   recover with `.unwrap_or_else(PoisonError::into_inner)`;
//! * **metric-parity** — metric paths under an owned prefix (`cache/`,
//!   `fault/`, `recovery/`, `lineage/`, `dataflow/`, `service/live_`)
//!   are recorded from their one owning file, so both executors reach
//!   the same recording site and parity holds by construction;
//! * **allow-audit** — an `sfcheck::allow` that suppresses nothing is
//!   itself a finding, so escape hatches cannot rot silently.
//!
//! Findings are token-accurate (a comment-/string-aware lexer, not a
//! regex), and each rule has a per-line escape hatch:
//!
//! ```text
//! // sfcheck::allow(rule-name, reason the invariant holds anyway)
//! ```
//!
//! Run it as `cargo run -p summitfold-analysis --bin sfcheck`, or rely
//! on the root integration test `tests/static_analysis.rs`, which fails
//! the tier-1 gate on any unallowed finding.

pub mod config;
pub mod engine;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod wsrules;

pub use config::{Config, FileKind};
pub use engine::{check_workspace, check_workspace_with, CheckError};
pub use report::{render, render_json, Finding, Rule};
