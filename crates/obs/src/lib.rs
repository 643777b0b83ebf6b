#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! summitfold-obs: the workspace telemetry layer.
//!
//! The paper's operational analysis (Fig 2 load balance, Table 2
//! node-hour accounting) is built from per-task statistics that every
//! Dask task appends as it completes (§3.3 step 3e). This crate is the
//! reproduction's equivalent substrate: a zero-dependency observability
//! subsystem that every executor and pipeline stage can record into.
//!
//! * [`Recorder`] — append-only event log: hierarchical spans
//!   (batch → stage → task), counters, gauges, histograms. Thread-safe
//!   behind `&self`; an enabled recorder retains every event, and
//!   [`Recorder::disabled`] is a free no-op for uninstrumented calls.
//! * [`Clock`] — pluggable time source. [`VirtualClock`] gives
//!   deterministic traces for the simulator and all repro-number paths;
//!   [`WallClock`] (quarantined in `wall.rs`, the one sfcheck-exempt
//!   module) times real thread batches.
//! * [`Event`] — the closed JSONL schema; [`Trace`] parses it back and
//!   derives every view (span durations, counter totals, task rows) so
//!   CSV and Gantt artifacts regenerate byte-identically from a trace
//!   file.
//! * [`Sink`] — incremental consumers that fold events one at a time,
//!   fed by their callers; [`RingSink`] keeps the newest `N` and counts
//!   what it evicted.
//! * [`Monitor`] — a `Sink` folding completions into campaign health
//!   ([`HealthSnapshot`]: done/total, throughput, utilization,
//!   stragglers, budget burn, ETA); the executors feed it a batch's
//!   completions for progress gauges, the folding service one tenant's
//!   settlements.
//! * [`TraceDiff`] — relative-threshold comparison of two traces
//!   ([`Trace::diff`]), the regression gate behind `lens --diff`.
//! * [`lineage`] — causal task attribution over a trace: per-task
//!   [`Journey`]s, critical-path extraction ([`CriticalPath`]) and the
//!   load-imbalance report ([`ImbalanceReport`]) behind
//!   `lens journey|critical-path|imbalance`, plus the `lineage/*`
//!   breadcrumb emit helpers.

pub mod clock;
pub mod diff;
pub mod event;
pub mod json;
pub mod lineage;
pub mod monitor;
pub mod recorder;
pub mod sink;
pub mod trace;
pub mod wall;

pub use clock::{Clock, VirtualClock};
pub use diff::{DiffClass, DiffEntry, TraceDiff};
pub use event::{Event, SpanId};
pub use lineage::{CriticalPath, ImbalanceReport, Journey, Truncation};
pub use monitor::{HealthSnapshot, Monitor, MonitorConfig};
pub use recorder::Recorder;
pub use sink::{RingSink, Sink};
pub use trace::{HistogramView, SpanView, TaskView, Trace, TraceError};
pub use wall::WallClock;
