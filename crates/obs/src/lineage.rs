//! Causal task lineage: journeys, critical-path extraction, and
//! load-imbalance attribution over a recorded [`Trace`].
//!
//! The paper's Fig. 2 claim — thousands of nodes kept load-balanced at
//! proteome scale — is only checkable with per-task attribution of
//! where wall-time goes. This module folds the existing trace stream
//! (spans, task rows, counters, gauges) plus a small closed family of
//! causally-linked `lineage/*` breadcrumbs into three views:
//!
//! * [`journeys_of`] — one [`Journey`] per task: admission, WAL append,
//!   cache lookup outcome, every execution (quarantine reruns, rows that
//!   never completed), and settlement, on one absolute timeline;
//! * [`critical_path_of`] — the dependency-ordered chain of task
//!   intervals whose durations plus waits telescope exactly to the
//!   campaign makespan, with a per-category breakdown (queue-wait vs
//!   compute vs cache);
//! * [`imbalance_of`] — per-worker busy/idle/finish attribution with
//!   Gini and coefficient-of-variation imbalance coefficients and the
//!   top-k straggler tasks, each with its journey breakdown.
//!
//! # The `lineage/*` event grammar
//!
//! Every breadcrumb is an [`Event::Lineage`] whose `name` is one of the
//! phases below, emitted **only** by this module's emit helpers (pinned
//! by sfcheck's metric-ownership rule, a hard finding no allow directive
//! covers), so both executors produce identical lineage streams by
//! construction:
//!
//! | name                     | `t` carries                              |
//! |--------------------------|------------------------------------------|
//! | `lineage/admitted`       | queue arrival instant (clock seconds)    |
//! | `lineage/wal`            | WAL admit block durable (clock seconds)  |
//! | `lineage/settled`        | settlement instant (clock seconds)       |
//! | `lineage/cache_hit`      | cache lookup resolved (clock seconds)    |
//! | `lineage/cache_near_hit` | cache lookup resolved (clock seconds)    |
//! | `lineage/cache_miss`     | cache lookup resolved (clock seconds)    |
//!
//! Any other phase — a future extension, or the legacy retry breadcrumb
//! older traces carry for rerun tasks — parses and carries no journey
//! field.
//!
//! # Executor equivalence
//!
//! All three reports are pure deterministic functions of the trace. On
//! the virtual clock a campaign's trace is byte-stable run to run, so
//! its reports are too (pinned in tests, and `repro check` regenerates
//! the committed fig2 trace and both reports byte for byte). The thread
//! backend measures wall time with racy worker assignment, so its
//! *timings* differ run to run; the executor-invariant projection —
//! task set, attempts, lineage breadcrumb structure — is identical by
//! construction, and the canonical attribution
//! basis for a thread-run campaign is its deterministic virtual replay
//! of the same plan.
//!
//! # Truncated traces
//!
//! The recorder retains every event, so a trace it writes is complete.
//! A trace that reaches the reports from elsewhere may not be: a file
//! cut short, a suffix of a longer capture, or a foreign trace whose
//! producer dropped events and said so with a [`DROPPED_EVENTS_GAUGE`]
//! gauge. A report over such a trace silently under-attributes, since
//! the missing events erase executions and breadcrumbs. [`truncation_of`]
//! detects truncation structurally (counters whose first retained
//! increment already carries history, span ends without starts, task
//! rows referencing missing spans) and from that gauge; every report
//! JSON embeds the verdict so downstream consumers cannot mistake a
//! partial report for a complete one.

use crate::event::Event;
use crate::json::ObjectWriter;
use crate::recorder::Recorder;
use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Queue arrival admitted: the task became part of an accepted
/// submission at clock second `t`.
pub fn admitted(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/admitted", task, t);
}

/// The admission WAL block covering the task became durable at `t`.
pub fn wal(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/wal", task, t);
}

/// The task settled (result accounted, charged, and stored) at `t`.
pub fn settled(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/settled", task, t);
}

/// A content-addressed cache lookup for the task resolved to an exact
/// hit at `t`.
pub fn cache_hit(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/cache_hit", task, t);
}

/// A cache lookup resolved to a near-duplicate hit at `t`.
pub fn cache_near_hit(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/cache_near_hit", task, t);
}

/// A cache lookup resolved to a miss at `t`.
pub fn cache_miss(rec: &Recorder, task: &str, t: f64) {
    rec.lineage("lineage/cache_miss", task, t);
}

/// Outcome of a task's content-addressed cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact content hit; the task settles without executing.
    Hit,
    /// Near-duplicate hit; downstream work is discounted.
    NearHit,
    /// Miss; the task executes in full.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase label used in JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::NearHit => "near_hit",
            Self::Miss => "miss",
        }
    }
}

/// One execution of a task, on the trace's absolute timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Worker that ran it.
    pub worker: usize,
    /// Absolute start (clock seconds; the enclosing span's start plus
    /// the task row's relative start).
    pub start: f64,
    /// Absolute end, same timebase.
    pub end: f64,
    /// Attempts including the successful one; 0 marks an execution that
    /// never completed (kept, but never counted as a completion).
    pub attempts: u32,
}

impl Execution {
    /// Execution duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One task's reconstructed journey through the system.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journey {
    /// Task identifier (service tasks carry `tenant:campaign:task`).
    pub task: String,
    /// Queue arrival instant, when the task went through admission.
    pub admitted_t: Option<f64>,
    /// Instant the admission WAL block became durable.
    pub wal_t: Option<f64>,
    /// Settlement instant.
    pub settled_t: Option<f64>,
    /// Cache lookup outcome and the instant it resolved.
    pub cache: Option<(CacheOutcome, f64)>,
    /// Executions in recorded order (completed, quarantine reruns, and
    /// cancelled rows that never completed).
    pub executions: Vec<Execution>,
}

impl Journey {
    /// Total executed seconds across completed executions (attempts ≥ 1).
    #[must_use]
    pub fn compute_s(&self) -> f64 {
        self.completed().map(Execution::duration).sum()
    }

    /// Seconds between admission and first execution start, if both are
    /// known (the task's time in the queue).
    #[must_use]
    pub fn queue_wait_s(&self) -> Option<f64> {
        let first = self.first_start()?;
        self.admitted_t.map(|a| (first - a).max(0.0))
    }

    /// Seconds between last execution end and settlement, if both are
    /// known.
    #[must_use]
    pub fn settle_lag_s(&self) -> Option<f64> {
        let last = self.last_end()?;
        self.settled_t.map(|s| (s - last).max(0.0))
    }

    /// Cache lookup latency: lookup resolution minus admission, when
    /// both instants are known.
    #[must_use]
    pub fn cache_lookup_s(&self) -> Option<f64> {
        let (_, lookup) = self.cache?;
        self.admitted_t.map(|a| (lookup - a).max(0.0))
    }

    /// Number of cancelled executions (attempts = 0).
    #[must_use]
    pub fn cancelled_executions(&self) -> usize {
        self.executions.iter().filter(|e| e.attempts == 0).count()
    }

    /// Largest attempt count across completed executions (0 = the task
    /// never completed an execution, e.g. settled from cache).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.completed().map(|e| e.attempts).max().unwrap_or(0)
    }

    /// Earliest completed-execution start on the absolute timeline.
    #[must_use]
    pub fn first_start(&self) -> Option<f64> {
        self.completed().map(|e| e.start).reduce(f64::min)
    }

    /// Latest completed-execution end on the absolute timeline.
    #[must_use]
    pub fn last_end(&self) -> Option<f64> {
        self.completed().map(|e| e.end).reduce(f64::max)
    }

    fn completed(&self) -> impl Iterator<Item = &Execution> {
        self.executions.iter().filter(|e| e.attempts >= 1)
    }

    /// Machine-readable journey (one JSON object, arrays embedded).
    #[must_use]
    pub fn to_json(&self, truncation: &Truncation) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("task", &self.task);
        opt_num(&mut w, "admitted_t", self.admitted_t);
        opt_num(&mut w, "wal_t", self.wal_t);
        opt_num(&mut w, "settled_t", self.settled_t);
        match self.cache {
            Some((outcome, t)) => {
                w.str_field("cache", outcome.label());
                w.num_field("cache_t", t);
            }
            None => {
                w.null_field("cache");
                w.null_field("cache_t");
            }
        }
        opt_num(&mut w, "queue_wait_s", self.queue_wait_s());
        w.num_field("compute_s", self.compute_s());
        opt_num(&mut w, "settle_lag_s", self.settle_lag_s());
        w.int_field("cancelled_executions", self.cancelled_executions() as u64);
        let execs: Vec<String> = self
            .executions
            .iter()
            .map(|e| {
                let mut ew = ObjectWriter::new();
                ew.int_field("worker", e.worker as u64);
                ew.num_field("start", e.start);
                ew.num_field("end", e.end);
                ew.int_field("attempts", u64::from(e.attempts));
                ew.finish()
            })
            .collect();
        w.raw_field("executions", &format!("[{}]", execs.join(",")));
        truncation.embed(&mut w);
        w.finish()
    }

    /// Human-readable journey timeline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "journey {}", self.task);
        if let Some(t) = self.admitted_t {
            let _ = writeln!(out, "  admitted   t={t:.3}s");
        }
        if let Some(t) = self.wal_t {
            let _ = writeln!(out, "  wal        t={t:.3}s");
        }
        if let Some((outcome, t)) = self.cache {
            let _ = writeln!(out, "  cache      {} t={t:.3}s", outcome.label());
        }
        for e in &self.executions {
            if e.attempts == 0 {
                let _ = writeln!(
                    out,
                    "  cancelled  worker {} [{:.3}s..{:.3}s] never completed",
                    e.worker, e.start, e.end
                );
            } else {
                let _ = writeln!(
                    out,
                    "  executed   worker {} [{:.3}s..{:.3}s] {:.3}s attempts={}",
                    e.worker,
                    e.start,
                    e.end,
                    e.duration(),
                    e.attempts
                );
            }
        }
        if let Some(w) = self.queue_wait_s() {
            let _ = writeln!(out, "  queue wait {w:.3}s");
        }
        if let Some(t) = self.settled_t {
            let _ = writeln!(out, "  settled    t={t:.3}s");
        }
        out
    }
}

/// One lineage-bearing event: a task row on the absolute timeline, or a
/// breadcrumb `(task, phase, t)`.
enum Step<'t> {
    Row(&'t str, Execution),
    Crumb(&'t str, &'t str, f64),
}

/// Walk the trace once, resolving each task row against its enclosing
/// span's start (rows without an opened span resolve against 0).
fn steps(trace: &Trace) -> impl Iterator<Item = Step<'_>> {
    let mut span_starts: BTreeMap<u64, f64> = BTreeMap::new();
    trace.events().iter().filter_map(move |e| match e {
        Event::SpanStart { id, t, .. } => {
            span_starts.insert(id.0, *t);
            None
        }
        Event::Task {
            span,
            task,
            worker,
            start,
            end,
            attempts,
        } => {
            let base = span
                .and_then(|s| span_starts.get(&s.0).copied())
                .unwrap_or(0.0);
            Some(Step::Row(
                task,
                Execution {
                    worker: *worker,
                    start: base + start,
                    end: base + end,
                    attempts: *attempts,
                },
            ))
        }
        Event::Lineage { name, task, t } => Some(Step::Crumb(task, name, *t)),
        _ => None,
    })
}

impl Journey {
    /// Apply one breadcrumb: `admitted`/`wal`/`settled`/cache keep the
    /// first occurrence.
    fn record(&mut self, phase: &str, t: f64) {
        match phase {
            "lineage/admitted" => {
                self.admitted_t.get_or_insert(t);
            }
            "lineage/wal" => {
                self.wal_t.get_or_insert(t);
            }
            "lineage/settled" => {
                self.settled_t.get_or_insert(t);
            }
            "lineage/cache_hit" => {
                self.cache.get_or_insert((CacheOutcome::Hit, t));
            }
            "lineage/cache_near_hit" => {
                self.cache.get_or_insert((CacheOutcome::NearHit, t));
            }
            "lineage/cache_miss" => {
                self.cache.get_or_insert((CacheOutcome::Miss, t));
            }
            // The grammar is closed; an unknown phase (a future
            // extension, or an older trace's legacy retry breadcrumb)
            // carries no journey field.
            _ => {}
        }
    }
}

/// A task row on the absolute timeline, keyed by its borrowed task id.
type Row<'t> = (&'t str, Execution);

/// The one borrowed pass every report reads.
struct Fold<'t> {
    /// Every task row, stably sorted by task id: the order
    /// `journeys_of(..).values()` flattens to, so a sum over it keeps
    /// its summation order and its bits.
    rows: Vec<Row<'t>>,
    /// Each breadcrumbed task's lineage fields, held in a [`Journey`]
    /// with no task id and no executions.
    crumbs: BTreeMap<&'t str, Journey>,
}

impl<'t> Fold<'t> {
    fn of(trace: &'t Trace) -> Self {
        let mut rows = Vec::new();
        let mut crumbs: BTreeMap<&str, Journey> = BTreeMap::new();
        for step in steps(trace) {
            match step {
                Step::Row(task, e) => rows.push((task, e)),
                Step::Crumb(task, phase, t) => crumbs.entry(task).or_default().record(phase, t),
            }
        }
        rows.sort_by_key(|&(task, _)| task);
        Self { rows, crumbs }
    }

    /// Each task's rows, in task-id order.
    fn tasks(&self) -> impl Iterator<Item = &[Row<'t>]> {
        self.rows.chunk_by(|a, b| a.0 == b.0)
    }

    /// Completed executions (attempts ≥ 1), in fold order.
    fn completed(&self) -> impl Iterator<Item = (&'t str, &Execution)> {
        self.rows
            .iter()
            .filter(|(_, e)| e.attempts >= 1)
            .map(|(task, e)| (*task, e))
    }

    /// The journey of one task, from its rows (one group of
    /// [`Fold::tasks`]) and its breadcrumbs.
    fn journey(&self, rows: &[Row<'_>]) -> Journey {
        let task = rows[0].0;
        Journey {
            task: task.to_owned(),
            executions: rows.iter().map(|(_, e)| e.clone()).collect(),
            ..self.crumbs.get(task).cloned().unwrap_or_default()
        }
    }
}

/// Fold a trace into per-task journeys, keyed by task id.
///
/// Absolute times come from resolving each task row against its
/// enclosing span's start (rows without a span resolve against 0).
/// Tasks known only from lineage breadcrumbs — e.g. cache-settled
/// service tasks that never execute — get a journey with no
/// executions. Repeated `admitted`/`wal`/`settled`/cache breadcrumbs
/// keep the first occurrence.
///
/// One borrowed pass over the trace, materialised with one owned id per
/// distinct task.
#[must_use]
pub fn journeys_of(trace: &Trace) -> BTreeMap<String, Journey> {
    let fold = Fold::of(trace);
    let mut journeys: BTreeMap<String, Journey> = fold
        .tasks()
        .map(|rows| {
            let j = fold.journey(rows);
            (j.task.clone(), j)
        })
        .collect();
    for (task, crumbs) in fold.crumbs {
        if !journeys.contains_key(task) {
            let j = Journey {
                task: task.to_owned(),
                ..crumbs
            };
            journeys.insert(j.task.clone(), j);
        }
    }
    journeys
}

/// The journey of one task, if the trace mentions it: one scan that
/// builds only that task's journey.
#[must_use]
pub fn journey_of(trace: &Trace, task: &str) -> Option<Journey> {
    let mut journey: Option<Journey> = None;
    for step in steps(trace) {
        let (Step::Row(id, _) | Step::Crumb(id, ..)) = &step;
        if *id != task {
            continue;
        }
        let j = journey.get_or_insert_with(|| Journey {
            task: task.to_owned(),
            ..Journey::default()
        });
        match step {
            Step::Row(_, e) => j.executions.push(e),
            Step::Crumb(_, phase, t) => j.record(phase, t),
        }
    }
    journey
}

/// One link of the critical-path chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLink {
    /// Task executed in this interval.
    pub task: String,
    /// Worker that ran it.
    pub worker: usize,
    /// Absolute start.
    pub start: f64,
    /// Absolute end.
    pub end: f64,
    /// Wait preceding this interval (from the predecessor's end, or
    /// from the campaign origin for the first link).
    pub wait_s: f64,
    /// Attempts recorded for the interval.
    pub attempts: u32,
}

impl ChainLink {
    /// Interval duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The extracted critical path and its category breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Earliest completed-execution start (the campaign origin). A trace
    /// has no batch-start row to anchor on, and on a dataflow batch the
    /// first task starts one dispatch gap after the batch does (the
    /// executor's per-task overhead: 30 s for the inference stage).
    pub origin: f64,
    /// Latest completed-execution end minus the origin. Because the
    /// origin is the first execution start, this is the executor's
    /// batch makespan minus one dispatch gap: the 30 s by which
    /// `BENCH_profile.json` trails `BENCH_dataflow.json` on the same
    /// fig2 batch (`repro profile` asserts it at both sizes).
    pub makespan_s: f64,
    /// Chain links in chronological order; durations plus waits
    /// telescope to the makespan.
    pub chain: Vec<ChainLink>,
    /// Busy seconds on the chain.
    pub compute_s: f64,
    /// Wait seconds on the chain (queue/dependency gaps).
    pub queue_wait_s: f64,
    /// Cache lookup latency on the chain ([`Journey::cache_lookup_s`]).
    pub cache_s: f64,
    /// Total idle seconds across all workers over the campaign window.
    pub idle_total_s: f64,
    /// Distinct workers that completed at least one execution.
    pub workers: usize,
}

impl CriticalPath {
    /// Busy seconds on the chain: its compute, every link's execution.
    #[must_use]
    pub fn critical_path_s(&self) -> f64 {
        self.compute_s
    }

    /// The accounting identity the extraction guarantees:
    /// `critical_path ≤ makespan ≤ critical_path + Σ idle`.
    ///
    /// Chain busy time cannot exceed the makespan, and every chain wait
    /// is idle time on that link's worker, so the makespan is covered
    /// by chain busy plus total idle. Holds exactly on virtual-clock
    /// traces; the tolerance absorbs wall-clock float noise.
    #[must_use]
    pub fn identity_holds(&self) -> bool {
        let eps = 1e-6 * self.makespan_s.max(1.0);
        let cp = self.critical_path_s();
        cp <= self.makespan_s + eps && self.makespan_s <= cp + self.idle_total_s + eps
    }

    /// Machine-readable report (one JSON object, chain embedded).
    #[must_use]
    pub fn to_json(&self, truncation: &Truncation) -> String {
        let mut w = ObjectWriter::new();
        w.num_field("makespan_s", self.makespan_s);
        w.num_field("critical_path_s", self.critical_path_s());
        w.num_field("origin_t", self.origin);
        w.int_field("chain_len", self.chain.len() as u64);
        w.num_field("compute_s", self.compute_s);
        w.num_field("queue_wait_s", self.queue_wait_s);
        w.num_field("cache_s", self.cache_s);
        w.num_field("idle_total_s", self.idle_total_s);
        w.int_field("workers", self.workers as u64);
        w.int_field("identity", u64::from(self.identity_holds()));
        let links: Vec<String> = self
            .chain
            .iter()
            .map(|l| {
                let mut lw = ObjectWriter::new();
                lw.str_field("task", &l.task);
                lw.int_field("worker", l.worker as u64);
                lw.num_field("start", l.start);
                lw.num_field("end", l.end);
                lw.num_field("wait_s", l.wait_s);
                lw.int_field("attempts", u64::from(l.attempts));
                lw.finish()
            })
            .collect();
        w.raw_field("chain", &format!("[{}]", links.join(",")));
        truncation.embed(&mut w);
        w.finish()
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.3}s busy over {} links, makespan {:.3}s ({} workers)",
            self.critical_path_s(),
            self.chain.len(),
            self.makespan_s,
            self.workers
        );
        let _ = writeln!(
            out,
            "  breakdown: compute {:.3}s | queue-wait {:.3}s | cache {:.3}s",
            self.compute_s, self.queue_wait_s, self.cache_s
        );
        let _ = writeln!(
            out,
            "  identity: critical_path ≤ makespan ≤ critical_path + Σ idle ({:.3}s) — {}",
            self.idle_total_s,
            if self.identity_holds() {
                "holds"
            } else {
                "VIOLATED"
            }
        );
        for l in &self.chain {
            let _ = writeln!(
                out,
                "  [{:.3}s..{:.3}s] worker {:>3} wait {:.3}s {}{}",
                l.start,
                l.end,
                l.worker,
                l.wait_s,
                l.task,
                if l.attempts > 1 {
                    format!(" (attempts={})", l.attempts)
                } else {
                    String::new()
                }
            );
        }
        out
    }
}

/// Extract the critical path from a trace. `None` when no completed
/// executions are recorded.
///
/// The chain is built backwards from the latest-ending execution: each
/// link's predecessor is the same-worker execution with the greatest
/// end not after the link's start (the interval the worker had to
/// finish before this one could run there). The gap between them is
/// the link's wait; the first link waits from the campaign origin.
/// Durations plus waits therefore telescope exactly to the makespan.
/// Ties (equal ends) break on lexicographically smaller task id, so
/// the extraction is deterministic for any fixed trace. An execution
/// already on the chain is never its own ancestor, so coincident
/// zero-length rows cannot loop the walk.
///
/// One borrowed pass over the trace; each predecessor search walks only
/// the current link's worker.
#[must_use]
pub fn critical_path_of(trace: &Trace) -> Option<CriticalPath> {
    let fold = Fold::of(trace);
    let execs: Vec<(&str, &Execution)> = fold.completed().collect();
    if execs.is_empty() {
        return None;
    }
    let origin = execs
        .iter()
        .map(|(_, e)| e.start)
        .fold(f64::INFINITY, f64::min);
    let last_end = execs.iter().map(|(_, e)| e.end).fold(0.0_f64, f64::max);
    let makespan = (last_end - origin).max(0.0);

    // Deterministic pick of the chain tail: latest end, then smaller id.
    let mut tail = 0;
    for (i, &(task, e)) in execs.iter().enumerate() {
        let (bt, be) = execs[tail];
        if e.end > be.end || (e.end == be.end && task < bt) {
            tail = i;
        }
    }
    // Each worker's executions in fold order, so a predecessor search
    // meets its candidates in the order a scan over all would.
    let mut by_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, (_, e)) in execs.iter().enumerate() {
        by_worker.entry(e.worker).or_default().push(i);
    }
    let mut on_chain = vec![false; execs.len()];
    let mut rev: Vec<ChainLink> = Vec::new();
    let mut current = tail;
    loop {
        let (ctask, ce) = execs[current];
        on_chain[current] = true;
        // Predecessor: same worker, end ≤ start (within float noise),
        // greatest end; ties break on smaller task id.
        let mut pred: Option<usize> = None;
        for &i in by_worker.get(&ce.worker).into_iter().flatten() {
            let (task, e) = execs[i];
            if on_chain[i] || e.end > ce.start + 1e-9 {
                continue;
            }
            match pred {
                None => pred = Some(i),
                Some(p) => {
                    let (pt, pe) = execs[p];
                    if e.end > pe.end || (e.end == pe.end && task < pt) {
                        pred = Some(i);
                    }
                }
            }
        }
        let wait = match pred {
            Some(p) => (ce.start - execs[p].1.end).max(0.0),
            None => (ce.start - origin).max(0.0),
        };
        rev.push(ChainLink {
            task: ctask.to_owned(),
            worker: ce.worker,
            start: ce.start,
            end: ce.end,
            wait_s: wait,
            attempts: ce.attempts,
        });
        match pred {
            Some(p) => current = p,
            None => break,
        }
    }
    rev.reverse();
    let chain = rev;

    let mut compute = 0.0;
    let mut wait = 0.0;
    let mut cache = 0.0;
    for l in &chain {
        compute += l.duration();
        wait += l.wait_s;
        cache += fold
            .crumbs
            .get(l.task.as_str())
            .and_then(Journey::cache_lookup_s)
            .unwrap_or(0.0);
    }

    let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
    for (_, e) in &execs {
        *busy.entry(e.worker).or_insert(0.0) += e.duration();
    }
    let idle_total = busy.values().map(|b| (makespan - b).max(0.0)).sum();

    Some(CriticalPath {
        origin,
        makespan_s: makespan,
        chain,
        compute_s: compute,
        queue_wait_s: wait,
        cache_s: cache,
        idle_total_s: idle_total,
        workers: busy.len(),
    })
}

/// One worker's load attribution over the campaign window.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoad {
    /// Worker id.
    pub worker: usize,
    /// Busy seconds (sum of completed-execution durations).
    pub busy_s: f64,
    /// Idle seconds over the campaign window (makespan minus busy).
    pub idle_s: f64,
    /// Absolute end of the worker's last execution.
    pub finish_t: f64,
    /// Completed executions on this worker.
    pub tasks: usize,
}

/// One straggler row: a top-k longest task with its journey breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Task id.
    pub task: String,
    /// Total executed seconds.
    pub duration_s: f64,
    /// Worker of the longest execution.
    pub worker: usize,
    /// Largest attempt count.
    pub attempts: u32,
    /// The task's journey (for its queue-wait breakdown).
    pub journey: Journey,
}

/// The load-imbalance report: the quantitative Fig-2 replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Campaign origin (earliest completed-execution start).
    pub origin: f64,
    /// Campaign makespan over completed executions.
    pub makespan_s: f64,
    /// Per-worker loads, ordered by worker id.
    pub workers: Vec<WorkerLoad>,
    /// Gini coefficient over per-worker busy time (0 = perfectly even).
    pub gini: f64,
    /// Coefficient of variation (population std / mean) of busy time.
    pub cov: f64,
    /// Mean busy seconds per worker.
    pub busy_mean_s: f64,
    /// Total idle seconds across workers.
    pub idle_total_s: f64,
    /// Aggregate utilization: busy / (workers × makespan), counting every
    /// worker that completed an execution (high-memory lane included)
    /// over the window from the first execution start to the last end.
    pub utilization: f64,
    /// Top-k longest tasks with journey breakdowns.
    pub stragglers: Vec<Straggler>,
}

impl ImbalanceReport {
    /// Machine-readable report (one JSON object, arrays embedded).
    #[must_use]
    pub fn to_json(&self, truncation: &Truncation) -> String {
        let mut w = ObjectWriter::new();
        w.num_field("makespan_s", self.makespan_s);
        w.int_field("workers", self.workers.len() as u64);
        w.num_field("gini", self.gini);
        w.num_field("cov", self.cov);
        w.num_field("busy_mean_s", self.busy_mean_s);
        w.num_field("idle_total_s", self.idle_total_s);
        w.num_field("utilization", self.utilization);
        let loads: Vec<String> = self
            .workers
            .iter()
            .map(|l| {
                let mut lw = ObjectWriter::new();
                lw.int_field("worker", l.worker as u64);
                lw.num_field("busy_s", l.busy_s);
                lw.num_field("idle_s", l.idle_s);
                lw.num_field("finish_t", l.finish_t);
                lw.int_field("tasks", l.tasks as u64);
                lw.finish()
            })
            .collect();
        w.raw_field("per_worker", &format!("[{}]", loads.join(",")));
        let stragglers: Vec<String> = self
            .stragglers
            .iter()
            .map(|s| {
                let mut sw = ObjectWriter::new();
                sw.str_field("task", &s.task);
                sw.num_field("duration_s", s.duration_s);
                sw.int_field("worker", s.worker as u64);
                sw.int_field("attempts", u64::from(s.attempts));
                opt_num(&mut sw, "queue_wait_s", s.journey.queue_wait_s());
                sw.finish()
            })
            .collect();
        w.raw_field("stragglers", &format!("[{}]", stragglers.join(",")));
        truncation.embed(&mut w);
        w.finish()
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "imbalance: {} workers over {:.3}s makespan, utilization {:.3}",
            self.workers.len(),
            self.makespan_s,
            self.utilization
        );
        let _ = writeln!(
            out,
            "  busy mean {:.3}s | Gini {:.4} | CoV {:.4} | idle total {:.3}s",
            self.busy_mean_s, self.gini, self.cov, self.idle_total_s
        );
        let slowest = self
            .workers
            .iter()
            .max_by(|a, b| a.busy_s.total_cmp(&b.busy_s).then(b.worker.cmp(&a.worker)));
        let fastest = self
            .workers
            .iter()
            .min_by(|a, b| a.busy_s.total_cmp(&b.busy_s).then(a.worker.cmp(&b.worker)));
        if let (Some(hi), Some(lo)) = (slowest, fastest) {
            let _ = writeln!(
                out,
                "  busiest worker {} at {:.3}s, lightest worker {} at {:.3}s",
                hi.worker, hi.busy_s, lo.worker, lo.busy_s
            );
        }
        if !self.stragglers.is_empty() {
            let _ = writeln!(out, "  stragglers:");
            for s in &self.stragglers {
                let wait = s
                    .journey
                    .queue_wait_s()
                    .map_or(String::from("-"), |q| format!("{q:.3}s"));
                let _ = writeln!(
                    out,
                    "    {:.3}s {} (worker {}, attempts {}, queue wait {})",
                    s.duration_s, s.task, s.worker, s.attempts, wait
                );
            }
        }
        out
    }
}

/// Compute the load-imbalance report. `None` when no completed
/// executions are recorded. `top_k` bounds the straggler list.
///
/// One borrowed pass over the trace; tasks are ranked by compute
/// seconds and only the top `top_k` get a [`Journey`] built.
#[must_use]
pub fn imbalance_of(trace: &Trace, top_k: usize) -> Option<ImbalanceReport> {
    let fold = Fold::of(trace);
    let mut origin = f64::INFINITY;
    let mut last_end = 0.0_f64;
    let mut by_worker: BTreeMap<usize, WorkerLoad> = BTreeMap::new();
    let mut any = false;
    for (_, e) in fold.completed() {
        any = true;
        origin = origin.min(e.start);
        last_end = last_end.max(e.end);
        let l = by_worker.entry(e.worker).or_insert(WorkerLoad {
            worker: e.worker,
            busy_s: 0.0,
            idle_s: 0.0,
            finish_t: 0.0,
            tasks: 0,
        });
        l.busy_s += e.duration();
        l.finish_t = l.finish_t.max(e.end);
        l.tasks += 1;
    }
    if !any {
        return None;
    }
    let makespan = (last_end - origin).max(0.0);
    let mut workers: Vec<WorkerLoad> = by_worker.into_values().collect();
    for l in &mut workers {
        l.idle_s = (makespan - l.busy_s).max(0.0);
    }
    let n = workers.len() as f64;
    let busy_sum: f64 = workers.iter().map(|l| l.busy_s).sum();
    let mean = busy_sum / n;
    let var = workers
        .iter()
        .map(|l| (l.busy_s - mean).powi(2))
        .sum::<f64>()
        / n;
    let cov = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    let gini = gini_of(workers.iter().map(|l| l.busy_s));
    let idle_total: f64 = workers.iter().map(|l| l.idle_s).sum();
    let utilization = if makespan > 0.0 && !workers.is_empty() {
        busy_sum / (makespan * n)
    } else {
        0.0
    };

    // Rank every task with a completed execution by compute seconds
    // (the same sum as `Journey::compute_s`), then build journeys for
    // the top k only. Ids are distinct, so the ranking is a total order.
    let mut ranked: Vec<(f64, usize, &[Row<'_>])> = fold
        .tasks()
        .filter_map(|rows| {
            let done = rows.iter().map(|(_, e)| e).filter(|e| e.attempts >= 1);
            let longest = done
                .clone()
                .max_by(|a, b| a.duration().total_cmp(&b.duration()))?;
            Some((done.map(Execution::duration).sum(), longest.worker, rows))
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.2[0].0.cmp(b.2[0].0)));
    ranked.truncate(top_k);
    let stragglers = ranked
        .into_iter()
        .map(|(duration_s, worker, rows)| {
            let journey = fold.journey(rows);
            Straggler {
                task: journey.task.clone(),
                duration_s,
                worker,
                attempts: journey.max_attempts(),
                journey,
            }
        })
        .collect();

    Some(ImbalanceReport {
        origin,
        makespan_s: makespan,
        workers,
        gini,
        cov,
        busy_mean_s: mean,
        idle_total_s: idle_total,
        utilization,
        stragglers,
    })
}

/// Gini coefficient of a non-negative sample (0 = perfectly even,
/// → 1 = one worker holds all the load). Computed with the sorted
/// rank formula `G = (2·Σ i·x_i) / (n·Σ x) − (n + 1) / n`.
fn gini_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = values.collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    if n == 0.0 || sum <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = xs.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

/// Gauge name a trace's producer uses to report how many events it
/// dropped before writing the trace. Read by [`truncation_of`]; nothing
/// in this workspace writes it, since the recorder drops nothing.
pub const DROPPED_EVENTS_GAUGE: &str = "obs/dropped_events";

/// Structural evidence that a trace is a truncated suffix of the real
/// event stream (a cut file, or a capture whose producer dropped events).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Truncation {
    /// Events the trace's producer reported dropping (from the
    /// [`DROPPED_EVENTS_GAUGE`] gauge, 0 when absent).
    pub dropped_events: f64,
    /// Counters whose first retained increment already carries history
    /// (`total ≠ delta`): their earlier increments were evicted.
    pub counter_gaps: usize,
    /// Span ends whose opening event was evicted.
    pub orphan_span_ends: usize,
    /// Task rows referencing a span whose opening event was evicted.
    pub orphan_task_spans: usize,
}

impl Truncation {
    /// Whether any truncation evidence is present.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.dropped_events > 0.0
            || self.counter_gaps > 0
            || self.orphan_span_ends > 0
            || self.orphan_task_spans > 0
    }

    /// One-line warning for stderr, if truncated.
    #[must_use]
    pub fn warning(&self) -> Option<String> {
        if !self.is_truncated() {
            return None;
        }
        Some(format!(
            "warning: trace is a truncated suffix (dropped={}, counter gaps={}, orphan span ends={}, orphan task spans={}); attribution under-reports",
            self.dropped_events, self.counter_gaps, self.orphan_span_ends, self.orphan_task_spans
        ))
    }

    fn embed(&self, w: &mut ObjectWriter) {
        w.int_field("truncated", u64::from(self.is_truncated()));
        w.num_field("dropped_events", self.dropped_events);
    }
}

/// Detect trace truncation structurally and from the
/// [`DROPPED_EVENTS_GAUGE`] gauge. Purely a read-side view: complete
/// traces report all zeros.
#[must_use]
pub fn truncation_of(trace: &Trace) -> Truncation {
    let mut seen_counters: BTreeSet<&str> = BTreeSet::new();
    let mut seen_spans: BTreeSet<u64> = BTreeSet::new();
    let mut t = Truncation::default();
    for e in trace.events() {
        match e {
            Event::SpanStart { id, .. } => {
                seen_spans.insert(id.0);
            }
            Event::SpanEnd { id, .. } if !seen_spans.contains(&id.0) => {
                t.orphan_span_ends += 1;
            }
            Event::Task { span: Some(s), .. } if !seen_spans.contains(&s.0) => {
                t.orphan_task_spans += 1;
            }
            Event::Counter {
                name, delta, total, ..
            } if *total != *delta && seen_counters.insert(name.as_str()) => {
                t.counter_gaps += 1;
            }
            Event::Counter { name, .. } => {
                seen_counters.insert(name.as_str());
            }
            Event::Gauge { name, value, .. } if name == DROPPED_EVENTS_GAUGE => {
                t.dropped_events = t.dropped_events.max(*value);
            }
            _ => {}
        }
    }
    t
}

fn opt_num(w: &mut ObjectWriter, key: &str, v: Option<f64>) {
    match v {
        Some(x) => w.num_field(key, x),
        None => w.null_field(key),
    }
}

/// The per-report folds the single pass replaced, kept verbatim as the
/// oracle of the differential test: each report re-folds every journey,
/// `journey_of` included.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn journeys_of(trace: &Trace) -> BTreeMap<String, Journey> {
        let mut span_starts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut journeys: BTreeMap<String, Journey> = BTreeMap::new();
        for e in trace.events() {
            match e {
                Event::SpanStart { id, t, .. } => {
                    span_starts.insert(id.0, *t);
                }
                Event::Task {
                    span,
                    task,
                    worker,
                    start,
                    end,
                    attempts,
                } => {
                    let base = span
                        .and_then(|s| span_starts.get(&s.0).copied())
                        .unwrap_or(0.0);
                    let j = journeys.entry(task.clone()).or_insert_with(|| Journey {
                        task: task.clone(),
                        ..Journey::default()
                    });
                    j.executions.push(Execution {
                        worker: *worker,
                        start: base + start,
                        end: base + end,
                        attempts: *attempts,
                    });
                }
                Event::Lineage { name, task, t } => {
                    let j = journeys.entry(task.clone()).or_insert_with(|| Journey {
                        task: task.clone(),
                        ..Journey::default()
                    });
                    match name.as_str() {
                        "lineage/admitted" => {
                            j.admitted_t.get_or_insert(*t);
                        }
                        "lineage/wal" => {
                            j.wal_t.get_or_insert(*t);
                        }
                        "lineage/settled" => {
                            j.settled_t.get_or_insert(*t);
                        }
                        "lineage/cache_hit" => {
                            j.cache.get_or_insert((CacheOutcome::Hit, *t));
                        }
                        "lineage/cache_near_hit" => {
                            j.cache.get_or_insert((CacheOutcome::NearHit, *t));
                        }
                        "lineage/cache_miss" => {
                            j.cache.get_or_insert((CacheOutcome::Miss, *t));
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        journeys
    }

    pub fn journey_of(trace: &Trace, task: &str) -> Option<Journey> {
        journeys_of(trace).remove(task)
    }

    pub fn critical_path_of(trace: &Trace) -> Option<CriticalPath> {
        let journeys = journeys_of(trace);
        let mut execs: Vec<(&Journey, &Execution)> = Vec::new();
        for j in journeys.values() {
            for e in j.executions.iter().filter(|e| e.attempts >= 1) {
                execs.push((j, e));
            }
        }
        if execs.is_empty() {
            return None;
        }
        let origin = execs
            .iter()
            .map(|(_, e)| e.start)
            .fold(f64::INFINITY, f64::min);
        let last_end = execs.iter().map(|(_, e)| e.end).fold(0.0_f64, f64::max);
        let makespan = (last_end - origin).max(0.0);

        let mut tail = 0;
        for (i, (j, e)) in execs.iter().enumerate() {
            let (bj, be) = &execs[tail];
            if e.end > be.end || (e.end == be.end && j.task < bj.task) {
                tail = i;
            }
        }
        let mut rev: Vec<ChainLink> = Vec::new();
        let mut current = tail;
        loop {
            let (cj, ce) = &execs[current];
            let mut pred: Option<usize> = None;
            for (i, (j, e)) in execs.iter().enumerate() {
                if i == current || e.worker != ce.worker || e.end > ce.start + 1e-9 {
                    continue;
                }
                match pred {
                    None => pred = Some(i),
                    Some(p) => {
                        let (pj, pe) = &execs[p];
                        if e.end > pe.end || (e.end == pe.end && j.task < pj.task) {
                            pred = Some(i);
                        }
                    }
                }
            }
            let wait = match pred {
                Some(p) => (ce.start - execs[p].1.end).max(0.0),
                None => (ce.start - origin).max(0.0),
            };
            rev.push(ChainLink {
                task: cj.task.clone(),
                worker: ce.worker,
                start: ce.start,
                end: ce.end,
                wait_s: wait,
                attempts: ce.attempts,
            });
            match pred {
                Some(p) => current = p,
                None => break,
            }
        }
        rev.reverse();
        let chain = rev;

        let mut compute = 0.0;
        let mut wait = 0.0;
        let mut cache = 0.0;
        for l in &chain {
            compute += l.duration();
            wait += l.wait_s;
            if let Some(j) = journeys.get(&l.task) {
                cache += j.cache_lookup_s().unwrap_or(0.0);
            }
        }

        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        for (_, e) in &execs {
            *busy.entry(e.worker).or_insert(0.0) += e.duration();
        }
        let idle_total = busy.values().map(|b| (makespan - b).max(0.0)).sum();

        Some(CriticalPath {
            origin,
            makespan_s: makespan,
            chain,
            compute_s: compute,
            queue_wait_s: wait,
            cache_s: cache,
            idle_total_s: idle_total,
            workers: busy.len(),
        })
    }

    pub fn imbalance_of(trace: &Trace, top_k: usize) -> Option<ImbalanceReport> {
        let journeys = journeys_of(trace);
        let mut origin = f64::INFINITY;
        let mut last_end = 0.0_f64;
        let mut by_worker: BTreeMap<usize, WorkerLoad> = BTreeMap::new();
        let mut any = false;
        for j in journeys.values() {
            for e in j.executions.iter().filter(|e| e.attempts >= 1) {
                any = true;
                origin = origin.min(e.start);
                last_end = last_end.max(e.end);
                let l = by_worker.entry(e.worker).or_insert(WorkerLoad {
                    worker: e.worker,
                    busy_s: 0.0,
                    idle_s: 0.0,
                    finish_t: 0.0,
                    tasks: 0,
                });
                l.busy_s += e.duration();
                l.finish_t = l.finish_t.max(e.end);
                l.tasks += 1;
            }
        }
        if !any {
            return None;
        }
        let makespan = (last_end - origin).max(0.0);
        let mut workers: Vec<WorkerLoad> = by_worker.into_values().collect();
        for l in &mut workers {
            l.idle_s = (makespan - l.busy_s).max(0.0);
        }
        let n = workers.len() as f64;
        let busy_sum: f64 = workers.iter().map(|l| l.busy_s).sum();
        let mean = busy_sum / n;
        let var = workers
            .iter()
            .map(|l| (l.busy_s - mean).powi(2))
            .sum::<f64>()
            / n;
        let cov = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let gini = gini_of(workers.iter().map(|l| l.busy_s));
        let idle_total: f64 = workers.iter().map(|l| l.idle_s).sum();
        let utilization = if makespan > 0.0 && !workers.is_empty() {
            busy_sum / (makespan * n)
        } else {
            0.0
        };

        let mut rows: Vec<Straggler> = journeys
            .values()
            .filter_map(|j| {
                let longest = j
                    .executions
                    .iter()
                    .filter(|e| e.attempts >= 1)
                    .max_by(|a, b| a.duration().total_cmp(&b.duration()))?;
                Some(Straggler {
                    task: j.task.clone(),
                    duration_s: j.compute_s(),
                    worker: longest.worker,
                    attempts: j.max_attempts(),
                    journey: j.clone(),
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.duration_s
                .total_cmp(&a.duration_s)
                .then_with(|| a.task.cmp(&b.task))
        });
        rows.truncate(top_k);

        Some(ImbalanceReport {
            origin,
            makespan_s: makespan,
            workers,
            gini,
            cov,
            busy_mean_s: mean,
            idle_total_s: idle_total,
            utilization,
            stragglers: rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;
    use crate::recorder::Recorder;

    /// Two workers, one rerun task, one cancelled row of that task,
    /// service breadcrumbs on t1.
    fn sample_trace() -> Trace {
        let r = Recorder::virtual_time();
        let s = r.span_start("batch");
        r.task(Some(s), "t0", 0, 0.0, 4.0, 1);
        r.task(Some(s), "t1", 1, 1.0, 7.0, 2);
        r.task(Some(s), "t1", 0, 5.0, 7.0, 0); // cancelled
        r.task(Some(s), "t2", 0, 4.0, 9.0, 1);
        admitted(&r, "t1", 0.25);
        wal(&r, "t1", 0.5);
        cache_miss(&r, "t1", 0.75);
        settled(&r, "t1", 7.5);
        r.advance_clock_to(9.0);
        r.span_end(s);
        Trace::from_events(r.events())
    }

    #[test]
    fn journeys_fold_executions_and_breadcrumbs() {
        let js = journeys_of(&sample_trace());
        assert_eq!(js.len(), 3);
        let j = &js["t1"];
        assert_eq!(j.admitted_t, Some(0.25));
        assert_eq!(j.wal_t, Some(0.5));
        assert_eq!(j.settled_t, Some(7.5));
        assert_eq!(j.cache, Some((CacheOutcome::Miss, 0.75)));
        assert_eq!(j.executions.len(), 2);
        assert_eq!(j.cancelled_executions(), 1);
        assert_eq!(j.compute_s(), 6.0);
        assert_eq!(j.queue_wait_s(), Some(0.75)); // 1.0 − 0.25
        assert_eq!(j.settle_lag_s(), Some(0.5)); // 7.5 − 7.0
        assert_eq!(j.cache_lookup_s(), Some(0.5)); // 0.75 − 0.25
        assert_eq!(j.max_attempts(), 2);
        assert!(js["t0"].admitted_t.is_none());
    }

    #[test]
    fn legacy_retry_backoff_breadcrumb_parses_and_changes_nothing() {
        let plain = sample_trace().to_jsonl();
        // Older traces carry this line for every rerun task.
        let legacy = format!(
            "{plain}{}\n",
            r#"{"event":"lineage","name":"lineage/retry_backoff","task":"t1","t":0}"#
        );
        let (plain, legacy) = (
            Trace::parse_jsonl(&plain).expect("plain trace parses"),
            Trace::parse_jsonl(&legacy).expect("legacy trace parses"),
        );
        assert_eq!(legacy.events().len(), plain.events().len() + 1);
        assert_eq!(journeys_of(&legacy), journeys_of(&plain));
        assert_eq!(journey_of(&legacy, "t1"), journey_of(&plain, "t1"));
        assert_eq!(critical_path_of(&legacy), critical_path_of(&plain));
    }

    #[test]
    fn journey_times_resolve_against_the_span_start() {
        let r = Recorder::virtual_time();
        r.advance_clock_to(100.0);
        let s = r.span_start("batch");
        r.task(Some(s), "t0", 0, 1.0, 2.0, 1);
        r.advance_clock_to(102.0);
        r.span_end(s);
        let j = journey_of(&Trace::from_events(r.events()), "t0").expect("journey");
        assert_eq!(j.executions[0].start, 101.0);
        assert_eq!(j.executions[0].end, 102.0);
    }

    #[test]
    fn critical_path_telescopes_to_makespan() {
        let cp = critical_path_of(&sample_trace()).expect("path");
        // Chain: t1 on worker 1 ends at 8 (span base 0)? t2 ends at 9.
        // Tail is t2 (worker 0); predecessor t0 (worker 0, end 4.0).
        assert_eq!(cp.makespan_s, 9.0);
        let chain: Vec<&str> = cp.chain.iter().map(|l| l.task.as_str()).collect();
        assert_eq!(chain, ["t0", "t2"]);
        let total: f64 = cp.chain.iter().map(|l| l.duration() + l.wait_s).sum();
        assert!((total - cp.makespan_s).abs() < 1e-9, "{total}");
        assert!(cp.identity_holds());
        assert_eq!(cp.workers, 2);
        // Worker 0 busy 9s (idle 0), worker 1 busy 6s (idle 3).
        assert_eq!(cp.idle_total_s, 3.0);
    }

    #[test]
    fn critical_path_categories_split_retry_overhead() {
        // A row with attempts 2 is a high-memory rerun: its burned
        // standard-lane attempt is a separate execution, so the whole
        // row is compute and nothing splits off as retry overhead.
        let r = Recorder::virtual_time();
        let s = r.span_start("batch");
        r.task(Some(s), "a", 0, 0.0, 4.0, 2); // rerun: 4s of compute
        r.task(Some(s), "b", 0, 5.0, 6.0, 1); // 1s wait after a
        r.advance_clock_to(6.0);
        r.span_end(s);
        let cp = critical_path_of(&Trace::from_events(r.events())).expect("path");
        assert_eq!(cp.compute_s, 5.0);
        assert_eq!(cp.queue_wait_s, 1.0);
        assert_eq!(cp.cache_s, 0.0);
        assert_eq!(cp.critical_path_s(), 5.0);
        assert!(cp.identity_holds());
    }

    #[test]
    fn critical_path_of_empty_trace_is_none() {
        assert!(critical_path_of(&Trace::from_events(Vec::new())).is_none());
        // Cancelled-only traces have no completed execution either.
        let r = Recorder::virtual_time();
        r.task(None, "x", 0, 0.0, 1.0, 0);
        assert!(critical_path_of(&Trace::from_events(r.events())).is_none());
    }

    #[test]
    fn imbalance_reports_gini_cov_and_stragglers() {
        let rep = imbalance_of(&sample_trace(), 2).expect("report");
        assert_eq!(rep.workers.len(), 2);
        assert_eq!(rep.makespan_s, 9.0);
        assert_eq!(rep.workers[0].worker, 0);
        assert_eq!(rep.workers[0].busy_s, 9.0);
        assert_eq!(rep.workers[1].busy_s, 6.0);
        assert_eq!(rep.idle_total_s, 3.0);
        assert!((rep.utilization - 15.0 / 18.0).abs() < 1e-12);
        assert!(rep.gini > 0.0 && rep.gini < 1.0);
        assert!(rep.cov > 0.0);
        assert_eq!(rep.stragglers.len(), 2);
        assert_eq!(rep.stragglers[0].task, "t1"); // 6s beats t2's 5s
        assert_eq!(rep.stragglers[0].attempts, 2);
    }

    #[test]
    fn gini_is_zero_for_even_loads_and_grows_with_skew() {
        assert_eq!(gini_of([5.0, 5.0, 5.0].into_iter()), 0.0);
        let skewed = gini_of([0.0, 0.0, 15.0].into_iter());
        assert!(skewed > 0.6, "{skewed}");
        assert_eq!(gini_of(std::iter::empty()), 0.0);
        assert_eq!(gini_of([0.0, 0.0].into_iter()), 0.0);
    }

    #[test]
    fn reports_are_byte_stable_for_a_fixed_trace() {
        let t = sample_trace();
        let tr = truncation_of(&t);
        let a = critical_path_of(&t).expect("path").to_json(&tr);
        let b = critical_path_of(&t).expect("path").to_json(&tr);
        assert_eq!(a, b);
        assert!(a.contains("\"identity\":1"), "{a}");
        assert!(a.contains("\"truncated\":0"), "{a}");
        let a = imbalance_of(&t, 3).expect("report").to_json(&tr);
        let b = imbalance_of(&t, 3).expect("report").to_json(&tr);
        assert_eq!(a, b);
        let a = journey_of(&t, "t1").expect("journey").to_json(&tr);
        assert!(a.contains("\"cache\":\"miss\""), "{a}");
        assert!(a.contains("\"executions\":[{"), "{a}");
    }

    #[test]
    fn truncation_detects_counter_gaps_and_orphans() {
        // A complete trace is clean.
        assert!(!truncation_of(&sample_trace()).is_truncated());
        // A suffix whose counter history and span start were evicted.
        let events = vec![
            Event::SpanEnd {
                id: SpanId(9),
                t: 5.0,
            },
            Event::Task {
                span: Some(SpanId(9)),
                task: "t".into(),
                worker: 0,
                start: 0.0,
                end: 1.0,
                attempts: 1,
            },
            Event::Counter {
                name: "c".into(),
                delta: 1.0,
                total: 4.0,
                t: 5.0,
            },
        ];
        let t = truncation_of(&Trace::from_events(events));
        assert_eq!(t.counter_gaps, 1);
        assert_eq!(t.orphan_span_ends, 1);
        assert_eq!(t.orphan_task_spans, 1);
        assert!(t.is_truncated());
        assert!(t.warning().expect("warns").contains("truncated"));
    }

    #[test]
    fn truncation_reads_the_drop_marker_gauge() {
        let events = vec![Event::Gauge {
            name: DROPPED_EVENTS_GAUGE.into(),
            value: 42.0,
            t: 1.0,
        }];
        let t = truncation_of(&Trace::from_events(events));
        assert_eq!(t.dropped_events, 42.0);
        assert!(t.is_truncated());
    }

    #[test]
    fn emit_helpers_do_not_advance_the_clock() {
        let r = Recorder::virtual_time();
        r.advance_clock_to(3.0);
        r.gauge("g", 1.0);
        settled(&r, "t", 99.0);
        assert_eq!(r.now(), 3.0);
        let t = Trace::from_events(r.events());
        // Lineage timestamps never extend the makespan.
        assert_eq!(t.last_timestamp(), 3.0);
    }

    #[test]
    fn critical_path_walk_ends_on_coincident_zero_length_rows() {
        // b and c each end no later than the other starts; a walk that
        // could revisit b would alternate between them forever.
        let r = Recorder::virtual_time();
        r.task(None, "a", 0, 0.0, 1.5, 1);
        r.task(None, "b", 0, 2.0, 2.0, 1);
        r.task(None, "c", 0, 2.0, 2.0, 1);
        let cp = critical_path_of(&Trace::from_events(r.events())).expect("path");
        let chain: Vec<&str> = cp.chain.iter().map(|l| l.task.as_str()).collect();
        assert_eq!(chain, ["a", "c", "b"]);
        let total: f64 = cp.chain.iter().map(|l| l.duration() + l.wait_s).sum();
        assert_eq!(total, cp.makespan_s);
    }

    /// SplitMix64, the seeded stream behind the differential traces.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A row time: half the draws on a coarse grid, so ends and
        /// starts coincide across tasks; the rest arbitrary, so sums
        /// depend on their order.
        fn time(&mut self) -> f64 {
            if self.below(2) == 0 {
                self.below(16) as f64 * 0.5
            } else {
                (self.next() >> 11) as f64 / (1u64 << 50) as f64
            }
        }
    }

    /// Every breadcrumb phase, plus two the grammar does not know: the
    /// legacy retry breadcrumb and a made-up one.
    const PHASES: [&str; 8] = [
        "lineage/admitted",
        "lineage/wal",
        "lineage/settled",
        "lineage/cache_hit",
        "lineage/cache_near_hit",
        "lineage/cache_miss",
        "lineage/retry_backoff",
        "lineage/unknown_phase",
    ];

    /// A seeded adversarial trace: nested spans opened at non-zero times
    /// (ids reused), rows with no span or a never-opened one, task ids
    /// repeated on one worker, ends shared across tasks, zero-length
    /// rows, attempts 0..=3, repeated breadcrumbs of every phase, an
    /// unknown phase, and tasks known only from breadcrumbs.
    fn adversarial_trace(seed: u64) -> Trace {
        let mut rng = Mix(seed);
        let ids = 1 + rng.below(12);
        let workers = 1 + rng.below(4);
        let mut open: Vec<SpanId> = Vec::new();
        let mut events = Vec::new();
        for _ in 0..rng.below(160) {
            match rng.below(10) {
                0 => {
                    let id = SpanId(1 + rng.below(4));
                    let t = [0.1, 2.5, 7.3, 1e3 + 0.3][rng.below(4) as usize];
                    events.push(Event::SpanStart {
                        id,
                        parent: open.last().copied(),
                        name: "s".into(),
                        t,
                    });
                    open.push(id);
                }
                1 => {
                    if let Some(id) = open.pop() {
                        events.push(Event::SpanEnd { id, t: 2e3 });
                    }
                }
                2..=6 => {
                    let span = match rng.below(5) {
                        0 => None,
                        1 => Some(SpanId(9)),
                        _ => Some(SpanId(1 + rng.below(4))),
                    };
                    let start = rng.time();
                    let end = match rng.below(4) {
                        0 => start,
                        1 => 8.0 + rng.below(8) as f64 * 0.5,
                        _ => start + rng.time(),
                    };
                    events.push(Event::Task {
                        span,
                        task: format!("t{}", rng.below(ids)),
                        worker: rng.below(workers) as usize,
                        start,
                        end,
                        attempts: rng.below(4) as u32,
                    });
                }
                7 => events.push(Event::Gauge {
                    name: "g".into(),
                    value: 1.0,
                    t: 1.0,
                }),
                _ => {
                    let task = match rng.below(4) {
                        0 => format!("crumb_only{}", rng.below(3)),
                        _ => format!("t{}", rng.below(ids)),
                    };
                    events.push(Event::Lineage {
                        name: PHASES[rng.below(8) as usize].into(),
                        task,
                        t: rng.time(),
                    });
                }
            }
        }
        Trace::from_events(events)
    }

    /// Whether two completed executions on one worker each end before
    /// the other starts (coincident zero-length rows): the reference
    /// predecessor walk alternates between such a pair forever.
    fn loops_reference(journeys: &BTreeMap<String, Journey>) -> bool {
        let done: Vec<&Execution> = journeys.values().flat_map(|j| j.completed()).collect();
        done.iter().enumerate().any(|(i, a)| {
            done[i + 1..]
                .iter()
                .any(|b| a.worker == b.worker && a.end <= b.start + 1e-6 && b.end <= a.start + 1e-6)
        })
    }

    #[test]
    fn one_pass_reports_equal_the_reference_folds_bit_for_bit() {
        let mut compared = 0;
        let mut seed = 0;
        while compared < 500 {
            seed += 1;
            assert!(seed < 2_000, "too few traces the reference can walk");
            let trace = adversarial_trace(seed);
            let tr = truncation_of(&trace);
            let want = reference::journeys_of(&trace);
            let got = journeys_of(&trace);
            assert_eq!(got, want, "journeys_of, seed {seed}");
            for (task, j) in &want {
                let one = journey_of(&trace, task);
                assert_eq!(one, reference::journey_of(&trace, task), "seed {seed}");
                let one = one.expect("a folded task has a journey");
                assert_eq!(one.to_json(&tr), j.to_json(&tr), "seed {seed}");
                assert_eq!(got[task].to_json(&tr), j.to_json(&tr), "seed {seed}");
            }
            assert_eq!(journey_of(&trace, "absent"), None);
            for k in [0, 1, 3, want.len()] {
                let (a, b) = (imbalance_of(&trace, k), reference::imbalance_of(&trace, k));
                assert_eq!(a, b, "imbalance_of k={k}, seed {seed}");
                assert_eq!(
                    a.map(|r| r.to_json(&tr)),
                    b.map(|r| r.to_json(&tr)),
                    "seed {seed}"
                );
            }
            if loops_reference(&want) {
                continue;
            }
            let (a, b) = (
                critical_path_of(&trace),
                reference::critical_path_of(&trace),
            );
            assert_eq!(a, b, "critical_path_of, seed {seed}");
            assert_eq!(
                a.map(|c| c.to_json(&tr)),
                b.map(|c| c.to_json(&tr)),
                "seed {seed}"
            );
            compared += 1;
        }
    }
}
