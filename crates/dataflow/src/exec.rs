//! The unified batch-execution API: one [`Batch`] description, many
//! [`Executor`] backends.
//!
//! Historically each backend had its own ad-hoc entry point with
//! slightly different arguments, result types, and documented panics.
//! This module replaces all of them with a single builder:
//!
//! ```
//! use summitfold_dataflow::exec::Batch;
//! use summitfold_dataflow::sim::VirtualExecutor;
//! use summitfold_dataflow::{OrderingPolicy, TaskSpec};
//!
//! let specs: Vec<TaskSpec> = (0..40)
//!     .map(|i| TaskSpec::new(format!("t{i}"), 10.0 + f64::from(i)))
//!     .collect();
//! let outcome = Batch::new(&specs)
//!     .workers(6)
//!     .policy(OrderingPolicy::LongestFirst)
//!     .run(&VirtualExecutor::new(0.5))
//!     .expect("valid batch");
//! assert_eq!(outcome.records.len(), 40);
//! assert!(outcome.utilization() > 0.5);
//! ```
//!
//! The same description runs on real threads
//! ([`crate::real::ThreadExecutor`]), optionally with a worker-death
//! schedule (`.faults(...)`), and every backend produces the same
//! [`BatchOutcome`] and emits the same telemetry span/task events through
//! an [`summitfold_obs::Recorder`] (`.recorder(...)`). Invalid batches
//! are rejected up front with a typed [`BatchError`] instead of
//! documented panics.
//!
//! Resilience rides on the same description: `.oom(ids)` names the
//! tasks that run out of memory on the standard lane (§3.3's over-large
//! proteins), `.quarantine(workers)` re-runs them in a second
//! high-memory pass, `.journal(...)` checkpoints completions as JSONL,
//! and [`Batch::resume`] restarts a killed batch from that journal
//! executing only unfinished tasks.

use crate::fault::{entry_matches_record, Lane, ResilienceError, WorkerFault};
use crate::journal::{Journal, JournalEntry};
use crate::policy::OrderingPolicy;
use crate::source::SubmissionQueue;
use crate::task::{TaskRecord, TaskSpec};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use summitfold_obs::{Recorder, SpanId};

/// Why a batch could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// `workers == 0`: nothing could ever pull a task.
    NoWorkers,
    /// `specs.len() != items.len()`: tasks and payloads must correspond.
    ItemsMismatch {
        /// Number of task specs.
        specs: usize,
        /// Number of items supplied.
        items: usize,
    },
    /// Explicit durations were supplied but do not correspond to specs.
    DurationsMismatch {
        /// Number of task specs.
        specs: usize,
        /// Number of durations supplied.
        durations: usize,
    },
    /// Every worker is scheduled to die, so the queue could never drain.
    AllWorkersDie {
        /// Workers in the batch.
        workers: usize,
        /// Workers scheduled to die.
        dying: usize,
    },
    /// A fault names a worker id outside the standard lane.
    FaultWorkerOutOfRange {
        /// The out-of-range worker id.
        worker: usize,
        /// Workers in the batch.
        workers: usize,
    },
    /// `progress(0)` was requested: the cadence must be at least 1 task.
    InvalidProgress,
    /// The OOM/quarantine/journal configuration cannot complete.
    Resilience(ResilienceError),
}

impl From<ResilienceError> for BatchError {
    fn from(e: ResilienceError) -> Self {
        Self::Resilience(e)
    }
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "batch needs at least one worker"),
            Self::ItemsMismatch { specs, items } => {
                write!(f, "batch has {specs} task specs but {items} items")
            }
            Self::DurationsMismatch { specs, durations } => {
                write!(f, "batch has {specs} task specs but {durations} durations")
            }
            Self::AllWorkersDie { workers, dying } => write!(
                f,
                "all workers die under the fault schedule ({dying} of {workers}); at least one must survive"
            ),
            Self::FaultWorkerOutOfRange { worker, workers } => write!(
                f,
                "fault schedule names worker {worker}, but the batch has workers 0..{workers}"
            ),
            Self::InvalidProgress => {
                write!(f, "progress cadence must be at least one task")
            }
            Self::Resilience(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Resilience(e) => Some(e),
            _ => None,
        }
    }
}

/// A validated batch, handed to [`Executor::execute`].
///
/// Constructed only by [`Batch::run_with`]/[`Batch::resume`] after
/// validation, so backends may rely on: `workers > 0`, `specs.len()`
/// equals the item count, durations (when present) correspond to specs,
/// at least one worker survives the fault schedule, a quarantine lane
/// is configured whenever a task runs out of memory on the standard
/// lane, and `completed` only names tasks present in `specs`.
pub struct Plan<'a> {
    /// Task descriptions.
    pub specs: &'a [TaskSpec],
    /// Worker count of the standard lane (> 0).
    pub workers: usize,
    /// Queue ordering policy.
    pub policy: OrderingPolicy,
    /// Worker-death schedule (empty = fault-free; standard lane only).
    pub faults: &'a [WorkerFault],
    /// Virtual task durations for simulating backends; `None` means
    /// derive from `cost_hint`.
    pub durations: Option<&'a [f64]>,
    /// Telemetry sink (possibly [`Recorder::disabled`]).
    pub recorder: &'a Recorder,
    /// Span label for the batch ("batch", "inference", …).
    pub label: &'a str,
    /// Ids of the tasks that run out of memory on the standard lane
    /// (empty = no task fails).
    pub oom: &'a [String],
    /// Quarantine lane width: workers in the high-memory rerun pass,
    /// numbered `workers..workers + quarantine_workers`.
    pub quarantine_workers: Option<usize>,
    /// Checkpoint journal to append completions to, if any.
    pub journal: Option<&'a Journal>,
    /// Emit `monitor/...` health gauges every N completed tasks
    /// (`None` = no progress telemetry). Validated ≥ 1.
    pub progress: Option<usize>,
    /// Tasks already completed per a resume journal, by id. Backends
    /// must not re-schedule them; see [`Batch::resume`] for the exact
    /// per-backend semantics.
    pub completed: BTreeMap<String, JournalEntry>,
}

/// Result of one batch execution, identical across backends.
#[derive(Debug, Clone)]
pub struct BatchOutcome<O> {
    /// Task outputs in submission order (every task completes once).
    pub outputs: Vec<O>,
    /// Per-task records (completion order; seconds since batch start).
    pub records: Vec<TaskRecord>,
    /// Batch makespan in seconds (wall-clock or virtual).
    pub makespan: f64,
    /// Worker count the batch ran with.
    pub workers: usize,
    /// Worker ids that registered with the scheduler.
    pub registered_workers: Vec<usize>,
    /// Per-worker busy seconds, indexed by worker id.
    pub worker_busy: Vec<f64>,
    /// Per-worker finish time (last task end), indexed by worker id.
    pub worker_finish: Vec<f64>,
    /// Tasks abandoned by dying workers and re-queued.
    pub requeued: usize,
    /// Workers that died under the fault schedule.
    pub deaths: usize,
    /// Tasks that ran out of memory on the standard lane and completed
    /// in the quarantine rerun pass.
    pub quarantined: usize,
    /// Wall/virtual seconds the quarantine pass added after the standard
    /// lane drained (0 when nothing was quarantined).
    pub quarantine_makespan: f64,
    /// Tasks skipped because a resume journal already recorded them.
    pub resumed: usize,
}

impl<O> BatchOutcome<O> {
    /// Total failed executions across all tasks (`Σ (attempts - 1)`):
    /// one burned standard-lane attempt per quarantined task.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as usize)
            .sum()
    }
    /// Mean worker utilization over the makespan, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().sum();
        busy / (self.makespan * self.worker_busy.len() as f64)
    }

    /// Makespan of the standard lane alone: the batch makespan minus the
    /// quarantine rerun pass (identical to [`Self::makespan`] when nothing
    /// was quarantined).
    #[must_use]
    pub fn standard_makespan(&self) -> f64 {
        self.makespan - self.quarantine_makespan
    }

    /// Mean utilization of the standard-lane workers (ids `0..workers`)
    /// over the standard lane's makespan, from batch start until the
    /// lane drains, in `[0, 1]`. Unlike [`Self::utilization`], this
    /// excludes the quarantine rerun pass, during which the standard lane
    /// is deliberately idle — it is the load-balance figure of merit.
    #[must_use]
    pub fn standard_utilization(&self) -> f64 {
        let span = self.standard_makespan();
        if span <= 0.0 || self.workers == 0 {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().take(self.workers).sum();
        busy / (span * self.workers as f64)
    }

    /// Idle tail of the standard lane: the standard-lane makespan minus
    /// the earliest standard-worker finish time.
    #[must_use]
    pub fn standard_idle_tail(&self) -> f64 {
        let earliest = self
            .worker_finish
            .iter()
            .take(self.workers)
            .copied()
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            self.standard_makespan() - earliest
        } else {
            0.0
        }
    }

    /// The "idle tail": makespan minus the earliest worker finish time —
    /// how long the fastest-finishing worker waits for the stragglers.
    /// Near zero is the load-balance goal ("all the Dask workers finished
    /// all of their respective tasks within minutes of one another").
    #[must_use]
    pub fn idle_tail(&self) -> f64 {
        let earliest = self
            .worker_finish
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            self.makespan - earliest
        } else {
            0.0
        }
    }

    /// Records belonging to one worker, sorted by start time (one row of
    /// Fig 2). Callers walking every worker should use
    /// [`Self::worker_timelines`] — it groups all lanes in one pass
    /// instead of re-scanning the records per worker.
    #[must_use]
    pub fn worker_timeline(&self, worker_id: usize) -> Vec<&TaskRecord> {
        self.worker_timelines()
            .into_iter()
            .nth(worker_id)
            .unwrap_or_default()
    }

    /// Every worker's timeline from one grouped pass over the records:
    /// lane `w` holds worker `w`'s records sorted by start time. Sized
    /// to cover the batch's lanes and every worker id that appears in
    /// the records (the quarantine lane extends past `worker_busy`).
    #[must_use]
    pub fn worker_timelines(&self) -> Vec<Vec<&TaskRecord>> {
        let lanes = self
            .records
            .iter()
            .map(|r| r.worker_id + 1)
            .max()
            .unwrap_or(0)
            .max(self.worker_busy.len());
        group_by_worker(&self.records, lanes)
    }
}

/// A validated live-queue run, handed to [`Executor::run_live`].
///
/// Constructed only by [`crate::source::LiveRun`] after validation, so
/// backends may rely on `workers > 0`.
pub struct LivePlan<'a> {
    /// Worker count pulling from the queue (> 0).
    pub workers: usize,
    /// Telemetry sink (possibly [`Recorder::disabled`]).
    pub recorder: &'a Recorder,
    /// Span label for the run ("service", …).
    pub label: &'a str,
}

/// A backend that can run a validated [`Plan`].
///
/// Implementations must honor the plan's scheduling contract: every
/// task completes exactly once and records carry seconds since batch
/// start. The in-tree backends supply only a lane runner and a live
/// drain; the frame around them (prologue, lane sequencing, outcome,
/// telemetry) exists once in this module, so they cannot drift apart.
pub trait Executor {
    /// Run the plan over `items` (`items.len() == plan.specs.len()`).
    fn execute<I, O, F>(&self, plan: &Plan<'_>, items: &[I], f: &F) -> BatchOutcome<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&TaskSpec, &I) -> O + Sync;

    /// Drain a live [`SubmissionQueue`]: workers pull dispatches one at
    /// a time until the queue reports [`crate::source::Pull::Drained`]
    /// (or, on the virtual backend, `Pending` — close the queue before
    /// a virtual run). Scheduling across tenants is the queue's
    /// fair-share contract; this method only decides *when* each worker
    /// pulls. Tasks are scheduling-only (`cost_hint` models the work):
    /// the virtual backend advances its clock by `cost_hint` per task,
    /// the thread backend records real pull timestamps. Both emit the
    /// same `service/*` counters so service traces stay
    /// cross-executor-comparable. Entry point: [`crate::source::LiveRun`].
    fn run_live(&self, plan: &LivePlan<'_>, queue: &SubmissionQueue) -> BatchOutcome<()>;
}

/// Builder describing a batch, independent of the backend that runs it.
///
/// The task list is either borrowed ([`Batch::new`]) or owned
/// ([`Batch::from_specs`]) — callers building specs on the fly, like
/// the folding service, no longer need an array that outlives the
/// builder.
///
/// Defaults: 1 worker, [`OrderingPolicy::Fifo`], no faults, no explicit
/// durations, telemetry disabled, span label `"batch"`, no OOM tasks,
/// no quarantine lane, no journal.
#[derive(Clone)]
pub struct Batch<'a> {
    specs: Cow<'a, [TaskSpec]>,
    workers: usize,
    policy: OrderingPolicy,
    faults: &'a [WorkerFault],
    durations: Option<&'a [f64]>,
    recorder: &'a Recorder,
    label: &'a str,
    oom: &'a [String],
    quarantine_workers: Option<usize>,
    journal: Option<&'a Journal>,
    progress: Option<usize>,
}

impl<'a> Batch<'a> {
    /// Start describing a batch over borrowed task specs.
    #[must_use]
    pub fn new(specs: &'a [TaskSpec]) -> Self {
        Self::from_cow(Cow::Borrowed(specs))
    }

    /// Start describing a batch that owns its task specs — the caller
    /// hands over the `Vec` and the builder is `'static` as far as the
    /// task list is concerned. This is the constructor services and
    /// other long-lived submitters use.
    #[must_use]
    pub fn from_specs(specs: Vec<TaskSpec>) -> Self {
        Self::from_cow(Cow::Owned(specs))
    }

    fn from_cow(specs: Cow<'a, [TaskSpec]>) -> Self {
        Self {
            specs,
            workers: 1,
            policy: OrderingPolicy::Fifo,
            faults: &[],
            durations: None,
            recorder: Recorder::disabled(),
            label: "batch",
            oom: &[],
            quarantine_workers: None,
            journal: None,
            progress: None,
        }
    }

    /// Set the worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the queue ordering policy.
    #[must_use]
    pub fn policy(mut self, policy: OrderingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a worker-death schedule (both backends honor it: the
    /// thread pool's workers really exit, the simulator retires their
    /// slots in virtual time).
    #[must_use]
    pub fn faults(mut self, faults: &'a [WorkerFault]) -> Self {
        self.faults = faults;
        self
    }

    /// Supply explicit virtual durations (`durations[i]` runs
    /// `specs[i]`); simulating backends otherwise use `cost_hint`.
    #[must_use]
    pub fn durations(mut self, durations: &'a [f64]) -> Self {
        self.durations = Some(durations);
        self
    }

    /// Record the batch span and per-task events into `recorder`.
    #[must_use]
    pub fn recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the telemetry span label for the batch.
    #[must_use]
    pub fn label(mut self, label: &'a str) -> Self {
        self.label = label;
        self
    }

    /// Name the tasks that run out of memory on the standard lane: each
    /// runs once on its standard worker, burns that attempt, and
    /// completes in the quarantine lane (both backends honor it
    /// identically).
    #[must_use]
    pub fn oom(mut self, task_ids: &'a [String]) -> Self {
        self.oom = task_ids;
        self
    }

    /// Configure the quarantine lane: tasks that run out of memory on
    /// the standard lane are collected and re-run in a second pass on
    /// `workers` wider-memory workers (ids `workers..workers +
    /// quarantine`).
    #[must_use]
    pub fn quarantine(mut self, workers: usize) -> Self {
        self.quarantine_workers = Some(workers);
        self
    }

    /// Append every completed task to `journal` as the batch runs, so a
    /// killed batch can be restarted with [`Batch::resume`].
    #[must_use]
    pub fn journal(mut self, journal: &'a Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Emit live-health gauges (`monitor/done`, `monitor/throughput`,
    /// `monitor/utilization`, `monitor/eta_s`, …) every `every_n_tasks`
    /// completions, plus once at batch end. The gauges flow through the
    /// normal trace schema, so on the virtual backend the full snapshot
    /// sequence is deterministic and cross-executor-testable.
    #[must_use]
    pub fn progress(mut self, every_n_tasks: usize) -> Self {
        self.progress = Some(every_n_tasks);
        self
    }

    fn validate(&self, items: usize) -> Result<Plan<'_>, BatchError> {
        if self.workers == 0 || self.quarantine_workers == Some(0) {
            return Err(BatchError::NoWorkers);
        }
        if self.specs.len() != items {
            return Err(BatchError::ItemsMismatch {
                specs: self.specs.len(),
                items,
            });
        }
        if let Some(d) = self.durations {
            if d.len() != self.specs.len() {
                return Err(BatchError::DurationsMismatch {
                    specs: self.specs.len(),
                    durations: d.len(),
                });
            }
        }
        if let Some(fault) = self.faults.iter().find(|f| f.worker >= self.workers) {
            return Err(BatchError::FaultWorkerOutOfRange {
                worker: fault.worker,
                workers: self.workers,
            });
        }
        let dying = self
            .faults
            .iter()
            .map(|f| f.worker)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        if dying >= self.workers {
            return Err(BatchError::AllWorkersDie {
                workers: self.workers,
                dying,
            });
        }
        if self.progress == Some(0) {
            return Err(BatchError::InvalidProgress);
        }
        // An OOM task with no lane to rerun it could never complete, so
        // it is rejected here — executors may assume every scheduled
        // task eventually succeeds.
        if self.quarantine_workers.is_none() {
            if let Some(spec) = self.specs.iter().find(|s| self.oom.contains(&s.id)) {
                return Err(ResilienceError::TaskExhausted {
                    task: spec.id.clone(),
                }
                .into());
            }
        }
        Ok(Plan {
            specs: &self.specs[..],
            workers: self.workers,
            policy: self.policy,
            faults: self.faults,
            durations: self.durations,
            recorder: self.recorder,
            label: self.label,
            oom: self.oom,
            quarantine_workers: self.quarantine_workers,
            journal: self.journal,
            progress: self.progress,
            completed: BTreeMap::new(),
        })
    }

    /// Run `f` over all items on the given backend.
    ///
    /// # Errors
    /// Returns [`BatchError`] if the batch description is invalid —
    /// conditions that were documented panics under the deleted
    /// per-backend entry points.
    pub fn run_with<I, O, F, E>(
        &self,
        exec: &E,
        items: &[I],
        f: F,
    ) -> Result<BatchOutcome<O>, BatchError>
    where
        I: Sync,
        O: Send,
        F: Fn(&TaskSpec, &I) -> O + Sync,
        E: Executor,
    {
        let plan = self.validate(items.len())?;
        Ok(exec.execute(&plan, items, &f))
    }

    /// Run a payload-free batch (scheduling only — the usual mode for
    /// the simulator, where durations carry all the information).
    ///
    /// # Errors
    /// Returns [`BatchError`] if the batch description is invalid.
    pub fn run<E: Executor>(&self, exec: &E) -> Result<BatchOutcome<()>, BatchError> {
        let items = vec![(); self.specs.len()];
        self.run_with(exec, &items, |_, ()| ())
    }

    /// Restart a killed payload-free batch from its checkpoint journal,
    /// executing only the tasks the journal does not record.
    ///
    /// The final [`BatchOutcome`] records are identical to an
    /// uninterrupted run's (modulo timing on wall-clock backends):
    /// virtual backends re-derive the full deterministic schedule and
    /// cross-check it against the journal, while the thread backend
    /// replays journaled records verbatim and schedules the remainder.
    /// Resume with the same backend kind that wrote the journal.
    ///
    /// # Errors
    /// Returns [`BatchError`] if the batch description is invalid, if
    /// the journal names a task absent from the specs
    /// ([`ResilienceError::UnknownJournalTask`]), or if a deterministic
    /// backend re-derives a record that disagrees with its journal entry
    /// ([`ResilienceError::JournalDiverged`] — the journal belongs to a
    /// different batch).
    pub fn resume<E: Executor>(
        &self,
        exec: &E,
        journal: &Journal,
    ) -> Result<BatchOutcome<()>, BatchError> {
        let mut plan = self.validate(self.specs.len())?;
        let known: std::collections::BTreeSet<&str> =
            self.specs.iter().map(|s| s.id.as_str()).collect();
        let completed = journal.completed();
        for task in completed.keys() {
            if !known.contains(task.as_str()) {
                return Err(ResilienceError::UnknownJournalTask { task: task.clone() }.into());
            }
        }
        if journal.had_torn_tail() && self.recorder.is_enabled() {
            // A kill mid-append truncated the journal's final line; the
            // partial entry was dropped and that task re-runs.
            self.recorder.add("dataflow/journal_torn", 1.0);
        }
        plan.completed = completed;
        let items = vec![(); self.specs.len()];
        let outcome = exec.execute(&plan, &items, &|_: &TaskSpec, (): &()| ());
        for r in &outcome.records {
            if let Some(entry) = plan.completed.get(&r.task_id) {
                if !entry_matches_record(entry, r) {
                    return Err(ResilienceError::JournalDiverged {
                        task: r.task_id.clone(),
                    }
                    .into());
                }
            }
        }
        Ok(outcome)
    }
}

/// One execution interval on a worker, as handed to the [`Ledger`].
#[derive(Clone, Copy)]
pub(crate) struct Ran {
    pub worker: usize,
    pub start: f64,
    pub end: f64,
    /// Seconds of the interval charged as busy: the modeled duration on
    /// the simulator, `end - start` on the wall clock.
    pub busy: f64,
}

impl Ran {
    /// An interval that is busy from start to end.
    pub(crate) fn new(worker: usize, start: f64, end: f64) -> Self {
        Self {
            worker,
            start,
            end,
            busy: end - start,
        }
    }
}

/// Everything a batch accumulates while its lanes run: the one place a
/// completion becomes a [`TaskRecord`] and a [`JournalEntry`], and the
/// one place worker occupancy is charged. The simulator calls it
/// directly; the thread backend shares it behind a single mutex.
pub(crate) struct Ledger<'a, O> {
    specs: &'a [TaskSpec],
    journal: Option<&'a Journal>,
    records: Vec<TaskRecord>,
    outputs: Vec<Option<O>>,
    worker_busy: Vec<f64>,
    worker_finish: Vec<f64>,
    /// Tasks that ran out of memory in the current lane, in burn order;
    /// the frame drains it into the next lane's queue.
    pub(crate) burned: Vec<usize>,
}

impl<'a, O> Ledger<'a, O> {
    fn new(plan: &Plan<'a>, lanes: usize) -> Self {
        let n = plan.specs.len();
        Self {
            specs: plan.specs,
            journal: plan.journal,
            records: Vec::with_capacity(n),
            outputs: (0..n).map(|_| None).collect(),
            worker_busy: vec![0.0; lanes],
            worker_finish: vec![0.0; lanes],
            burned: Vec::new(),
        }
    }

    /// Occupancy of workers outside the batch's lanes (a replayed
    /// journal may name any) is not tracked.
    fn charge(&mut self, ran: Ran) {
        if let Some(busy) = self.worker_busy.get_mut(ran.worker) {
            *busy += ran.busy;
            self.worker_finish[ran.worker] = self.worker_finish[ran.worker].max(ran.end);
        }
    }

    /// Task `idx` completed: record it, journal it, keep its output
    /// (`None` = compute it inline when the batch finishes).
    pub(crate) fn complete(&mut self, idx: usize, ran: Ran, attempts: u32, out: Option<O>) {
        self.charge(ran);
        if let Some(journal) = self.journal {
            journal.record(JournalEntry {
                task: self.specs[idx].id.clone(),
                worker: ran.worker,
                start: ran.start,
                end: ran.end,
                attempts,
            });
        }
        self.records.push(TaskRecord {
            task_id: self.specs[idx].id.clone(),
            worker_id: ran.worker,
            start: ran.start,
            end: ran.end,
            attempts,
        });
        self.outputs[idx] = out;
    }

    /// Task `idx` ran out of memory on `ran.worker` and completed
    /// nowhere: the occupancy is charged and the task moves to the next
    /// lane.
    pub(crate) fn burn(&mut self, idx: usize, ran: Ran) {
        self.charge(ran);
        self.burned.push(idx);
    }

    /// Whether task `idx` already has an output (a replayed resume).
    pub(crate) fn holds(&self, idx: usize) -> bool {
        self.outputs[idx].is_some()
    }
}

/// One lane of workers, as the frame hands it to a backend's runner.
pub(crate) struct PassParams<'a> {
    pub specs: &'a [TaskSpec],
    /// Modeled duration per task, by submission index.
    pub durations: &'a [f64],
    /// Queue order of the lane (submission indices).
    pub order: &'a [usize],
    pub workers: usize,
    /// Worker ids are `id_offset..id_offset + workers`.
    pub id_offset: usize,
    /// When the lane's workers become free (virtual backends).
    pub start_at: f64,
    pub lane: Lane,
    /// `worker id → tasks_before_death` (first fault per worker wins).
    pub budgets: &'a BTreeMap<usize, usize>,
    /// Ids of the tasks that run out of memory on the standard lane.
    pub oom: &'a BTreeSet<&'a str>,
}

impl PassParams<'_> {
    /// Whether task `idx` runs out of memory in this lane: an OOM task
    /// does on the standard lane and never on the high-memory one.
    pub fn ooms(&self, idx: usize) -> bool {
        self.lane == Lane::Standard && self.oom.contains(self.specs[idx].id.as_str())
    }
}

/// What one lane reports back, beyond what it wrote to the [`Ledger`].
pub(crate) struct PassResult {
    /// Worker ids that registered, in registration order.
    pub registered: Vec<usize>,
    /// When the lane drained, on the backend's clock.
    pub makespan: f64,
    pub requeued: usize,
}

/// The frozen path, once for every backend: prepare, run the standard
/// lane, run the high-memory rerun lane when tasks ran out of memory,
/// assemble the outcome, close the span. `run_lane` is all a backend
/// supplies.
pub(crate) fn run_frozen<I, O, F>(
    plan: &Plan<'_>,
    items: &[I],
    f: &F,
    mut run_lane: impl FnMut(&PassParams<'_>, &mut Ledger<'_, O>) -> PassResult,
) -> BatchOutcome<O>
where
    F: Fn(&TaskSpec, &I) -> O,
{
    let t0 = plan.recorder.now();
    let span = plan.recorder.span_start(plan.label);
    let specs = plan.specs;
    let owned_durations: Vec<f64>;
    let durations: &[f64] = match plan.durations {
        Some(d) => d,
        None => {
            owned_durations = specs.iter().map(|s| s.cost_hint).collect();
            &owned_durations
        }
    };
    let oom: BTreeSet<&str> = plan.oom.iter().map(String::as_str).collect();
    let mut budgets: BTreeMap<usize, usize> = BTreeMap::new();
    for fault in plan.faults {
        budgets
            .entry(fault.worker)
            .or_insert(fault.tasks_before_death);
    }
    let no_budgets = BTreeMap::new();
    let q_width = plan.quarantine_workers.unwrap_or(0);
    let mut ledger = Ledger::new(plan, plan.workers + q_width);

    let order = plan.policy.order(specs);
    let standard = PassParams {
        specs,
        durations,
        order: &order,
        workers: plan.workers,
        id_offset: 0,
        start_at: 0.0,
        lane: Lane::Standard,
        budgets: &budgets,
        oom: &oom,
    };
    let pass1 = run_lane(&standard, &mut ledger);
    let burned = std::mem::take(&mut ledger.burned);
    let mut registered_workers = pass1.registered;
    let mut requeued = pass1.requeued;
    let mut makespan = pass1.makespan;
    let quarantined = burned.len();
    if quarantined > 0 {
        // §3.3's dedicated rerun: a fresh high-memory lane, numbered
        // after the standard workers, starts once the standard lane
        // drains.
        let pass2 = run_lane(
            &PassParams {
                order: &burned,
                workers: q_width,
                id_offset: plan.workers,
                start_at: pass1.makespan,
                lane: Lane::HighMemory,
                budgets: &no_budgets,
                ..standard
            },
            &mut ledger,
        );
        debug_assert!(ledger.burned.is_empty(), "no task ooms on high memory");
        requeued += pass2.requeued;
        makespan = makespan.max(pass2.makespan);
        registered_workers.extend(pass2.registered);
    }
    let quarantine_makespan = makespan - pass1.makespan;

    // An unused rerun lane is trimmed so utilization only counts
    // workers that could have run.
    let lanes_width = plan.workers + if quarantined > 0 { q_width } else { 0 };
    ledger.worker_busy.truncate(lanes_width);
    ledger.worker_finish.truncate(lanes_width);
    let outcome = BatchOutcome {
        // Tasks that never ran here (every task of a simulated batch)
        // get their output inline, in submission order.
        outputs: ledger
            .outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| f(&specs[i], &items[i])))
            .collect(),
        // Replayed journal records may end later than this run's clock.
        makespan: ledger.records.iter().fold(makespan, |m, r| m.max(r.end)),
        records: ledger.records,
        workers: plan.workers,
        registered_workers,
        worker_busy: ledger.worker_busy,
        worker_finish: ledger.worker_finish,
        requeued,
        deaths: budgets.len(),
        quarantined,
        quarantine_makespan,
        resumed: plan.completed.len(),
    };
    close_batch_span(plan, span, t0, &outcome);
    outcome
}

/// What a backend's live drain hands back to [`finish_live`].
pub(crate) struct LiveDrain {
    /// One record per dispatched task, in completion order.
    pub records: Vec<TaskRecord>,
    /// Worker ids that registered, in registration order.
    pub registered: Vec<usize>,
    /// Pulls that found nothing dispatchable yet.
    pub waits: usize,
}

/// The live path, once for every backend: open the span, let the
/// backend drain the queue, assemble the outcome, emit the
/// `service/live_*` counters.
pub(crate) fn finish_live(
    plan: &LivePlan<'_>,
    drain: impl FnOnce() -> LiveDrain,
) -> BatchOutcome<()> {
    let rec = plan.recorder;
    let t0 = rec.now();
    let span = rec.span_start(plan.label);
    let LiveDrain {
        records,
        registered,
        waits,
    } = drain();
    let (worker_busy, worker_finish) = per_worker_stats(&records, plan.workers);
    let outcome = BatchOutcome {
        outputs: vec![(); records.len()],
        makespan: records.iter().map(|r| r.end).fold(0.0, f64::max),
        records,
        workers: plan.workers,
        registered_workers: registered,
        worker_busy,
        worker_finish,
        requeued: 0,
        deaths: 0,
        quarantined: 0,
        quarantine_makespan: 0.0,
        resumed: 0,
    };
    if rec.is_enabled() {
        for r in &outcome.records {
            rec.task(
                Some(span),
                &r.task_id,
                r.worker_id,
                r.start,
                r.end,
                r.attempts,
            );
        }
        rec.add("service/live_completed", outcome.records.len() as f64);
        rec.add("service/live_waits", waits as f64);
        rec.advance_clock_to(t0 + outcome.makespan);
    }
    rec.span_end(span);
    outcome
}

/// Emit per-task events and close the batch span, advancing virtual
/// clocks to the batch end so the span duration equals the makespan.
///
/// Resilience telemetry rides along: `dataflow/retries`,
/// `dataflow/quarantined` and `dataflow/resumed` counters and a nested
/// `{label}:quarantine` span covering the rerun pass when one happened.
/// When the plan asked for progress telemetry, `monitor/...` gauges are interleaved at their
/// completion timestamps (see [`Batch::progress`]).
fn close_batch_span<O>(plan: &Plan<'_>, span: SpanId, t0: f64, outcome: &BatchOutcome<O>) {
    let rec = plan.recorder;
    if !rec.is_enabled() {
        return;
    }
    for r in &outcome.records {
        rec.task(
            Some(span),
            &r.task_id,
            r.worker_id,
            r.start,
            r.end,
            r.attempts,
        );
    }
    if let Some(every) = plan.progress {
        emit_progress(plan, t0, outcome, every);
    }
    if outcome.requeued > 0 {
        rec.add("dataflow/requeued", outcome.requeued as f64);
    }
    if outcome.deaths > 0 {
        rec.add("dataflow/worker_deaths", outcome.deaths as f64);
    }
    let retries = outcome.retries();
    if retries > 0 {
        rec.add("dataflow/retries", retries as f64);
    }
    if outcome.quarantined > 0 {
        rec.add("dataflow/quarantined", outcome.quarantined as f64);
    }
    if outcome.resumed > 0 {
        rec.add("dataflow/resumed", outcome.resumed as f64);
    }
    if outcome.quarantined > 0 && outcome.quarantine_makespan > 0.0 {
        // On a virtual clock the quarantine span covers exactly the
        // rerun tail; a wall clock has already passed it, so the span
        // degenerates to a marker at close time.
        rec.advance_clock_to(t0 + outcome.makespan - outcome.quarantine_makespan);
        let q = rec.span_start(&format!("{}:quarantine", plan.label));
        rec.advance_clock_to(t0 + outcome.makespan);
        rec.span_end(q);
    }
    rec.advance_clock_to(t0 + outcome.makespan);
    rec.span_end(span);
}

/// Replay the completion sequence through a [`summitfold_obs::Monitor`]
/// and emit `monitor/...` health gauges every `every` completions (plus
/// once at the final completion).
///
/// Completions are replayed in end-time order (ties broken by task id),
/// which is the order an operator would have watched them land, and the
/// gauges are stamped with [`Recorder::gauge_at`] at the completion's
/// batch time — the clock is never advanced, so every other event in
/// the trace keeps byte-identical timestamps whether or not progress
/// telemetry is on.
fn emit_progress<O>(plan: &Plan<'_>, t0: f64, outcome: &BatchOutcome<O>, every: usize) {
    use summitfold_obs::{Event, Monitor, MonitorConfig, Sink as _};
    let expected_total_s = match plan.durations {
        Some(ds) => ds.iter().sum(),
        None => plan.specs.iter().map(|s| s.cost_hint).sum(),
    };
    let monitor = Monitor::new(MonitorConfig {
        total_tasks: Some(plan.specs.len()),
        expected_total_s: Some(expected_total_s),
        workers: Some(plan.workers),
    });
    let mut records: Vec<&TaskRecord> = outcome.records.iter().collect();
    records.sort_by(|a, b| {
        a.end
            .total_cmp(&b.end)
            .then_with(|| a.task_id.cmp(&b.task_id))
    });
    let rec = plan.recorder;
    let last = records.len();
    for (i, r) in records.iter().enumerate() {
        monitor.event(&Event::Task {
            span: None,
            task: r.task_id.clone(),
            worker: r.worker_id,
            start: r.start,
            end: r.end,
            attempts: r.attempts,
        });
        let done = i + 1;
        if done % every != 0 && done != last {
            continue;
        }
        let snap = monitor.snapshot();
        let t = t0 + snap.t;
        rec.gauge_at("monitor/done", snap.tasks_done as f64, t);
        rec.gauge_at("monitor/total", plan.specs.len() as f64, t);
        rec.gauge_at("monitor/throughput", snap.throughput_per_s, t);
        rec.gauge_at("monitor/utilization", snap.utilization, t);
        rec.gauge_at("monitor/eta_s", snap.eta_s, t);
    }
}

/// Group `records` by worker in one pass: lane `w` of the result holds
/// worker `w`'s records sorted by start time. Records naming workers
/// outside `0..lanes` are dropped — callers size `lanes` to include the
/// quarantine lane when they want it. This is the single grouped scan
/// behind both [`BatchOutcome::worker_timelines`] and
/// `per_worker_stats`, so the Gantt view and the load-balance stats
/// can never disagree about which records belong to a worker.
#[must_use]
pub fn group_by_worker(records: &[TaskRecord], lanes: usize) -> Vec<Vec<&TaskRecord>> {
    let mut groups: Vec<Vec<&TaskRecord>> = vec![Vec::new(); lanes];
    for r in records {
        if r.worker_id < lanes {
            groups[r.worker_id].push(r);
        }
    }
    for g in &mut groups {
        g.sort_by(|a, b| a.start.total_cmp(&b.start));
    }
    groups
}

/// Per-worker busy seconds and finish times derived from task records,
/// via the same grouped pass as [`BatchOutcome::worker_timelines`].
fn per_worker_stats(records: &[TaskRecord], workers: usize) -> (Vec<f64>, Vec<f64>) {
    let groups = group_by_worker(records, workers);
    let busy = groups
        .iter()
        .map(|g| g.iter().map(|r| r.duration()).sum())
        .collect();
    let finish = groups
        .iter()
        .map(|g| g.iter().map(|r| r.end).fold(0.0, f64::max))
        .collect();
    (busy, finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::ThreadExecutor;
    use crate::sim::VirtualExecutor;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), 1.0 + (i % 7) as f64))
            .collect()
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let s = specs(4);
        let err = Batch::new(&s).workers(0).run(&VirtualExecutor::new(0.0));
        assert_eq!(err.unwrap_err(), BatchError::NoWorkers);
    }

    #[test]
    fn item_mismatch_is_a_typed_error() {
        let s = specs(4);
        let items = vec![1u32; 3];
        let err = Batch::new(&s)
            .workers(2)
            .run_with(&ThreadExecutor, &items, |_, &x| x)
            .unwrap_err();
        assert_eq!(err, BatchError::ItemsMismatch { specs: 4, items: 3 });
    }

    #[test]
    fn duration_mismatch_is_a_typed_error() {
        let s = specs(4);
        let durations = vec![1.0; 5];
        let err = Batch::new(&s)
            .workers(2)
            .durations(&durations)
            .run(&VirtualExecutor::new(0.0))
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::DurationsMismatch {
                specs: 4,
                durations: 5
            }
        );
    }

    #[test]
    fn all_workers_dying_is_a_typed_error() {
        let s = specs(10);
        let faults = [
            WorkerFault {
                worker: 0,
                tasks_before_death: 1,
            },
            WorkerFault {
                worker: 1,
                tasks_before_death: 1,
            },
        ];
        let err = Batch::new(&s)
            .workers(2)
            .faults(&faults)
            .run(&ThreadExecutor)
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::AllWorkersDie {
                workers: 2,
                dying: 2
            }
        );
        // Two faults on the same worker count it once.
        let twice = [
            WorkerFault {
                worker: 0,
                tasks_before_death: 1,
            },
            WorkerFault {
                worker: 0,
                tasks_before_death: 5,
            },
        ];
        assert!(Batch::new(&s)
            .workers(2)
            .faults(&twice)
            .run(&ThreadExecutor)
            .is_ok());
    }

    #[test]
    fn fault_on_a_nonexistent_worker_is_a_typed_error() {
        let s = specs(10);
        let high = [WorkerFault {
            worker: 9,
            tasks_before_death: 0,
        }];
        let err = Batch::new(&s)
            .workers(2)
            .faults(&high)
            .run(&ThreadExecutor)
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::FaultWorkerOutOfRange {
                worker: 9,
                workers: 2
            }
        );
    }

    #[test]
    fn errors_render_usefully() {
        let msgs = [
            BatchError::NoWorkers.to_string(),
            BatchError::ItemsMismatch { specs: 1, items: 2 }.to_string(),
            BatchError::DurationsMismatch {
                specs: 1,
                durations: 2,
            }
            .to_string(),
            BatchError::AllWorkersDie {
                workers: 2,
                dying: 2,
            }
            .to_string(),
            BatchError::FaultWorkerOutOfRange {
                worker: 9,
                workers: 2,
            }
            .to_string(),
            BatchError::InvalidProgress.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[1].contains("1 task specs but 2 items"), "{}", msgs[1]);
        assert!(msgs[4].contains("worker 9"), "{}", msgs[4]);
    }

    #[test]
    fn zero_progress_cadence_is_a_typed_error() {
        let s = specs(4);
        let err = Batch::new(&s)
            .workers(2)
            .progress(0)
            .run(&VirtualExecutor::new(0.0))
            .unwrap_err();
        assert_eq!(err, BatchError::InvalidProgress);
    }

    #[test]
    fn progress_emits_monitor_gauges_without_perturbing_the_rest() {
        use summitfold_obs::{Event, Recorder};
        let s = specs(6);
        let run = |progress: Option<usize>| {
            let rec = Recorder::virtual_time();
            let mut b = Batch::new(&s).workers(2).recorder(&rec);
            if let Some(every) = progress {
                b = b.progress(every);
            }
            b.run(&VirtualExecutor::new(0.0)).unwrap();
            rec.events()
        };
        let plain = run(None);
        let with = run(Some(2));
        let (gauges, rest): (Vec<Event>, Vec<Event>) = with
            .into_iter()
            .partition(|e| matches!(e, Event::Gauge { name, .. } if name.starts_with("monitor/")));
        assert_eq!(rest, plain, "progress only adds gauges");
        // 6 tasks at cadence 2 → 3 emissions × 5 gauges.
        assert_eq!(gauges.len(), 15);
        let done: Vec<f64> = gauges
            .iter()
            .filter_map(|e| match e {
                Event::Gauge { name, value, .. } if name == "monitor/done" => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![2.0, 4.0, 6.0]);
        // Gauge timestamps are completion times, nondecreasing.
        let ts: Vec<f64> = gauges
            .iter()
            .filter_map(|e| match e {
                Event::Gauge { t, .. } => Some(*t),
                _ => None,
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn per_worker_stats_accumulate() {
        let records = vec![
            TaskRecord::new("a", 0, 0.0, 2.0),
            TaskRecord::new("b", 0, 3.0, 4.0),
            TaskRecord::new("c", 1, 0.0, 1.5),
        ];
        let (busy, finish) = per_worker_stats(&records, 2);
        assert_eq!(busy, vec![3.0, 1.5]);
        assert_eq!(finish, vec![4.0, 1.5]);
    }

    #[test]
    fn timeline_and_stats_views_agree() {
        // Regression for the shared grouped pass: the Gantt view
        // (worker_timelines) and the load-balance stats
        // (worker_busy/worker_finish via per_worker_stats) must describe
        // the same per-worker record sets.
        let s = specs(40);
        let r = Batch::new(&s)
            .workers(5)
            .policy(OrderingPolicy::LongestFirst)
            .run(&VirtualExecutor::new(0.5))
            .unwrap();
        let timelines = r.worker_timelines();
        assert_eq!(timelines.len(), r.worker_busy.len());
        for (w, tl) in timelines.iter().enumerate() {
            let busy: f64 = tl.iter().map(|rec| rec.duration()).sum();
            let finish = tl.iter().map(|rec| rec.end).fold(0.0, f64::max);
            assert!((busy - r.worker_busy[w]).abs() < 1e-9, "worker {w}");
            assert!((finish - r.worker_finish[w]).abs() < 1e-9, "worker {w}");
            // And the single-worker view is the same lane.
            assert_eq!(r.worker_timeline(w), *tl);
        }
        // Every record appears in exactly one lane.
        let total: usize = timelines.iter().map(Vec::len).sum();
        assert_eq!(total, r.records.len());
    }

    #[test]
    fn doomed_tasks_are_rejected_up_front() {
        let s = specs(3);
        // OOM task with no quarantine lane: typed error, and it `?`s.
        let oom = ["t1".to_owned()];
        let err = Batch::new(&s)
            .workers(2)
            .oom(&oom)
            .run(&VirtualExecutor::new(0.0))
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::Resilience(ResilienceError::TaskExhausted { task: "t1".into() })
        );
        assert!(err.to_string().contains("no quarantine lane"));
        use std::error::Error as _;
        assert!(err.source().is_some(), "Resilience wraps its source");

        // The same task with a quarantine lane completes there.
        let ok = Batch::new(&s)
            .workers(2)
            .oom(&oom)
            .quarantine(1)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert_eq!(ok.quarantined, 1);

        // A zero-width quarantine lane can never drain.
        let err = Batch::new(&s)
            .workers(2)
            .quarantine(0)
            .run(&VirtualExecutor::new(0.0))
            .unwrap_err();
        assert_eq!(err, BatchError::NoWorkers);
    }

    #[test]
    fn empty_batch_runs_everywhere() {
        let s = specs(0);
        let sim = Batch::new(&s)
            .workers(3)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert!(sim.records.is_empty());
        assert_eq!(sim.makespan, 0.0);
        let real = Batch::new(&s).workers(3).run(&ThreadExecutor).unwrap();
        assert!(real.outputs.is_empty());
    }
}
