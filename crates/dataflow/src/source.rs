//! Live task sources: the submission queue behind the folding service.
//!
//! A [`Batch`](crate::exec::Batch) is frozen: it borrows `&[TaskSpec]`
//! and both executors walk a plan fixed at validation time. That shape
//! cannot admit work while a batch is in flight, which the folding
//! service needs. This module is the live side:
//!
//! * [`SubmissionQueue`] — a clonable, thread-safe handle to a live
//!   queue of tasks grouped into *classes* (one per tenant in the
//!   service). Submitters push campaigns with an arrival time; workers
//!   pull one dispatch at a time. Scheduling across classes is
//!   weighted fair-share (stride scheduling) within priority tiers.
//! * [`LiveRun`] — the builder that validates a live run and drives
//!   [`Executor::run_live`] on either backend.
//!
//! # Determinism
//!
//! The dispatch sequence produced by [`SubmissionQueue::pull`] is a
//! pure function of queue contents and the `now` values passed in:
//! class selection is highest priority tier first, then minimum
//! fair-share pass, then lowest class id. On the virtual executor
//! (single-threaded, virtual clock) a closed queue therefore replays
//! byte-identically; on the thread executor the *dispatch order* is
//! still deterministic when all arrivals are due, even though wall
//! timestamps are not.

use crate::exec::{BatchError, BatchOutcome, Executor, LivePlan};
use crate::sync::lock;
use crate::task::TaskSpec;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use summitfold_obs::Recorder;

/// Minimum cost credited against a class's fair-share pass per
/// dispatch, so zero-cost tasks cannot starve other classes.
const MIN_PASS_COST: f64 = 1e-9;

/// Configuration for one scheduling class (one tenant, in service
/// terms).
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Fair-share weight. A class with weight 2 receives twice the
    /// node-seconds of a weight-1 class under contention. Must be
    /// finite and positive.
    pub weight: f64,
    /// Priority tier. All eligible tasks of a higher tier dispatch
    /// before any task of a lower tier.
    pub priority: u32,
}

impl Default for ClassConfig {
    fn default() -> Self {
        Self {
            weight: 1.0,
            priority: 0,
        }
    }
}

/// A task waiting in a class queue, with its arrival time.
#[derive(Debug, Clone)]
struct Pending {
    spec: TaskSpec,
    /// Earliest virtual/wall second the task may dispatch.
    not_before: f64,
    /// Global submission sequence number: ties on `not_before` keep
    /// submission order.
    seq: u64,
}

#[derive(Debug)]
struct ClassState {
    cfg: ClassConfig,
    /// Sorted by `(not_before, seq)`; the head is always the next
    /// dispatchable task of this class.
    queue: VecDeque<Pending>,
    /// Stride-scheduling pass value: advanced by `cost / weight` on
    /// each dispatch; the eligible class with the minimum pass runs.
    pass: f64,
}

#[derive(Debug)]
struct Inner {
    classes: Vec<ClassState>,
    closed: bool,
    next_seq: u64,
    dispatched: Vec<DispatchEntry>,
}

/// One entry of the dispatch log: which class was served, with what
/// task and modeled cost. The cumulative per-class cost of a log
/// prefix is the fair-share contract both executors must honor.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchEntry {
    /// Scheduling class the task came from.
    pub class: usize,
    /// Task id, as submitted.
    pub task_id: String,
    /// Modeled cost (`cost_hint`) charged against the class's pass.
    pub cost: f64,
}

/// Outcome of one [`SubmissionQueue::pull`] call.
#[derive(Debug, Clone)]
pub enum Pull {
    /// A task is ready: run it. The class it was served from is in the
    /// dispatch log ([`DispatchEntry::class`]).
    Task(TaskSpec),
    /// Nothing is due yet, but a submission arrives at the contained
    /// time (strictly later than the `now` passed to `pull`). Virtual
    /// executors advance their clock to it; wall executors sleep.
    Wait(f64),
    /// The queue is empty but still open: more work may be submitted.
    /// Wall executors yield and retry; the virtual executor treats
    /// this as end-of-stream (close the queue before a virtual run).
    Pending,
    /// The queue is closed and fully drained: the worker can retire.
    Drained,
}

/// Typed error for rejected submissions.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The class id does not exist.
    UnknownClass {
        /// The offending class id.
        class: usize,
        /// Number of registered classes.
        classes: usize,
    },
    /// The queue has been closed; no further submissions are accepted.
    Closed,
    /// A task carried a non-finite or negative arrival time.
    InvalidArrival {
        /// The offending `not_before` value.
        not_before: f64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownClass { class, classes } => {
                write!(f, "unknown class {class} ({classes} registered)")
            }
            Self::Closed => write!(f, "submission queue is closed"),
            Self::InvalidArrival { not_before } => {
                write!(
                    f,
                    "arrival time {not_before} is not a finite non-negative second"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A clonable handle to a live, thread-safe submission queue with
/// weighted fair-share + priority scheduling across classes.
///
/// See the [module docs](self) for the scheduling contract. All
/// handles share one queue; cloning is cheap.
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    inner: Arc<Mutex<Inner>>,
}

impl Default for SubmissionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl SubmissionQueue {
    /// An empty queue with a single default class (id 0, weight 1,
    /// priority 0) — the single-tenant shape.
    pub fn new() -> Self {
        Self::with_classes(&[ClassConfig::default()])
    }

    /// An empty queue with one class per config, ids assigned in
    /// order. Non-finite or non-positive weights are clamped to 1.0
    /// (a weight is a share, not a validated budget — the service
    /// layer rejects bad tenant specs before they get here).
    pub fn with_classes(cfgs: &[ClassConfig]) -> Self {
        let classes = cfgs
            .iter()
            .map(|cfg| {
                let weight = if cfg.weight.is_finite() && cfg.weight > 0.0 {
                    cfg.weight
                } else {
                    1.0
                };
                ClassState {
                    cfg: ClassConfig {
                        weight,
                        priority: cfg.priority,
                    },
                    queue: VecDeque::new(),
                    pass: 0.0,
                }
            })
            .collect();
        Self {
            inner: Arc::new(Mutex::new(Inner {
                classes,
                closed: false,
                next_seq: 0,
                dispatched: Vec::new(),
            })),
        }
    }

    /// Submit a campaign: every task becomes dispatchable at
    /// `not_before` (seconds on the executor's clock), in submission
    /// order relative to other tasks of the same class and arrival
    /// time. Returns the number of tasks enqueued.
    pub fn submit(
        &self,
        class: usize,
        not_before: f64,
        specs: impl IntoIterator<Item = TaskSpec>,
    ) -> Result<usize, SubmitError> {
        if !not_before.is_finite() || not_before < 0.0 {
            return Err(SubmitError::InvalidArrival { not_before });
        }
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        let classes = inner.classes.len();
        if class >= classes {
            return Err(SubmitError::UnknownClass { class, classes });
        }
        let mut count = 0;
        for spec in specs {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let pending = Pending {
                spec,
                not_before,
                seq,
            };
            let q = &mut inner.classes[class].queue;
            // Keep the class queue sorted by (not_before, seq); the
            // common case (nondecreasing arrivals) appends in O(1).
            let at = q
                .iter()
                .rposition(|p| (p.not_before, p.seq) <= (pending.not_before, pending.seq))
                .map_or(0, |i| i + 1);
            q.insert(at, pending);
            count += 1;
        }
        Ok(count)
    }

    /// Close the queue: pending tasks still drain, but further
    /// [`submit`](Self::submit) calls fail with [`SubmitError::Closed`]
    /// and workers observing an empty queue retire instead of waiting.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
    }

    /// Number of tasks currently queued (not yet dispatched).
    pub fn len(&self) -> usize {
        lock(&self.inner)
            .classes
            .iter()
            .map(|c| c.queue.len())
            .sum()
    }

    /// Whether no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pull the next dispatch at time `now`. See [`Pull`] for the
    /// four outcomes. Eligible classes (non-empty, head task due) are
    /// ranked by priority tier, then minimum fair-share pass, then
    /// class id — a fully deterministic order.
    pub fn pull(&self, now: f64) -> Pull {
        let mut inner = lock(&self.inner);
        let mut best: Option<usize> = None;
        let mut next_arrival = f64::INFINITY;
        for (id, c) in inner.classes.iter().enumerate() {
            let Some(head) = c.queue.front() else {
                continue;
            };
            if head.not_before > now {
                next_arrival = next_arrival.min(head.not_before);
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let bc = &inner.classes[b];
                    (c.cfg.priority, std::cmp::Reverse(c.pass))
                        > (bc.cfg.priority, std::cmp::Reverse(bc.pass))
                }
            };
            if better {
                best = Some(id);
            }
        }
        if let Some(id) = best {
            let c = &mut inner.classes[id];
            let Some(head) = c.queue.pop_front() else {
                return Pull::Pending; // unreachable: `best` had a head
            };
            let cost = head.spec.cost_hint.max(MIN_PASS_COST);
            c.pass += cost / c.cfg.weight;
            inner.dispatched.push(DispatchEntry {
                class: id,
                task_id: head.spec.id.clone(),
                cost: head.spec.cost_hint,
            });
            return Pull::Task(head.spec);
        }
        if next_arrival.is_finite() && next_arrival > now {
            return Pull::Wait(next_arrival);
        }
        if inner.closed {
            Pull::Drained
        } else {
            Pull::Pending
        }
    }

    /// Snapshot of the dispatch log so far (order of service across
    /// classes). The cumulative per-class cost of any prefix is the
    /// fair-share measurement used by tests and the service report.
    pub fn dispatch_log(&self) -> Vec<DispatchEntry> {
        lock(&self.inner).dispatched.clone()
    }
}

/// Builder for a live-queue run: validates, then drives
/// [`Executor::run_live`] on the chosen backend.
#[derive(Debug, Clone)]
pub struct LiveRun<'a> {
    queue: &'a SubmissionQueue,
    workers: usize,
    recorder: &'a Recorder,
    label: &'a str,
}

impl<'a> LiveRun<'a> {
    /// A live run over `queue` with one worker and telemetry disabled.
    pub fn new(queue: &'a SubmissionQueue) -> Self {
        Self {
            queue,
            workers: 1,
            recorder: Recorder::disabled(),
            label: "live",
        }
    }

    /// Number of workers pulling from the queue.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Recorder for the run's trace (span, task events, `service/*`
    /// counters).
    #[must_use]
    pub fn recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Span label for the trace.
    #[must_use]
    pub fn label(mut self, label: &'a str) -> Self {
        self.label = label;
        self
    }

    /// Validate and run on `exec`.
    pub fn run<E: Executor>(self, exec: &E) -> Result<BatchOutcome<()>, BatchError> {
        if self.workers == 0 {
            return Err(BatchError::NoWorkers);
        }
        let plan = LivePlan {
            workers: self.workers,
            recorder: self.recorder,
            label: self.label,
        };
        Ok(exec.run_live(&plan, self.queue))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, cost: f64) -> TaskSpec {
        TaskSpec {
            id: id.to_string(),
            cost_hint: cost,
        }
    }

    fn drain(q: &SubmissionQueue) -> Vec<String> {
        let mut out = Vec::new();
        let mut now = 0.0;
        loop {
            match q.pull(now) {
                Pull::Task(spec) => out.push(spec.id),
                Pull::Wait(t) => now = t,
                Pull::Pending | Pull::Drained => return out,
            }
        }
    }

    #[test]
    fn fifo_within_a_class() {
        let q = SubmissionQueue::new();
        q.submit(0, 0.0, (0..4).map(|i| spec(&format!("t{i}"), 1.0)))
            .unwrap();
        q.close();
        assert_eq!(drain(&q), ["t0", "t1", "t2", "t3"]);
    }

    #[test]
    fn weighted_fair_share_two_to_one() {
        let q = SubmissionQueue::with_classes(&[
            ClassConfig {
                weight: 2.0,
                priority: 0,
            },
            ClassConfig {
                weight: 1.0,
                priority: 0,
            },
        ]);
        for c in 0..2 {
            q.submit(c, 0.0, (0..90).map(|i| spec(&format!("c{c}-{i}"), 1.0)))
                .unwrap();
        }
        q.close();
        for _ in 0..60 {
            assert!(matches!(q.pull(0.0), Pull::Task(_)));
        }
        let mut served = [0usize; 2];
        for e in q.dispatch_log() {
            served[e.class] += 1;
        }
        // 2:1 split over any prefix, within one dispatch of exact.
        assert!((served[0] as i64 - 40).abs() <= 1, "{served:?}");
        assert!((served[1] as i64 - 20).abs() <= 1, "{served:?}");
    }

    #[test]
    fn priority_tier_preempts_weight() {
        let q = SubmissionQueue::with_classes(&[
            ClassConfig {
                weight: 100.0,
                priority: 0,
            },
            ClassConfig {
                weight: 1.0,
                priority: 1,
            },
        ]);
        q.submit(0, 0.0, [spec("low", 1.0)]).unwrap();
        q.submit(1, 0.0, [spec("high", 1.0)]).unwrap();
        q.close();
        assert_eq!(drain(&q), ["high", "low"]);
    }

    #[test]
    fn arrival_times_gate_dispatch() {
        let q = SubmissionQueue::new();
        q.submit(0, 10.0, [spec("late", 1.0)]).unwrap();
        q.submit(0, 0.0, [spec("early", 1.0)]).unwrap();
        q.close();
        match q.pull(0.0) {
            Pull::Task(spec) => assert_eq!(spec.id, "early"),
            other => panic!("unexpected {other:?}"),
        }
        match q.pull(0.0) {
            Pull::Wait(t) => assert_eq!(t, 10.0),
            other => panic!("unexpected {other:?}"),
        }
        match q.pull(10.0) {
            Pull::Task(spec) => assert_eq!(spec.id, "late"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(q.pull(10.0), Pull::Drained));
    }

    #[test]
    fn open_empty_queue_is_pending_then_drained_after_close() {
        let q = SubmissionQueue::new();
        assert!(matches!(q.pull(0.0), Pull::Pending));
        q.close();
        assert!(matches!(q.pull(0.0), Pull::Drained));
        assert!(matches!(
            q.submit(0, 0.0, [spec("x", 1.0)]),
            Err(SubmitError::Closed)
        ));
    }

    #[test]
    fn unknown_class_and_bad_arrival_are_typed() {
        let q = SubmissionQueue::new();
        assert_eq!(
            q.submit(7, 0.0, [spec("x", 1.0)]),
            Err(SubmitError::UnknownClass {
                class: 7,
                classes: 1
            })
        );
        assert!(matches!(
            q.submit(0, f64::NAN, [spec("x", 1.0)]),
            Err(SubmitError::InvalidArrival { .. })
        ));
    }

    #[test]
    fn dispatch_log_records_class_and_cost() {
        let q = SubmissionQueue::with_classes(&[ClassConfig::default(), ClassConfig::default()]);
        q.submit(1, 0.0, [spec("x", 2.5)]).unwrap();
        q.close();
        drain(&q);
        let log = q.dispatch_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].class, 1);
        assert_eq!(log[0].task_id, "x");
        assert_eq!(log[0].cost, 2.5);
    }
}
