//! Task-level resilience: retry policies, fault models, and the shared
//! attempt arithmetic both executors replay.
//!
//! §3.3 of the paper reports two failure shapes the Summit deployment had
//! to absorb: transient task failures (a worker hiccup, a filesystem
//! stall) that succeed on a later attempt, and OOM-shaped failures —
//! over-large proteins that "will have failed to process" on a standard
//! node no matter how often they are retried, and were re-run on
//! dedicated high-memory nodes. [`TaskFault`] models both alongside the
//! worker-death schedule in [`crate::fault`]:
//!
//! * [`TaskFaultKind::Transient`] — the task fails its first `failures`
//!   executions (counted across lanes), then succeeds;
//! * [`TaskFaultKind::Oom`] — the task fails every execution on the
//!   [`Lane::Standard`] worker profile and succeeds first try on
//!   [`Lane::HighMemory`].
//!
//! A [`RetryPolicy`] bounds attempts per lane and inserts a capped
//! exponential backoff between them. Tasks that exhaust the policy on the
//! standard lane are not dropped: the batch collects them and re-runs
//! them in a second *quarantine* pass on a high-memory worker profile
//! (configured with `Batch::quarantine`). A task that exhausts even the
//! quarantine lane makes the batch description invalid — caught up front
//! by `Batch` validation as [`ResilienceError::TaskExhausted`], so
//! executors can assume every scheduled task eventually succeeds.
//!
//! The whole model is a pure function of the batch description:
//! [`FaultPlan::pass`] computes how many failures a task burns in a lane,
//! and both [`crate::sim::VirtualExecutor`] and
//! [`crate::real::ThreadExecutor`] derive identical attempt counts from
//! it — the cross-executor contract the resilience tests pin.

use crate::journal::JournalEntry;
use crate::task::TaskRecord;
use std::collections::BTreeMap;

/// Bounded-retry policy with capped exponential backoff.
///
/// A task may execute at most `max_attempts` times *per lane*; after its
/// `i`-th failure in a lane the worker waits
/// `min(backoff_base_s * 2^(i-1), backoff_cap_s)` seconds before the next
/// attempt (no wait after the lane's final failure — the task leaves for
/// the quarantine lane instead). The schedule is deterministic: virtual
/// executors add the delays to worker occupancy, the thread executor
/// actually sleeps them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Executions allowed per lane (>= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub backoff_base_s: f64,
    /// Upper bound on any single backoff delay, in seconds.
    pub backoff_cap_s: f64,
}

impl RetryPolicy {
    /// No retries: one attempt per lane, no backoff.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_s: 0.0,
            backoff_cap_s: 0.0,
        }
    }

    /// A policy allowing `max_attempts` executions per lane with capped
    /// exponential backoff. `max_attempts` is clamped to at least 1;
    /// negative delays are clamped to zero.
    #[must_use]
    pub fn new(max_attempts: u32, backoff_base_s: f64, backoff_cap_s: f64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_base_s: backoff_base_s.max(0.0),
            backoff_cap_s: backoff_cap_s.max(0.0),
        }
    }

    /// Delay after the `failure`-th failed attempt in a lane (1-based):
    /// `min(base * 2^(failure-1), cap)`. Zero for `failure == 0`.
    #[must_use]
    pub fn backoff_after(&self, failure: u32) -> f64 {
        if failure == 0 || self.backoff_base_s <= 0.0 {
            return 0.0;
        }
        let doubled = self.backoff_base_s * 2f64.powi(failure.saturating_sub(1).min(60) as i32);
        doubled.min(self.backoff_cap_s.max(self.backoff_base_s))
    }

    /// Total backoff a worker waits before a success preceded by
    /// `failures` failed attempts in the lane.
    #[must_use]
    pub fn backoff_before_success(&self, failures: u32) -> f64 {
        (1..=failures).map(|i| self.backoff_after(i)).sum()
    }

    /// Total backoff burned when a task exhausts the lane: delays occur
    /// between attempts only, so the final failure waits for nothing.
    #[must_use]
    pub fn backoff_before_exhaustion(&self) -> f64 {
        (1..self.max_attempts).map(|i| self.backoff_after(i)).sum()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Which worker profile a pass runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The batch's normal worker pool.
    Standard,
    /// The wider-memory rerun pool (§3.3's dedicated high-memory nodes).
    HighMemory,
}

/// How a faulty task fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFaultKind {
    /// Fails its first `failures` executions (counted across lanes),
    /// then succeeds.
    Transient {
        /// Executions that fail before the first success.
        failures: u32,
    },
    /// Fails every execution on [`Lane::Standard`]; succeeds first try
    /// on [`Lane::HighMemory`].
    Oom,
}

/// A task-level fault injection, keyed by task id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFault {
    /// Id of the afflicted task (matches `TaskSpec::id`).
    pub task: String,
    /// Failure shape.
    pub kind: TaskFaultKind,
}

impl TaskFault {
    /// A transient fault: the task fails `failures` times, then succeeds.
    #[must_use]
    pub fn transient(task: impl Into<String>, failures: u32) -> Self {
        Self {
            task: task.into(),
            kind: TaskFaultKind::Transient { failures },
        }
    }

    /// An OOM-shaped fault: fails on standard workers, succeeds on the
    /// high-memory lane.
    #[must_use]
    pub fn oom(task: impl Into<String>) -> Self {
        Self {
            task: task.into(),
            kind: TaskFaultKind::Oom,
        }
    }
}

/// Outcome of running one task through one lane, from [`FaultPlan::pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The task succeeds in this lane after `failures` failed attempts
    /// (`failures < max_attempts`).
    Succeeds {
        /// Failed attempts burned in this lane before the success.
        failures: u32,
    },
    /// The task burns all `max_attempts` executions in this lane and
    /// must move to the next lane (or the batch is invalid).
    Exhausts,
}

/// The deterministic fault model for one batch: task faults indexed by
/// id plus the retry policy. Both executors consult it so sim and thread
/// backends agree on attempt counts exactly.
#[derive(Debug)]
pub struct FaultPlan<'a> {
    faults: BTreeMap<&'a str, TaskFaultKind>,
    policy: RetryPolicy,
}

impl<'a> FaultPlan<'a> {
    /// Index the fault list (later entries for the same task win).
    #[must_use]
    pub fn new(faults: &'a [TaskFault], policy: RetryPolicy) -> Self {
        Self {
            faults: faults.iter().map(|f| (f.task.as_str(), f.kind)).collect(),
            policy,
        }
    }

    /// The policy this plan applies.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Whether any task fault is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Run `task` through `lane` having already burned `prior` failed
    /// executions in earlier lanes.
    #[must_use]
    pub fn pass(&self, task: &str, lane: Lane, prior: u32) -> PassOutcome {
        match self.faults.get(task) {
            None => PassOutcome::Succeeds { failures: 0 },
            Some(TaskFaultKind::Transient { failures }) => {
                let remaining = failures.saturating_sub(prior);
                if remaining < self.policy.max_attempts {
                    PassOutcome::Succeeds {
                        failures: remaining,
                    }
                } else {
                    PassOutcome::Exhausts
                }
            }
            Some(TaskFaultKind::Oom) => match lane {
                Lane::Standard => PassOutcome::Exhausts,
                Lane::HighMemory => PassOutcome::Succeeds { failures: 0 },
            },
        }
    }
}

/// Why a resilient batch could not run or resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// A task would fail every allowed attempt in every configured lane.
    TaskExhausted {
        /// The doomed task's id.
        task: String,
        /// Total executions the fault schedule would burn.
        attempts: u32,
        /// Whether a quarantine lane was configured at all.
        quarantine_configured: bool,
    },
    /// A journal entry names a task absent from the batch's specs.
    UnknownJournalTask {
        /// The unrecognized task id.
        task: String,
    },
    /// A journal entry disagrees with the record the batch description
    /// re-derives for that task — the journal came from a different
    /// batch (or a different backend kind).
    JournalDiverged {
        /// The disagreeing task's id.
        task: String,
    },
    /// A journal line could not be parsed.
    Journal {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TaskExhausted {
                task,
                attempts,
                quarantine_configured,
            } => {
                if *quarantine_configured {
                    write!(
                        f,
                        "task '{task}' exhausts all {attempts} attempts including the quarantine lane"
                    )
                } else {
                    write!(
                        f,
                        "task '{task}' exhausts all {attempts} attempts and no quarantine lane is configured"
                    )
                }
            }
            Self::UnknownJournalTask { task } => {
                write!(f, "journal names task '{task}' not present in the batch")
            }
            Self::JournalDiverged { task } => write!(
                f,
                "journal entry for task '{task}' disagrees with the batch description"
            ),
            Self::Journal { line, message } => {
                write!(f, "journal line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// Whether a journal entry matches a re-derived record exactly (task,
/// worker, times, attempts). Times compare bit-for-bit: deterministic
/// re-simulation reproduces them; wall-clock resumes replay the entry
/// verbatim instead of re-deriving it.
#[must_use]
pub fn entry_matches_record(entry: &JournalEntry, record: &TaskRecord) -> bool {
    entry.task == record.task_id
        && entry.worker == record.worker_id
        && entry.start == record.start
        && entry.end == record.end
        && entry.attempts == record.attempts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(5, 2.0, 7.0);
        assert_eq!(p.backoff_after(0), 0.0);
        assert_eq!(p.backoff_after(1), 2.0);
        assert_eq!(p.backoff_after(2), 4.0);
        assert_eq!(p.backoff_after(3), 7.0, "capped");
        assert_eq!(p.backoff_before_success(2), 6.0);
        // Exhaustion: delays between the 5 attempts only.
        assert_eq!(p.backoff_before_exhaustion(), 2.0 + 4.0 + 7.0 + 7.0);
    }

    #[test]
    fn none_policy_is_single_attempt_no_backoff() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_after(1), 0.0);
        assert_eq!(p.backoff_before_exhaustion(), 0.0);
    }

    #[test]
    fn transient_fault_succeeds_within_budget() {
        let faults = [TaskFault::transient("a", 2)];
        let fp = FaultPlan::new(&faults, RetryPolicy::new(3, 0.0, 0.0));
        assert_eq!(
            fp.pass("a", Lane::Standard, 0),
            PassOutcome::Succeeds { failures: 2 }
        );
        assert_eq!(
            fp.pass("unrelated", Lane::Standard, 0),
            PassOutcome::Succeeds { failures: 0 }
        );
    }

    #[test]
    fn transient_fault_beyond_budget_exhausts_then_recovers_in_quarantine() {
        // 4 failures, 3 attempts per lane: burns 3 on standard, then the
        // remaining single failure fits the quarantine lane's budget.
        let faults = [TaskFault::transient("a", 4)];
        let fp = FaultPlan::new(&faults, RetryPolicy::new(3, 0.0, 0.0));
        assert_eq!(fp.pass("a", Lane::Standard, 0), PassOutcome::Exhausts);
        assert_eq!(
            fp.pass("a", Lane::HighMemory, 3),
            PassOutcome::Succeeds { failures: 1 }
        );
    }

    #[test]
    fn oom_fails_standard_succeeds_highmem() {
        let faults = [TaskFault::oom("big")];
        let fp = FaultPlan::new(&faults, RetryPolicy::new(2, 0.0, 0.0));
        assert_eq!(fp.pass("big", Lane::Standard, 0), PassOutcome::Exhausts);
        assert_eq!(
            fp.pass("big", Lane::HighMemory, 2),
            PassOutcome::Succeeds { failures: 0 }
        );
    }

    #[test]
    fn errors_render_usefully() {
        let msgs = [
            ResilienceError::TaskExhausted {
                task: "t".into(),
                attempts: 6,
                quarantine_configured: true,
            }
            .to_string(),
            ResilienceError::TaskExhausted {
                task: "t".into(),
                attempts: 3,
                quarantine_configured: false,
            }
            .to_string(),
            ResilienceError::UnknownJournalTask { task: "x".into() }.to_string(),
            ResilienceError::JournalDiverged { task: "x".into() }.to_string(),
            ResilienceError::Journal {
                line: 3,
                message: "bad".into(),
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("quarantine lane"));
        assert!(msgs[1].contains("no quarantine lane"));
        assert!(msgs[4].contains("line 3"));
        for m in &msgs {
            assert!(!m.is_empty());
        }
    }
}
