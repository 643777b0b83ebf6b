//! Failure shapes: workers that die mid-batch, tasks that run out of
//! memory on the standard lane, and the typed errors of the resilience
//! layer.
//!
//! §3.3 notes that over-large proteins "will have failed to process" and
//! were re-run on high-memory nodes — failed work re-enters the queue
//! rather than killing the batch. Dask behaves the same way when a worker
//! is lost. Both executors model the two shapes:
//!
//! * **worker deaths** — attach a [`WorkerFault`] schedule with
//!   [`crate::exec::Batch::faults`] and a worker that dies between
//!   pulling and completing a task returns it to the queue
//!   (exactly-once *completion*, at-least-once execution), and the batch
//!   drains on the survivors — [`crate::real::ThreadExecutor`] on the
//!   wall clock, [`crate::sim::VirtualExecutor`] in virtual time,
//!   agreeing on deaths, requeues, and per-worker task counts
//!   (`tests/chaos.rs` pins the cross-executor agreement). A fault naming
//!   a worker outside `0..workers` is rejected at plan time with
//!   [`crate::exec::BatchError::FaultWorkerOutOfRange`];
//! * **out-of-memory tasks** — the ids given to [`crate::exec::Batch::oom`]
//!   run once on their [`Lane::Standard`] worker, burn that attempt, and
//!   complete on the [`Lane::HighMemory`] rerun lane
//!   ([`crate::exec::Batch::quarantine`]). That is the only way a task
//!   fails, so its attempt count follows from the lane it completes in
//!   ([`Lane::attempts`]). A batch with an OOM task and no rerun lane is
//!   rejected up front with [`ResilienceError::TaskExhausted`], so
//!   executors may assume every scheduled task eventually succeeds.

use crate::journal::JournalEntry;
use crate::task::TaskRecord;

/// A worker-death schedule: worker `w` dies after completing
/// `tasks_before_death` tasks (the next task it pulls is abandoned and
/// re-queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Worker id in `0..workers`.
    pub worker: usize,
    /// Tasks the worker completes before dying.
    pub tasks_before_death: usize,
}

/// Which worker profile a pass runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The batch's normal worker pool.
    Standard,
    /// The wider-memory rerun pool (§3.3's dedicated high-memory nodes).
    HighMemory,
}

impl Lane {
    /// Executions a task has made when it completes in this lane: 1 on
    /// the standard lane, 2 on the high-memory lane (the burned
    /// standard-lane attempt plus the rerun).
    #[must_use]
    pub fn attempts(self) -> u32 {
        match self {
            Self::Standard => 1,
            Self::HighMemory => 2,
        }
    }
}

/// Why a resilient batch could not run or resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// A task runs out of memory on the standard lane and no quarantine
    /// lane is configured to rerun it.
    TaskExhausted {
        /// The doomed task's id.
        task: String,
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
            Self::TaskExhausted { task } => write!(
                f,
                "task '{task}' runs out of memory on the standard lane and no quarantine lane is configured"
            ),
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
    use crate::exec::{Batch, BatchError, BatchOutcome};
    use crate::policy::OrderingPolicy;
    use crate::real::ThreadExecutor;
    use crate::task::TaskSpec;

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), (i % 5) as f64))
            .collect()
    }

    fn slow_double(_: &TaskSpec, &x: &usize) -> usize {
        std::thread::sleep(std::time::Duration::from_micros(300));
        x * 2
    }

    fn run(
        n: usize,
        policy: OrderingPolicy,
        workers: usize,
        faults: &[WorkerFault],
    ) -> BatchOutcome<usize> {
        let items: Vec<usize> = (0..n).collect();
        Batch::new(&specs(n))
            .workers(workers)
            .policy(policy)
            .faults(faults)
            .run_with(&ThreadExecutor, &items, slow_double)
            .unwrap()
    }

    #[test]
    fn no_faults_behaves_like_plain_map() {
        let n = 120;
        let r = run(n, OrderingPolicy::LongestFirst, 4, &[]);
        assert_eq!(r.outputs, (0..n).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(r.requeued, 0);
        assert_eq!(r.records.len(), n);
    }

    #[test]
    fn batch_completes_despite_worker_deaths() {
        let n = 150;
        let faults = [
            WorkerFault {
                worker: 0,
                tasks_before_death: 3,
            },
            WorkerFault {
                worker: 1,
                tasks_before_death: 10,
            },
        ];
        let r = run(n, OrderingPolicy::Fifo, 4, &faults);
        assert_eq!(r.outputs, (0..n).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(r.deaths, 2);
        assert_eq!(r.requeued, 2, "each dying worker abandons exactly one task");
        // Every task completed exactly once.
        assert_eq!(r.records.len(), n);
        // Dead workers completed exactly their budget.
        assert_eq!(r.records.iter().filter(|rec| rec.worker_id == 0).count(), 3);
        assert_eq!(
            r.records.iter().filter(|rec| rec.worker_id == 1).count(),
            10
        );
    }

    #[test]
    fn immediate_death_still_drains() {
        let n = 40;
        let faults = [WorkerFault {
            worker: 0,
            tasks_before_death: 0,
        }];
        let r = run(n, OrderingPolicy::Random { seed: 4 }, 2, &faults);
        assert_eq!(r.outputs.len(), n);
        assert!(
            r.records.iter().all(|rec| rec.worker_id == 1),
            "survivor did everything"
        );
    }

    #[test]
    fn all_workers_dying_is_a_typed_error() {
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
        let items: Vec<usize> = (0..10).collect();
        let err = Batch::new(&specs(10))
            .workers(2)
            .faults(&faults)
            .run_with(&ThreadExecutor, &items, |_, &x| x)
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::AllWorkersDie {
                workers: 2,
                dying: 2
            }
        );
    }

    #[test]
    fn worker_deaths_compose_with_task_retries() {
        // A dying worker and an out-of-memory task in the same batch: the
        // batch still drains and the rerun's attempt count survives.
        let n = 60;
        let faults = [WorkerFault {
            worker: 0,
            tasks_before_death: 2,
        }];
        let oom = ["t7".to_owned()];
        let items: Vec<usize> = (0..n).collect();
        let r = Batch::new(&specs(n))
            .workers(3)
            .faults(&faults)
            .oom(&oom)
            .quarantine(1)
            .run_with(&ThreadExecutor, &items, slow_double)
            .unwrap();
        assert_eq!(r.outputs, (0..n).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(r.deaths, 1);
        let t7 = r.records.iter().find(|rec| rec.task_id == "t7").unwrap();
        assert_eq!(t7.attempts, 2);
        assert_eq!(t7.worker_id, 3, "rerun on the high-memory lane");
    }

    #[test]
    fn errors_render_usefully() {
        let msgs = [
            ResilienceError::TaskExhausted { task: "t".into() }.to_string(),
            ResilienceError::UnknownJournalTask { task: "x".into() }.to_string(),
            ResilienceError::JournalDiverged { task: "x".into() }.to_string(),
            ResilienceError::Journal {
                line: 3,
                message: "bad".into(),
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("no quarantine lane"));
        assert!(msgs[3].contains("line 3"));
        for m in &msgs {
            assert!(!m.is_empty());
        }
    }
}
