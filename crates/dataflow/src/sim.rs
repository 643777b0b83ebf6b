//! Virtual-time executor: list scheduling at Summit scale.
//!
//! With independent tasks and greedy workers, dataflow execution is
//! exactly list scheduling: walk the ordered queue, always assigning the
//! next task to the earliest-free worker. The simulator replays that with
//! virtual durations (from the workspace's calibrated cost models), which
//! is how the Fig 2 worker timelines, the Table 1 walltimes and the A1
//! ordering ablation are produced at 1200–6000 workers without a
//! supercomputer.
//!
//! [`VirtualExecutor`] is the [`crate::exec::Executor`] backend. It
//! supplies exactly two things — `schedule_pass`, one lane of list
//! scheduling, and the live drain in `run_live` — inside the frame in
//! [`crate::exec`] that [`crate::real::ThreadExecutor`] shares, so lane
//! sequencing, records, journal lines, outcome and telemetry cannot
//! differ between the two. What legitimately differs lives here:
//!
//! * **an earliest-free-worker heap, not threads** — every task
//!   occupies its worker for one modeled duration, an out-of-memory
//!   task's burned standard-lane attempt included; a worker at its death
//!   budget retires the moment it would pull another task, re-queueing
//!   it, with the thread backend's `deaths`/`requeued` accounting;
//! * **resume is re-derivation** — the schedule is a pure function of
//!   the batch description, so a resumed simulation recomputes every
//!   record bit-for-bit and `Batch::resume` cross-checks them against
//!   the journal.

use crate::exec::{
    finish_live, run_frozen, BatchOutcome, Executor, Ledger, LiveDrain, LivePlan, PassParams,
    PassResult, Plan, Ran,
};
use crate::source::{OrderCursor, Pull, SubmissionQueue};
use crate::task::{TaskRecord, TaskSpec};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Earliest-free-worker min-heap slot: (free_time, worker_id). Times are
/// always finite, so `total_cmp` is a total order consistent with the
/// scheduling semantics.
#[derive(PartialEq)]
struct Slot(f64, usize);
impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Greedy list scheduling of `p.order` onto the lane's workers, all free
/// at `p.start_at`, with `overhead` seconds of dispatch gap before each
/// task. A task that runs out of memory in the lane burns one duration
/// on its worker and moves to the next lane. Preconditions
/// (workers > 0, durations correspond to specs, at least one worker
/// survives the budgets) are guaranteed by [`crate::exec::Batch`]
/// validation.
fn schedule_pass<O>(p: &PassParams<'_>, overhead: f64, ledger: &mut Ledger<'_, O>) -> PassResult {
    let mut heap: BinaryHeap<Reverse<Slot>> = (0..p.workers)
        .map(|w| Reverse(Slot(p.start_at, p.id_offset + w)))
        .collect();
    // Successful completions per worker, checked against death budgets.
    let mut successes: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = PassResult {
        registered: (p.id_offset..p.id_offset + p.workers).collect(),
        makespan: p.start_at,
        requeued: 0,
    };
    // A worker at its death budget retires the moment it would pull
    // another task, re-queueing it (the thread workers' push-back).
    let dead = |successes: &BTreeMap<usize, usize>, w: usize| -> bool {
        p.budgets
            .get(&w)
            .is_some_and(|&b| successes.get(&w).copied().unwrap_or(0) >= b)
    };

    // The frozen path pulls from a cursor over the pre-ordered list —
    // the same worker-pulls-next-dispatch shape as the live queue in
    // `run_live`.
    let mut cursor = OrderCursor::new(p.order);
    while let Some((_pos, idx)) = cursor.pull() {
        // Earliest live worker; dead ones retire (re-queueing the task).
        let (free_at, w) = loop {
            let Some(Reverse(Slot(free_at, w))) = heap.pop() else {
                // Unreachable: validation keeps at least one survivor.
                return out;
            };
            if dead(&successes, w) {
                out.requeued += 1;
                continue;
            }
            break (free_at, w);
        };
        let d = p.durations[idx];
        let start = free_at + overhead;
        let end = start + d;
        let ran = Ran {
            busy: d,
            ..Ran::new(w, start, end)
        };
        if p.ooms(idx) {
            ledger.burn(idx, ran);
        } else {
            ledger.complete(idx, ran, p.lane.attempts(), None);
            *successes.entry(w).or_insert(0) += 1;
        }
        out.makespan = out.makespan.max(end);
        heap.push(Reverse(Slot(end, w)));
    }
    out
}

/// The virtual-time [`Executor`] backend.
///
/// Task durations come from the plan's explicit `durations` (or from
/// `cost_hint` when none are given); the closure still runs once per
/// task — sequentially, in submission order — so simulated batches
/// produce real outputs. Worker deaths are modeled in virtual time with
/// the same accounting as the thread backend.
#[derive(Debug, Clone, Copy)]
pub struct VirtualExecutor {
    per_task_overhead: f64,
}

impl VirtualExecutor {
    /// A simulator with the given scheduler dispatch gap between
    /// consecutive tasks on a worker (the white lines in Fig 2).
    /// Negative overheads are clamped to zero.
    #[must_use]
    pub fn new(per_task_overhead: f64) -> Self {
        Self {
            per_task_overhead: per_task_overhead.max(0.0),
        }
    }
}

impl Executor for VirtualExecutor {
    fn execute<I, O, F>(&self, plan: &Plan<'_>, items: &[I], f: &F) -> BatchOutcome<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&TaskSpec, &I) -> O + Sync,
    {
        run_frozen(plan, items, f, |p, ledger| {
            schedule_pass(p, self.per_task_overhead, ledger)
        })
    }

    fn run_live(&self, plan: &LivePlan<'_>, queue: &SubmissionQueue) -> BatchOutcome<()> {
        finish_live(plan, || {
            let mut heap: BinaryHeap<Reverse<Slot>> =
                (0..plan.workers).map(|w| Reverse(Slot(0.0, w))).collect();
            let mut drain = LiveDrain {
                records: Vec::new(),
                registered: (0..plan.workers).collect(),
                waits: 0,
            };
            // Earliest-free worker pulls the queue's next dispatch at its
            // free time; `Wait` re-heaps the worker at the next arrival
            // (strictly later, so the loop always progresses), `Pending` /
            // `Drained` retires it.
            while let Some(Reverse(Slot(free_at, w))) = heap.pop() {
                match queue.pull(free_at) {
                    Pull::Task(spec) => {
                        let start = free_at + self.per_task_overhead;
                        let end = start + spec.cost_hint.max(0.0);
                        drain.records.push(TaskRecord::new(spec.id, w, start, end));
                        heap.push(Reverse(Slot(end, w)));
                    }
                    Pull::Wait(t) => {
                        drain.waits += 1;
                        heap.push(Reverse(Slot(t.max(free_at), w)));
                    }
                    Pull::Pending | Pull::Drained => {}
                }
            }
            drain
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Batch;
    use summitfold_protein::rng::Xoshiro256;

    fn heterogeneous_batch(n: usize, seed: u64) -> (Vec<TaskSpec>, Vec<f64>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let durations: Vec<f64> = (0..n).map(|_| rng.gamma(1.5, 60.0) + 5.0).collect();
        let specs = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| TaskSpec::new(format!("t{i}"), d))
            .collect();
        (specs, durations)
    }

    fn run(
        specs: &[TaskSpec],
        durations: &[f64],
        workers: usize,
        policy: crate::policy::OrderingPolicy,
        overhead: f64,
    ) -> BatchOutcome<()> {
        Batch::new(specs)
            .workers(workers)
            .policy(policy)
            .durations(durations)
            .run(&VirtualExecutor::new(overhead))
            .unwrap()
    }

    use crate::policy::OrderingPolicy;

    #[test]
    fn makespan_lower_bounds_hold() {
        let (specs, durations) = heterogeneous_batch(500, 1);
        let workers = 32;
        let r = run(
            &specs,
            &durations,
            workers,
            OrderingPolicy::LongestFirst,
            0.0,
        );
        let total: f64 = durations.iter().sum();
        let max_task = durations.iter().copied().fold(0.0, f64::max);
        assert!(r.makespan >= total / workers as f64 - 1e-9);
        assert!(r.makespan >= max_task - 1e-9);
        // Graham's LPT bound is 4/3 − 1/(3m) against the optimum, not
        // against this trivial lower bound (4 unit tasks on 3 workers
        // give 1.5); on this batch the makespan lands within 4/3 of it.
        let lb = (total / workers as f64).max(max_task);
        assert!(r.makespan <= lb * (4.0 / 3.0) + 1e-9, "LPT bound violated");
    }

    #[test]
    fn longest_first_beats_random_on_average() {
        let workers = 48;
        let mut wins = 0;
        for seed in 0..10 {
            let (specs, durations) = heterogeneous_batch(600, seed);
            let lpt = run(
                &specs,
                &durations,
                workers,
                OrderingPolicy::LongestFirst,
                0.0,
            );
            let rnd = run(
                &specs,
                &durations,
                workers,
                OrderingPolicy::Random { seed: seed + 100 },
                0.0,
            );
            if lpt.makespan <= rnd.makespan + 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= 8, "LPT won only {wins}/10");
    }

    #[test]
    fn longest_first_has_small_idle_tail() {
        let (specs, durations) = heterogeneous_batch(2000, 7);
        let r = run(&specs, &durations, 100, OrderingPolicy::LongestFirst, 0.0);
        // Workers finish within one small-task length of one another.
        assert!(
            r.idle_tail() < r.makespan * 0.05,
            "idle tail {} of makespan {}",
            r.idle_tail(),
            r.makespan
        );
        assert!(r.utilization() > 0.9, "utilization {}", r.utilization());
    }

    #[test]
    fn conservation_of_work() {
        let (specs, durations) = heterogeneous_batch(300, 9);
        let r = run(&specs, &durations, 16, OrderingPolicy::Fifo, 0.0);
        let busy: f64 = r.worker_busy.iter().sum();
        let total: f64 = durations.iter().sum();
        assert!((busy - total).abs() < 1e-6);
        assert_eq!(r.records.len(), 300);
    }

    #[test]
    fn overhead_appears_between_tasks() {
        let specs = vec![TaskSpec::new("a", 1.0), TaskSpec::new("b", 1.0)];
        let durations = vec![10.0, 10.0];
        let r = run(&specs, &durations, 1, OrderingPolicy::Fifo, 2.0);
        // worker: [2,12] then [14,24].
        assert!((r.makespan - 24.0).abs() < 1e-9);
        let tl = r.worker_timeline(0);
        assert!((tl[1].start - tl[0].end - 2.0).abs() < 1e-9);
    }

    #[test]
    fn worker_timeline_sorted_and_non_overlapping() {
        let (specs, durations) = heterogeneous_batch(400, 11);
        let r = run(&specs, &durations, 10, OrderingPolicy::LongestFirst, 1.0);
        for w in 0..10 {
            let tl = r.worker_timeline(w);
            for pair in tl.windows(2) {
                assert!(pair[1].start >= pair[0].end - 1e-9, "overlap on worker {w}");
            }
        }
    }

    #[test]
    fn more_workers_never_slower() {
        let (specs, durations) = heterogeneous_batch(800, 13);
        let mut prev = f64::INFINITY;
        for workers in [8, 32, 128, 512] {
            let r = run(
                &specs,
                &durations,
                workers,
                OrderingPolicy::LongestFirst,
                0.0,
            );
            assert!(r.makespan <= prev + 1e-9, "{workers} workers slower");
            prev = r.makespan;
        }
    }

    #[test]
    fn deterministic() {
        let (specs, durations) = heterogeneous_batch(200, 17);
        let a = run(
            &specs,
            &durations,
            24,
            OrderingPolicy::Random { seed: 5 },
            0.5,
        );
        let b = run(
            &specs,
            &durations,
            24,
            OrderingPolicy::Random { seed: 5 },
            0.5,
        );
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn durations_default_to_cost_hints() {
        let specs = vec![TaskSpec::new("a", 3.0), TaskSpec::new("b", 5.0)];
        let r = Batch::new(&specs)
            .workers(1)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert!((r.makespan - 8.0).abs() < 1e-9);
    }

    #[test]
    fn closure_runs_once_per_task_in_submission_order() {
        let specs = vec![TaskSpec::new("a", 2.0), TaskSpec::new("b", 1.0)];
        let items = vec![10u32, 20u32];
        let r = Batch::new(&specs)
            .workers(2)
            .policy(OrderingPolicy::LongestFirst)
            .run_with(&VirtualExecutor::new(0.0), &items, |_, &x| x * 2)
            .unwrap();
        assert_eq!(r.outputs, vec![20, 40]);
    }

    #[test]
    fn oom_tasks_complete_in_the_quarantine_lane() {
        let specs = vec![
            TaskSpec::new("small", 1.0),
            TaskSpec::new("big", 2.0),
            TaskSpec::new("tiny", 0.5),
        ];
        let durations = vec![10.0, 40.0, 5.0];
        let oom = ["big".to_owned()];
        let r = Batch::new(&specs)
            .workers(2)
            .policy(OrderingPolicy::Fifo)
            .durations(&durations)
            .oom(&oom)
            .quarantine(1)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert_eq!(r.records.len(), 3, "every task completes somewhere");
        assert_eq!(r.quarantined, 1);
        let big = r.records.iter().find(|x| x.task_id == "big").unwrap();
        // Burned one standard attempt (worker 1, 0..40); pass 1 drains at
        // t=40; quarantine worker id 2 reruns it 40..80.
        assert_eq!(big.worker_id, 2, "quarantine lane ids follow standard ids");
        assert_eq!(big.attempts, 2);
        assert!((big.start - 40.0).abs() < 1e-9, "{big:?}");
        assert!((r.makespan - 80.0).abs() < 1e-9);
        assert!((r.quarantine_makespan - 40.0).abs() < 1e-9);
        assert_eq!(r.worker_busy.len(), 3, "quarantine worker appears");
    }

    #[test]
    fn worker_deaths_modeled_in_virtual_time() {
        use crate::fault::WorkerFault;
        let specs: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::new(format!("t{i}"), 1.0))
            .collect();
        let durations = vec![10.0; 6];
        let faults = [WorkerFault {
            worker: 1,
            tasks_before_death: 1,
        }];
        let r = Batch::new(&specs)
            .workers(2)
            .policy(OrderingPolicy::Fifo)
            .durations(&durations)
            .faults(&faults)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert_eq!(r.records.len(), 6, "survivors drain the queue");
        assert_eq!(r.deaths, 1);
        assert_eq!(r.requeued, 1, "the dying worker re-queues one task");
        let on_dead = r.records.iter().filter(|x| x.worker_id == 1).count();
        assert_eq!(on_dead, 1, "the dead worker completes exactly its budget");
        // Survivor takes the rest: t0,t2,t3,t4,t5 at 10 s each.
        assert!((r.makespan - 50.0).abs() < 1e-9, "{}", r.makespan);
    }

    #[test]
    fn fault_free_batches_have_no_quarantine_footprint() {
        let (specs, durations) = heterogeneous_batch(50, 23);
        let r = Batch::new(&specs)
            .workers(4)
            .durations(&durations)
            .quarantine(8)
            .run(&VirtualExecutor::new(0.0))
            .unwrap();
        assert_eq!(r.quarantined, 0);
        assert_eq!(r.quarantine_makespan, 0.0);
        assert_eq!(r.worker_busy.len(), 4, "unused lane is trimmed");
    }
}
