//! Thread-backed executor: real workers running real Rust closures.
//!
//! Mirrors the paper's Summit deployment in miniature:
//!
//! 1. the scheduler starts and exposes a task queue (a mutex-guarded
//!    deque drained by free workers);
//! 2. workers start and *register* with the scheduler before accepting
//!    work (the paper's workers register via a JSON file written by the
//!    Dask scheduler);
//! 3. the client submits the full batch in one call; each worker pulls
//!    the next task the instant it finishes the previous one (dataflow
//!    execution — no static partitioning);
//! 4. per-task start/end statistics are collected for the CSV report and
//!    the telemetry trace.
//!
//! [`ThreadExecutor`] is the [`crate::exec::Executor`] backend. It
//! supplies exactly two things — `run_lane`, one lane of worker threads,
//! and the live drain in `run_live` — and everything around them (the
//! prologue, standard → high-memory lane sequencing, the ledger that
//! turns completions into records and journal lines, the outcome and its
//! telemetry) is the shared frame in [`crate::exec`]. What legitimately
//! differs from [`crate::sim`] lives here:
//!
//! * **racing threads, not a heap** — workers pull from a mutex-guarded
//!   deque; a dying worker (see [`crate::fault`]) re-queues its pull and
//!   exits, and the survivors drain the queue;
//! * **really executed faults** — per the task-level model in
//!   [`crate::retry`], failed attempts re-execute the closure, backoff
//!   delays sleep, and retry-exhausted tasks burn their whole budget on
//!   the worker before the frame hands them to the high-memory lane;
//! * **resume replays the journal verbatim** — wall-clock times cannot
//!   be re-derived, so journaled records go back into the ledger as
//!   written (outputs recomputed inline) and only the remainder runs
//!   (the simulator re-derives the whole schedule instead).

use crate::exec::{
    finish_live, run_frozen, BatchOutcome, Executor, Ledger, LiveDrain, LivePlan, PassParams,
    PassResult, Plan, Ran,
};
use crate::retry::{Lane, PassOutcome};
use crate::source::{Pull, SubmissionQueue};
use crate::sync::lock;
use crate::task::{TaskRecord, TaskSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn sleep_secs(s: f64) {
    if s > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(s));
    }
}

/// One lane on OS threads: `p.workers` workers drain `p.order` through a
/// shared deque, wall-clocked from `epoch`. Failed attempts really
/// re-execute `f` (results discarded) and backoff delays really sleep on
/// the worker; completions and burns go to the shared ledger behind the
/// lane's one mutex.
fn run_lane<I, O, F>(
    p: &PassParams<'_>,
    ledger: &mut Ledger<'_, O>,
    epoch: Instant,
    items: &[I],
    f: &F,
) -> PassResult
where
    I: Sync,
    O: Send,
    F: Fn(&TaskSpec, &I) -> O + Sync,
{
    let now = || epoch.elapsed().as_secs_f64();
    let retry = p.fault_plan.policy();
    // The scheduler queue: pending task indices in lane order, minus what
    // a resume already replayed into the ledger. The whole lane is
    // enqueued before any worker starts; workers drain the deque until
    // the remaining counter proves every task resolved.
    let queue = &Mutex::new(
        p.order
            .iter()
            .copied()
            .filter(|&idx| !ledger.holds(idx))
            .collect::<VecDeque<usize>>(),
    );
    let remaining = AtomicUsize::new(lock(queue).len());
    // Only a dying worker puts a pull back, so without deaths an empty
    // queue is final.
    let refills = !p.budgets.is_empty();
    // Registration list: workers announce themselves before accepting
    // work.
    let registered = &Mutex::new(Vec::with_capacity(p.workers));
    let requeued = AtomicUsize::new(0);
    {
        let ledger = Mutex::new(&mut *ledger);
        let work = |worker_id: usize| {
            lock(registered).push(worker_id);
            let budget = p.budgets.get(&worker_id).copied();
            let mut completed = 0usize;
            loop {
                if remaining.load(Ordering::Acquire) == 0 {
                    return; // every task resolved somewhere
                }
                let Some(idx) = lock(queue).pop_front() else {
                    if refills {
                        std::thread::yield_now();
                        continue;
                    }
                    return; // queue drained — lane complete for this worker
                };
                if budget == Some(completed) {
                    // The worker dies holding this pull: re-queue it and
                    // exit (Dask reschedules tasks of lost workers the
                    // same way).
                    lock(queue).push_back(idx);
                    requeued.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let run = || f(&p.specs[idx], &items[idx]);
                let start = now();
                match p
                    .fault_plan
                    .pass(&p.specs[idx].id, p.lane, p.prior_failures)
                {
                    PassOutcome::Succeeds { failures } => {
                        for i in 1..=failures {
                            let _ = run();
                            sleep_secs(retry.backoff_after(i));
                        }
                        let out = run();
                        let ran = Ran::new(worker_id, start, now());
                        let attempts = p.prior_failures + failures + 1;
                        lock(&ledger).complete(idx, ran, attempts, Some(out));
                        completed += 1;
                    }
                    PassOutcome::Exhausts => {
                        // Burn the lane's full attempt budget (sleeping
                        // between attempts, not after the last), then
                        // hand the task to the next lane.
                        for i in 1..=retry.max_attempts {
                            let _ = run();
                            if i < retry.max_attempts {
                                sleep_secs(retry.backoff_after(i));
                            }
                        }
                        lock(&ledger).burn(idx, Ran::new(worker_id, start, now()));
                    }
                }
                remaining.fetch_sub(1, Ordering::Release);
            }
        };
        std::thread::scope(|scope| {
            for worker_id in p.id_offset..p.id_offset + p.workers {
                let work = &work;
                scope.spawn(move || work(worker_id));
            }
        });
    }
    // Race-free deterministic rerun order regardless of which worker
    // exhausted which task first.
    ledger.exhausted.sort_unstable();
    let registered = std::mem::take(&mut *lock(registered));
    PassResult {
        registered,
        makespan: now(),
        requeued: requeued.into_inner(),
    }
}

/// The thread-backed [`Executor`] backend.
///
/// Workers are OS threads pulling from a shared queue; task times are
/// wall-clock seconds since batch start. With a fault schedule in the
/// plan, dying workers re-queue their in-flight task and the survivors
/// drain the queue (exactly-once *completion*, at-least-once execution —
/// the Dask lost-worker semantics of §3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadExecutor;

impl Executor for ThreadExecutor {
    fn execute<I, O, F>(&self, plan: &Plan<'_>, items: &[I], f: &F) -> BatchOutcome<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&TaskSpec, &I) -> O + Sync,
    {
        let mut epoch = None;
        run_frozen(plan, items, f, |p, ledger| {
            if p.lane == Lane::Standard {
                // Resume: journaled records replay verbatim (wall-clock
                // times cannot be re-derived) and their outputs are
                // recomputed inline; the lane then skips what the
                // ledger already holds.
                for (idx, spec) in p.specs.iter().enumerate() {
                    if let Some(e) = plan.completed.get(&spec.id) {
                        let out = f(spec, &items[idx]);
                        ledger.complete(
                            idx,
                            Ran::new(e.worker, e.start, e.end),
                            e.attempts,
                            Some(out),
                        );
                    }
                }
            }
            // The batch clock starts when the first lane does.
            run_lane(p, ledger, *epoch.get_or_insert_with(Instant::now), items, f)
        })
    }

    fn run_live(&self, plan: &LivePlan<'_>, queue: &SubmissionQueue) -> BatchOutcome<()> {
        finish_live(plan, || {
            let registered = &Mutex::new(Vec::with_capacity(plan.workers));
            let records: Mutex<Vec<TaskRecord>> = Mutex::new(Vec::new());
            let waits = AtomicUsize::new(0);
            let epoch = Instant::now();
            // Live workers pull dispatches one at a time, wall-clocked:
            // `Wait` sleeps until the next arrival (capped, then
            // re-check), `Pending` yields — the queue is open and a
            // concurrent submitter may still push — and `Drained` retires
            // the worker. Tasks are scheduling-only on the live path
            // (`cost_hint` models the work).
            let work = |worker_id: usize| {
                lock(registered).push(worker_id);
                loop {
                    let now = epoch.elapsed().as_secs_f64();
                    match queue.pull(now) {
                        Pull::Task(d) => {
                            let start = epoch.elapsed().as_secs_f64();
                            let end = epoch.elapsed().as_secs_f64();
                            lock(&records).push(TaskRecord::new(d.spec.id, worker_id, start, end));
                        }
                        Pull::Wait(t) => {
                            waits.fetch_add(1, Ordering::Relaxed);
                            sleep_secs((t - now).clamp(0.0, 0.005));
                        }
                        Pull::Pending => {
                            waits.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        Pull::Drained => return,
                    }
                }
            };
            std::thread::scope(|scope| {
                for worker_id in 0..plan.workers {
                    let work = &work;
                    scope.spawn(move || work(worker_id));
                }
            });
            let records = std::mem::take(&mut *lock(&records));
            let registered = std::mem::take(&mut *lock(registered));
            LiveDrain {
                records,
                registered,
                waits: waits.into_inner(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Batch;
    use crate::journal::Journal;
    use crate::policy::OrderingPolicy;
    use crate::retry::{RetryPolicy, TaskFault};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn specs(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), (i % 7) as f64))
            .collect()
    }

    fn run<I, O, F>(
        workers: usize,
        specs: &[TaskSpec],
        items: &[I],
        policy: OrderingPolicy,
        f: F,
    ) -> BatchOutcome<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&TaskSpec, &I) -> O + Sync,
    {
        Batch::new(specs)
            .workers(workers)
            .policy(policy)
            .run_with(&ThreadExecutor, items, f)
            .unwrap()
    }

    #[test]
    fn outputs_in_submission_order() {
        let n = 100;
        let items: Vec<usize> = (0..n).collect();
        let result = run(
            4,
            &specs(n),
            &items,
            OrderingPolicy::LongestFirst,
            |_, &x| x * 2,
        );
        assert_eq!(result.outputs, (0..n).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let n = 500;
        let items = vec![(); n];
        let result = run(
            8,
            &specs(n),
            &items,
            OrderingPolicy::Random { seed: 3 },
            |_, ()| {
                counter.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(result.records.len(), n);
        let mut ids: Vec<&str> = result.records.iter().map(|r| r.task_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn all_workers_register_and_participate() {
        let n = 120;
        let items = vec![1u64; n];
        let result = run(6, &specs(n), &items, OrderingPolicy::Fifo, |_, &x| {
            // Sleeping (rather than spinning) yields the core, so worker
            // rotation happens even on a single-CPU machine.
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        let mut reg = result.registered_workers.clone();
        reg.sort_unstable();
        assert_eq!(reg, (0..6).collect::<Vec<_>>());
        let mut seen: Vec<usize> = result.records.iter().map(|r| r.worker_id).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 4, "only {} workers participated", seen.len());
    }

    #[test]
    fn records_have_valid_times() {
        let n = 50;
        let items = vec![(); n];
        let result = run(3, &specs(n), &items, OrderingPolicy::Fifo, |_, ()| {
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        for r in &result.records {
            assert!(r.end >= r.start, "{:?}", r);
            assert!(r.end <= result.makespan + 0.05);
        }
        let busy: f64 = result.worker_busy.iter().sum();
        let durations: f64 = result.records.iter().map(TaskRecord::duration).sum();
        assert!((busy - durations).abs() < 1e-9);
    }

    #[test]
    fn parallel_speedup_on_blocking_work() {
        // Sleep-bound tasks overlap even on a single-CPU machine, so this
        // checks genuine concurrency regardless of the core count (a CPU
        // speedup check would be vacuous on 1 core).
        let specs_v = specs(16);
        let items: Vec<u64> = (0..16).collect();
        let work = |_: &TaskSpec, &x: &u64| -> u64 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            x * 3
        };
        let t1 = run(1, &specs_v, &items, OrderingPolicy::Fifo, work);
        let t4 = run(8, &specs_v, &items, OrderingPolicy::Fifo, work);
        assert_eq!(
            t1.outputs, t4.outputs,
            "parallelism must not change results"
        );
        assert!(
            t4.makespan < t1.makespan * 0.6,
            "speedup too small: {} vs {}",
            t4.makespan,
            t1.makespan
        );
    }

    #[test]
    fn single_item_batch() {
        let result = run(
            4,
            &[TaskSpec::new("only", 1.0)],
            &[7],
            OrderingPolicy::LongestFirst,
            |_, &x| x + 1,
        );
        assert_eq!(result.outputs, vec![8]);
    }

    #[test]
    fn transient_failures_reexecute_and_count_attempts() {
        let s = specs(6);
        let items = vec![(); 6];
        let executions = AtomicUsize::new(0);
        let faults = [TaskFault::transient("t2", 2)];
        let result = Batch::new(&s)
            .workers(2)
            .task_faults(&faults)
            .retry(RetryPolicy::new(3, 0.001, 0.002))
            .run_with(&ThreadExecutor, &items, |_, ()| {
                executions.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        // 5 clean tasks + 3 executions of t2 (2 failures + success).
        assert_eq!(executions.load(Ordering::Relaxed), 8);
        let r2 = result.records.iter().find(|r| r.task_id == "t2").unwrap();
        assert_eq!(r2.attempts, 3);
        assert!(result
            .records
            .iter()
            .all(|r| r.task_id != "t2" || r.attempts == 3));
        assert_eq!(result.retries(), 2);
        assert_eq!(result.quarantined, 0);
    }

    #[test]
    fn oom_tasks_finish_in_the_quarantine_scope() {
        let s = specs(5);
        let items = vec![(); 5];
        let faults = [TaskFault::oom("t1"), TaskFault::oom("t3")];
        let result = Batch::new(&s)
            .workers(2)
            .task_faults(&faults)
            .quarantine(1)
            .run_with(&ThreadExecutor, &items, |_, ()| ())
            .unwrap();
        assert_eq!(result.records.len(), 5, "every task completes somewhere");
        assert_eq!(result.quarantined, 2);
        for id in ["t1", "t3"] {
            let r = result.records.iter().find(|r| r.task_id == id).unwrap();
            assert_eq!(r.worker_id, 2, "quarantine worker follows standard ids");
            assert_eq!(r.attempts, 2, "one burned standard attempt + rerun");
        }
        let mut reg = result.registered_workers.clone();
        reg.sort_unstable();
        assert_eq!(reg, vec![0, 1, 2]);
        assert!(result.quarantine_makespan > 0.0);
        assert!(result.quarantine_makespan <= result.makespan);
    }

    #[test]
    fn journal_and_resume_complete_the_remainder() {
        let s = specs(8);
        let items = vec![(); 8];
        let journal = Journal::new();
        let first = Batch::new(&s)
            .workers(3)
            .journal(&journal)
            .run_with(&ThreadExecutor, &items, |_, ()| ())
            .unwrap();
        assert_eq!(journal.len(), 8);
        assert_eq!(first.resumed, 0);

        // Kill after 5 completions, then resume from the partial journal.
        let partial = journal.truncated(5);
        let outcome = Batch::new(&s)
            .workers(3)
            .resume(&ThreadExecutor, &partial)
            .unwrap();
        assert_eq!(outcome.resumed, 5);
        assert_eq!(outcome.records.len(), 8, "replayed + freshly run");
        let done = partial.completed();
        for r in &outcome.records {
            if let Some(entry) = done.get(&r.task_id) {
                assert_eq!(entry.end, r.end, "replayed verbatim");
                assert_eq!(entry.worker, r.worker_id);
            }
        }
    }
}
