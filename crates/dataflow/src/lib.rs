#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # summitfold-dataflow
//!
//! A from-scratch dataflow execution engine modelled on how the paper uses
//! Dask (§3.3): a scheduler holds a queue of independent tasks; workers
//! (one per GPU) register with the scheduler and pull the next task the
//! moment they finish the previous one; a client submits the whole batch
//! with one `map` call and appends per-task statistics (start/end time,
//! worker id) to a CSV file.
//!
//! Every batch is described once with the [`exec::Batch`] builder and
//! run on an [`exec::Executor`] backend:
//!
//! * [`real::ThreadExecutor`] — actual worker threads (a mutex-guarded
//!   deque as the task queue) running arbitrary Rust closures; used to
//!   run the workspace's genuine compute (alignment, folding,
//!   minimization) in parallel, optionally under a worker-death schedule
//!   ([`fault::WorkerFault`]);
//! * [`sim::VirtualExecutor`] — virtual-time list scheduling for
//!   Summit-scale runs (6000 workers × hours), producing the same
//!   per-task records without running anything.
//!
//! Because independent-task dataflow with greedy workers *is* list
//! scheduling, the policy measured on 48 real threads is exactly the
//! policy simulated at 6000 virtual workers — the property the Fig 2 and
//! ablation A1 experiments rely on. It holds by construction: a backend
//! is one lane runner plus one live drain, and everything around them
//! (prologue, standard → high-memory lane sequencing, the ledger that
//! turns completions into records, outcome and telemetry) exists once,
//! in [`exec`]. Both backends return the same
//! [`exec::BatchOutcome`] and emit the same span/task telemetry into an
//! [`summitfold_obs::Recorder`], so `stats::to_csv` and
//! `stats::ascii_gantt` artifacts regenerate byte-identically from a
//! JSONL trace.
//!
//! On top of the scheduling core sits the resilience layer (§3.3's
//! failure handling), in [`fault`]: a worker-death schedule
//! ([`fault::WorkerFault`]), out-of-memory tasks that burn one attempt
//! on the standard lane and complete on a *quarantine lane* of
//! wider-memory workers, and a [`journal::Journal`] checkpoint
//! (append-only JSONL) that lets `exec::Batch::resume` restart a killed
//! batch executing only unfinished tasks. Both backends run the same
//! lane sequence, so attempt counts agree executor-to-executor. The
//! [`chaos`] module extends the schedule below the executors: a
//! [`chaos::FaultPlan`] of deterministic *I/O* faults (torn writes,
//! bit flips, failed puts, kills at named code points) that the store
//! and the folding service observe through a shared [`chaos::IoFaults`]
//! handle, making crash/corruption recovery a seeded, replayable test.
//! Both persist through [`log`]: one append-only JSONL primitive (one
//! torn-tail rule, seals as data, one fault-gated append).
//!
//! The live layer (see [`source`]) is the multi-tenant pivot: a
//! [`source::SubmissionQueue`] accepts campaigns from concurrent
//! submitters with weighted fair-share + priority scheduling across
//! classes, and both executors drain it through
//! [`exec::Executor::run_live`] — workers *pull* dispatches one at a
//! time instead of walking a plan frozen at `run()` time.

pub mod chaos;
pub mod exec;
pub mod fault;
pub mod journal;
pub mod log;
pub mod policy;
pub mod real;
pub mod sim;
pub mod source;
pub mod stats;
mod sync;
pub mod task;

pub use chaos::{IoFault, IoFaultKind, IoFaults, WriteOutcome};
pub use exec::{Batch, BatchError, BatchOutcome, Executor};
pub use fault::ResilienceError;
pub use journal::{Journal, JournalEntry};
pub use policy::OrderingPolicy;
pub use source::{
    ClassConfig, DispatchEntry, LiveRun, Pull, SubmissionQueue, SubmitError, TaskSource,
};
pub use task::{TaskRecord, TaskSpec};
