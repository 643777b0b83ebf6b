//! Resilience acceptance tests: checkpoint-resume determinism, attempt
//! accounting across executors, and the quarantine rerun lane charged
//! to the ledger and visible in the telemetry trace (paper §3.3: tasks
//! that "will have failed to process" re-run on high-memory nodes).
//! Out-of-memory tasks and worker deaths are the only failures.

use std::sync::Arc;
use summitfold::dataflow::fault::WorkerFault;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::sim::VirtualExecutor;
use summitfold::dataflow::stats::to_csv;
use summitfold::dataflow::{Batch, Journal, OrderingPolicy, TaskSpec};
use summitfold::hpc::Ledger;
use summitfold::inference::Preset;
use summitfold::msa::FeatureSet;
use summitfold::obs::{Recorder, Trace};
use summitfold::pipeline::stages::{inference, Stage as _, StageCtx};
use summitfold::protein::proteome::{Proteome, Species};
use summitfold::protein::rng::Xoshiro256;

fn specs_and_durations(seed: u64, n: usize) -> (Vec<TaskSpec>, Vec<f64>) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut specs = Vec::with_capacity(n);
    let mut durations = Vec::with_capacity(n);
    for i in 0..n {
        let d = 1.0 + 59.0 * rng.uniform();
        specs.push(TaskSpec::new(format!("t{i}"), d));
        durations.push(d);
    }
    (specs, durations)
}

/// Seeded property: run → kill at a random journal boundary (possibly
/// inside the rerun lane) → resume reproduces the uninterrupted record
/// set byte-for-byte on the deterministic simulator, with out-of-memory
/// tasks and a worker death in the batch.
#[test]
fn sim_resume_after_kill_is_byte_identical() {
    let exec = VirtualExecutor::new(0.5);
    for seed in 0..12u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD15EA5E);
        let n = 20 + rng.below(40);
        let (specs, durations) = specs_and_durations(seed, n);
        let oom = [
            specs[rng.below(n)].id.clone(),
            specs[rng.below(n)].id.clone(),
        ];
        let deaths = [WorkerFault {
            worker: 2,
            tasks_before_death: n / 6,
        }];
        let batch = || {
            Batch::new(&specs)
                .workers(3)
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .oom(&oom)
                .faults(&deaths)
                .quarantine(2)
        };

        let journal = Journal::new();
        let full = batch().journal(&journal).run(&exec).expect("full run");
        assert_eq!(journal.len(), n, "every task journaled");
        assert!(full.quarantined >= 1, "seed {seed}");
        assert_eq!(full.deaths, 1, "seed {seed}");

        // Kill at a random completed-task boundary and restart from the
        // surviving journal prefix.
        let cut = journal.truncated(rng.below(n + 1));
        let expected_resumed = cut.len();
        let resumed = batch().resume(&exec, &cut).expect("resume");

        assert_eq!(resumed.resumed, expected_resumed, "seed {seed}");
        assert_eq!(
            to_csv(&resumed.records),
            to_csv(&full.records),
            "seed {seed}: resumed records diverge from the uninterrupted run"
        );
        assert_eq!(resumed.makespan, full.makespan, "seed {seed}");
    }
}

/// The thread backend replays the journal verbatim and completes only
/// the remainder; the union of records covers every task exactly once
/// with the journaled rows intact.
#[test]
fn thread_resume_completes_only_the_remainder() {
    let n = 24;
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(format!("t{i}"), (i % 7) as f64))
        .collect();
    let items: Vec<usize> = (0..n).collect();
    let journal = Journal::new();
    Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::Fifo)
        .journal(&journal)
        .run_with(&ThreadExecutor, &items, |_, &x| x * 2)
        .expect("full run");
    assert_eq!(journal.len(), n);

    let cut = journal.truncated(9);
    let survivors: Vec<_> = cut.entries();
    let resumed = Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::Fifo)
        .resume(&ThreadExecutor, &cut)
        .expect("resume");
    assert_eq!(resumed.resumed, 9);
    assert_eq!(resumed.records.len(), n, "union covers every task once");
    for e in survivors {
        let r = resumed
            .records
            .iter()
            .find(|r| r.task_id == e.task)
            .expect("journaled task present");
        assert_eq!((r.worker_id, r.start, r.end), (e.worker, e.start, e.end));
        assert_eq!(r.attempts, e.attempts, "journaled rows replayed verbatim");
    }
}

/// Attempt counts are a pure function of the fault schedule: the
/// virtual-time simulator and the real thread pool agree per task, with
/// out-of-memory tasks and a worker death in the batch.
#[test]
fn attempt_counts_agree_across_executors() {
    for seed in 0..6u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed.wrapping_mul(0x9E3779B9));
        let n = 16 + rng.below(16);
        let specs: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), (1 + rng.below(5)) as f64))
            .collect();
        let mut oom = Vec::new();
        for i in 0..n {
            if rng.below(5) < 2 {
                oom.push(format!("t{i}"));
            }
        }
        let deaths = [WorkerFault {
            worker: 0,
            tasks_before_death: 2,
        }];
        let batch = || {
            Batch::new(&specs)
                .workers(3)
                .policy(OrderingPolicy::Fifo)
                .oom(&oom)
                .faults(&deaths)
                .quarantine(2)
        };
        let sim = batch().run(&VirtualExecutor::new(0.0)).expect("sim");
        let real = batch().run(&ThreadExecutor).expect("thread");

        assert_eq!(sim.records.len(), n);
        assert_eq!(real.records.len(), n);
        assert_eq!(sim.quarantined, real.quarantined, "seed {seed}");
        assert_eq!(sim.quarantined, oom.len(), "seed {seed}");
        assert_eq!(sim.retries(), real.retries(), "seed {seed}");
        assert_eq!(sim.deaths, real.deaths, "seed {seed}");
        for spec in &specs {
            let a = |o: &summitfold::dataflow::BatchOutcome<()>| {
                o.records
                    .iter()
                    .find(|r| r.task_id == spec.id)
                    .map(|r| r.attempts)
                    .expect("record")
            };
            assert_eq!(a(&sim), a(&real), "seed {seed}, task {}", spec.id);
        }
    }
}

/// An out-of-memory task occupies its standard-lane worker for the one
/// attempt it burns before moving to the rerun lane. Both executors
/// charge that time, so the standard lane shows neither an idle worker
/// nor a phantom idle tail.
#[test]
fn burned_attempts_are_charged_to_the_standard_lane() {
    let sleep_s = 0.02;
    let specs = [TaskSpec::new("big", sleep_s)];
    let oom = ["big".to_owned()];
    let batch = || Batch::new(&specs).workers(1).oom(&oom).quarantine(1);
    let sim = batch().run(&VirtualExecutor::new(0.0)).expect("sim");
    let real = batch()
        .run_with(&ThreadExecutor, &[()], |_, ()| {
            std::thread::sleep(std::time::Duration::from_secs_f64(sleep_s));
        })
        .expect("thread");
    for (label, out) in [("sim", &sim), ("thread", &real)] {
        assert_eq!(out.quarantined, 1, "{label}");
        assert_eq!(out.records[0].attempts, 2, "{label}: 1 burned + the rerun");
        let burned = sleep_s - 1e-9;
        assert!(
            out.worker_busy[0] >= burned,
            "{label}: {:?}",
            out.worker_busy
        );
        assert!(
            out.worker_finish[0] >= burned,
            "{label}: {:?}",
            out.worker_finish
        );
        // The lane drains when the burn ends (thread-join latency aside).
        assert!(
            out.standard_idle_tail() < sleep_s,
            "{label}: idle tail {}",
            out.standard_idle_tail()
        );
    }
}

/// An OOM-shaped batch completes through the quarantine lane, the
/// high-memory rerun is charged to the ledger as its own stage, and the
/// whole story is visible in a `lens --trace`-parseable JSONL trace.
#[test]
fn quarantine_rerun_is_charged_and_traced() {
    // 0.25 of D. vulgaris includes the >700-residue tail that OOMs under
    // the CASP14 preset (deterministic generation, so this is stable).
    let proteome = Proteome::generate_scaled(Species::DVulgaris, 0.25);
    let features: Vec<_> = proteome
        .proteins
        .iter()
        .map(FeatureSet::synthetic)
        .collect();
    let cfg = inference::Config {
        rescue_on_high_mem: true,
        ..inference::Config::benchmark(Preset::Casp14)
    };

    let rec = Arc::new(Recorder::virtual_time());
    let mut ledger = Ledger::observed(Arc::clone(&rec));
    let report = cfg.run(
        inference::Input {
            entries: &proteome.proteins,
            features: &features,
        },
        StageCtx::for_ledger(&mut ledger).recorder(&rec),
    );
    assert!(
        report.sim.quarantined > 0,
        "the proteome slice must contain over-large targets"
    );
    assert!(report.sim.quarantine_makespan > 0.0);

    // Ledger: the rerun pass is charged as its own high-memory stage.
    let by_stage = ledger.by_stage();
    let highmem = by_stage
        .get(&("Summit".to_owned(), "inference_highmem".to_owned()))
        .copied()
        .expect("high-memory rerun charged");
    assert!(highmem > 0.0);

    // Trace: what `lens --trace` would render. The quarantine pass is a
    // child span of the batch, the counter totals match the outcome, and
    // the summary mentions the retried tasks.
    let trace = Trace::parse_jsonl(&rec.to_jsonl()).expect("parse trace");
    let spans = trace.spans();
    let batch_span = spans.iter().find(|s| s.name == "inference").expect("span");
    let q_span = spans
        .iter()
        .find(|s| s.name == "inference:quarantine")
        .expect("quarantine child span");
    assert_eq!(q_span.parent, Some(batch_span.id));
    assert!((q_span.duration() - report.sim.quarantine_makespan).abs() < 1e-9);

    let totals = trace.counter_totals();
    assert_eq!(
        totals["dataflow/quarantined"],
        report.sim.quarantined as f64
    );
    assert!(totals["dataflow/retries"] >= report.sim.quarantined as f64);
    assert!(
        totals
            .keys()
            .any(|k| k == "node_seconds/Summit/inference_highmem"),
        "observed ledger mirrors the high-memory charge into the trace"
    );
    let summary = trace.summary();
    assert!(summary.contains("retried"), "{summary}");
}
