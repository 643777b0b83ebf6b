//! Chaos harness: seeded scenarios composing worker deaths,
//! out-of-memory tasks, long-tail tasks, kills between tasks, and
//! mid-append journal kills.
//!
//! The invariants pinned here are the robustness contract of the
//! dataflow layer (paper §3.3): every task completes exactly once in the
//! outputs, resume never recomputes finished work, a campaign killed
//! and resumed leg after leg reproduces the uninterrupted record set
//! byte for byte, and attempt accounting matches across the virtual and
//! thread executors.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use summitfold::dataflow::chaos::{FaultPlan as IoFaultPlan, IoFault, IoFaults};
use summitfold::dataflow::fault::WorkerFault;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::sim::VirtualExecutor;
use summitfold::dataflow::stats::to_csv;
use summitfold::dataflow::{Batch, BatchOutcome, Journal, OrderingPolicy, TaskSpec};
use summitfold::hpc::service::{FoldingService, ServiceConfig, ServiceError, TenantSpec};
use summitfold::obs::{Recorder, Trace};
use summitfold::protein::rng::Xoshiro256;
use summitfold::store::{Artifact, Store, StoreConfig};

/// Seeded workload with stragglers: every sixth task's modeled duration
/// runs 3× its expected duration (`cost_hint`), so the longest-first
/// order (by hint) misjudges them and they land late in the schedule.
fn straggler_workload(seed: u64, n: usize) -> (Vec<TaskSpec>, Vec<f64>) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut specs = Vec::with_capacity(n);
    let mut durations = Vec::with_capacity(n);
    for i in 0..n {
        let expected = 1.0 + 9.0 * rng.uniform();
        specs.push(TaskSpec::new(format!("t{i}"), expected));
        durations.push(if i % 6 == 5 { expected * 3.0 } else { expected });
    }
    (specs, durations)
}

fn task_id_set(records: &[summitfold::dataflow::TaskRecord]) -> BTreeSet<String> {
    records.iter().map(|r| r.task_id.clone()).collect()
}

/// Runs a kill-and-resume campaign of `n` tasks: each leg resumes from
/// what the killed leg before it left on disk and is itself killed at a
/// later seeded task boundary, until a leg runs to the end. Every leg
/// skips exactly the journaled tasks, replays their rows verbatim and
/// completes every task once. Returns the final leg and the leg count.
fn kill_resume_legs(
    n: usize,
    seed: u64,
    resume: impl Fn(&Journal, &Journal) -> BatchOutcome<()>,
) -> (BatchOutcome<()>, usize) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut on_disk = Journal::new();
    let mut leg = 0;
    loop {
        leg += 1;
        let leg_journal = Journal::new();
        let out = resume(&leg_journal, &on_disk);
        assert_eq!(out.resumed, on_disk.len(), "seed {seed} leg {leg}");
        assert_eq!(out.records.len(), n, "seed {seed} leg {leg}");
        assert_eq!(task_id_set(&out.records).len(), n, "seed {seed} leg {leg}");
        for e in on_disk.entries() {
            let r = out.records.iter().find(|r| r.task_id == e.task);
            let r = r.expect("journaled task present");
            assert_eq!(
                (r.worker_id, r.start, r.end, r.attempts),
                (e.worker, e.start, e.end, e.attempts),
                "seed {seed} leg {leg}: journaled rows replay verbatim"
            );
        }
        let kill_at = on_disk.len() + 1 + rng.below(n / 3);
        if kill_at >= n {
            return (out, leg);
        }
        on_disk = leg_journal.truncated(kill_at);
    }
}

/// A campaign killed and resumed leg after leg reproduces the
/// uninterrupted run's records and makespan exactly on the simulator;
/// the same legs on real threads complete the same task set. Two tasks
/// run out of memory, so later kills can land in the rerun lane.
#[test]
fn kill_resume_campaign_reproduces_uninterrupted_records() {
    let exec = VirtualExecutor::new(0.25);
    for seed in [1u64, 7, 42] {
        let (specs, durations) = straggler_workload(seed, 30);
        let oom = [specs[2].id.clone(), specs[9].id.clone()];
        let batch = || {
            Batch::new(&specs)
                .workers(3)
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .oom(&oom)
                .quarantine(1)
        };
        let full = batch().run(&exec).expect("full run");

        let (done, legs) = kill_resume_legs(specs.len(), seed, |leg, on_disk| {
            batch()
                .journal(leg)
                .resume(&exec, on_disk)
                .expect("sim leg")
        });
        assert!(legs >= 3, "seed {seed}: only {legs} legs");
        assert_eq!(
            to_csv(&done.records),
            to_csv(&full.records),
            "seed {seed}: campaign records diverge from the uninterrupted run"
        );
        assert_eq!(done.makespan, full.makespan, "seed {seed}");

        let (real, _) = kill_resume_legs(specs.len(), seed, |leg, on_disk| {
            batch()
                .journal(leg)
                .resume(&ThreadExecutor, on_disk)
                .expect("thread leg")
        });
        assert_eq!(task_id_set(&real.records), task_id_set(&full.records));
    }
}

/// Counters whose *presence* depends on which thread wins a race: a
/// dying worker requeues only the pull it dies holding, and a worker
/// that dies before it pulls never requeues anything — if the survivors
/// drain the queue first, the death leaves no `dataflow/requeued`.
const RACY_COUNTERS: [&str; 1] = ["dataflow/requeued"];

fn counter_names(rec: &Recorder) -> BTreeSet<String> {
    Trace::from_events(rec.events())
        .counter_totals()
        .into_keys()
        .filter(|k| !RACY_COUNTERS.contains(&k.as_str()))
        .collect()
}

/// Composed chaos on the simulator: worker deaths, out-of-memory tasks,
/// long-tail tasks, quarantine, and a byte-level torn journal tail — the
/// completion and resume invariants all hold. The same
/// seeded settings then run on the thread executor, and everything that
/// does not depend on a clock must come out the same.
#[test]
fn chaos_invariants_hold_under_composed_faults() {
    let exec = VirtualExecutor::new(0.25);
    for seed in 0..8u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed.wrapping_mul(0xC0FFEE) ^ 7);
        let n = 18 + rng.below(18);
        let (specs, durations) = straggler_workload(seed ^ 0xABCD, n);
        let mut oom = Vec::new();
        for spec in &specs {
            if rng.below(6) == 1 {
                oom.push(spec.id.clone());
            }
        }
        let worker_faults = [WorkerFault {
            worker: 1,
            tasks_before_death: 2 + rng.below(4),
        }];
        let batch = || {
            Batch::new(&specs)
                .workers(3)
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .oom(&oom)
                .faults(&worker_faults)
                .quarantine(2)
        };

        let journal = Journal::new();
        let full_rec = Recorder::virtual_time();
        let full = batch()
            .journal(&journal)
            .recorder(&full_rec)
            .run(&exec)
            .expect("full run");
        let all_ids: BTreeSet<String> = specs.iter().map(|s| s.id.clone()).collect();
        assert_eq!(full.records.len(), n, "seed {seed}");
        assert_eq!(task_id_set(&full.records), all_ids, "seed {seed}");
        assert_eq!(full.deaths, 1, "seed {seed}");

        // Kill mid-append: truncate the journal inside its final line,
        // parse tolerates the torn tail, resume completes the remainder
        // without recomputing finished work and reproduces the full
        // record set.
        let text = journal.to_jsonl();
        let last_line_start = text[..text.len() - 1].rfind('\n').map_or(0, |i| i + 1);
        let cut_at = last_line_start + 1 + rng.below(text.len() - last_line_start - 2);
        let torn = Journal::parse_jsonl(&text[..cut_at]).expect("torn tail tolerated");
        assert!(torn.had_torn_tail(), "seed {seed}");
        assert_eq!(torn.len(), journal.len() - 1, "only the torn line drops");

        let rec = Recorder::virtual_time();
        let resumed = batch()
            .recorder(&rec)
            .resume(&exec, &torn)
            .expect("resume from torn journal");
        assert_eq!(resumed.resumed, torn.len(), "seed {seed}");
        assert_eq!(
            to_csv(&resumed.records),
            to_csv(&full.records),
            "seed {seed}: resume reproduces the uninterrupted records"
        );
        let totals = Trace::from_events(rec.events()).counter_totals();
        assert_eq!(
            totals.get("dataflow/journal_torn").copied(),
            Some(1.0),
            "seed {seed}: the torn tail is visible in telemetry"
        );

        // The same settings on real threads (1 ms of work per task so
        // the dying worker reaches its budget). Task set, attempts, lane
        // counts and counter names are executor-invariant.
        let items = vec![(); n];
        let work = |_: &TaskSpec, (): &()| std::thread::sleep(Duration::from_millis(1));
        let real_rec = Recorder::wall();
        let real_journal = Journal::new();
        let real_full = batch()
            .recorder(&real_rec)
            .journal(&real_journal)
            .run_with(&ThreadExecutor, &items, work)
            .expect("thread full run");
        assert_eq!(task_id_set(&real_full.records), all_ids, "seed {seed}");
        let attempts = |records: &[summitfold::dataflow::TaskRecord]| -> BTreeMap<String, u32> {
            records
                .iter()
                .map(|r| (r.task_id.clone(), r.attempts))
                .collect()
        };
        assert_eq!(
            attempts(&real_full.records),
            attempts(&full.records),
            "seed {seed}"
        );
        assert_eq!(real_full.quarantined, full.quarantined, "seed {seed}");
        assert_eq!(real_full.deaths, full.deaths, "seed {seed}");
        assert_eq!(
            counter_names(&real_rec),
            counter_names(&full_rec),
            "seed {seed}: full runs emit the same counters"
        );

        // A kill between tasks: both executors skip exactly the
        // journaled prefix and still complete every task once.
        let k = rng.below(n + 1);
        let sim_resumed = batch()
            .resume(&exec, &journal.truncated(k))
            .expect("sim resume");
        let real_resumed = batch()
            .resume(&ThreadExecutor, &real_journal.truncated(k))
            .expect("thread resume");
        assert_eq!((sim_resumed.resumed, real_resumed.resumed), (k, k));
        assert_eq!(task_id_set(&real_resumed.records), all_ids, "seed {seed}");
        assert_eq!(real_resumed.records.len(), n, "seed {seed}");
    }
}

/// Satellite (a): the virtual executor models worker deaths in virtual
/// time and agrees with the thread executor on deaths and requeues.
#[test]
fn sim_and_thread_agree_on_worker_deaths() {
    let n = 60;
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(format!("t{i}"), ((i % 5) + 1) as f64))
        .collect();
    let durations: Vec<f64> = specs.iter().map(|s| s.cost_hint).collect();
    let faults = [
        WorkerFault {
            worker: 0,
            tasks_before_death: 3,
        },
        WorkerFault {
            worker: 2,
            tasks_before_death: 7,
        },
    ];
    let batch = || {
        Batch::new(&specs)
            .workers(4)
            .policy(OrderingPolicy::Fifo)
            .durations(&durations)
            .faults(&faults)
    };

    let sim = batch().run(&VirtualExecutor::new(0.0)).expect("sim");
    // Real sleeps keep the queue non-empty long enough that both dying
    // workers actually reach their budgets.
    let items = vec![(); n];
    let real = batch()
        .run_with(&ThreadExecutor, &items, |_, ()| {
            std::thread::sleep(Duration::from_millis(1));
        })
        .expect("thread");

    for (label, out) in [("sim", &sim), ("thread", &real)] {
        assert_eq!(out.deaths, 2, "{label}");
        assert_eq!(out.requeued, 2, "{label}");
        assert_eq!(out.records.len(), n, "{label}");
        assert_eq!(task_id_set(&out.records).len(), n, "{label}");
        let per_worker = |w: usize| out.records.iter().filter(|r| r.worker_id == w).count();
        assert_eq!(per_worker(0), 3, "{label}: worker 0 dies after 3 tasks");
        assert_eq!(per_worker(2), 7, "{label}: worker 2 dies after 7 tasks");
    }
}

/// Satellite (d): worker deaths, quarantine, and kill/resume composed in
/// one thread-backend batch — the survivors drain everything, journaled
/// rows replay verbatim, and nothing completes twice.
#[test]
fn thread_deaths_quarantine_and_resume_compose() {
    for seed in 0..4u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed.wrapping_mul(0xBADF00D) | 1);
        let n = 24 + rng.below(12);
        let specs: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), ((i % 3) + 1) as f64))
            .collect();
        let mut oom = Vec::new();
        for spec in &specs {
            if rng.below(6) == 0 {
                oom.push(spec.id.clone());
            }
        }
        let worker_faults = [WorkerFault {
            worker: (seed as usize) % 4,
            tasks_before_death: 2 + rng.below(3),
        }];
        let batch = || {
            Batch::new(&specs)
                .workers(4)
                .policy(OrderingPolicy::Fifo)
                .oom(&oom)
                .faults(&worker_faults)
                .quarantine(2)
        };

        let journal = Journal::new();
        let full = batch()
            .journal(&journal)
            .run(&ThreadExecutor)
            .expect("full");
        assert_eq!(full.records.len(), n, "seed {seed}");
        assert_eq!(task_id_set(&full.records).len(), n, "seed {seed}");
        assert_eq!(full.quarantined, oom.len(), "seed {seed}");
        assert_eq!(full.deaths, 1, "seed {seed}");
        assert_eq!(journal.len(), n, "seed {seed}");

        // Kill at a random journal boundary, then resume: the journaled
        // prefix replays verbatim and only the remainder re-executes.
        let cut = journal.truncated(rng.below(n + 1));
        let survivors = cut.entries();
        let resumed = batch().resume(&ThreadExecutor, &cut).expect("resume");
        assert_eq!(resumed.resumed, survivors.len(), "seed {seed}");
        assert_eq!(resumed.records.len(), n, "seed {seed}");
        assert_eq!(task_id_set(&resumed.records).len(), n, "seed {seed}");
        for e in survivors {
            let r = resumed
                .records
                .iter()
                .find(|r| r.task_id == e.task)
                .expect("journaled task present");
            assert_eq!(
                (r.worker_id, r.start, r.end, r.attempts),
                (e.worker, e.start, e.end, e.attempts),
                "seed {seed}: journaled rows replay verbatim"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Service-level kill/resume: a multi-tenant FoldingService killed by an
// injected fault at admission, settlement, or mid-store-put, then
// resumed from its WAL, finishes byte-identical to an uninterrupted
// virtual run — no task settles twice, no tenant is charged twice.
// ---------------------------------------------------------------------

/// Index of the scripted submission that must be rejected over quota.
const REJECT_STEP: usize = 2;

/// Live (non-rejected) tasks the script admits in total.
const SCRIPT_TASKS: usize = 18;

fn svc_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-chaos-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn svc_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alice", 2.0, 100.0).cached(),
        TenantSpec::new("bob", 1.0, 0.01),
        TenantSpec::new("carol", 1.5, 100.0).priority(1),
    ]
}

fn svc_campaign(prefix: &str, n: usize, cost: f64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec::new(format!("{prefix}{i}"), cost))
        .collect()
}

/// The submission script: task ids are distinct across campaigns so the
/// result-store hit set is empty in every leg and cannot mask a
/// recovery divergence. Step `REJECT_STEP` overruns bob's 0.01
/// node-hour quota (36 node-seconds, 20 already admitted).
fn svc_script() -> Vec<(&'static str, &'static str, f64, Vec<TaskSpec>)> {
    vec![
        ("alice", "c0", 0.0, svc_campaign("a", 6, 10.0)),
        ("bob", "b0", 0.5, svc_campaign("b", 4, 5.0)),
        ("bob", "big", 0.75, svc_campaign("x", 3, 10.0)),
        ("carol", "c0", 1.0, svc_campaign("p", 5, 4.0)),
        ("alice", "c1", 1.5, svc_campaign("d", 3, 8.0)),
    ]
}

/// Play the script from step `from`. Returns the step index and error
/// of the first unexpected failure (an injected kill), if any.
fn svc_play(svc: &FoldingService, from: usize) -> Result<(), (usize, ServiceError)> {
    for (i, (tenant, campaign, arrival, specs)) in svc_script().into_iter().enumerate().skip(from) {
        match svc.submit(tenant, campaign, arrival, specs) {
            Ok(_) => assert_ne!(i, REJECT_STEP, "step {i} must be rejected"),
            Err(ServiceError::QuotaExceeded { .. }) if i == REJECT_STEP => {}
            Err(e) => return Err((i, e)),
        }
    }
    Ok(())
}

fn svc_cfg(dir: &Path, store: &Arc<Store>, faults: IoFaults) -> ServiceConfig {
    ServiceConfig {
        store: Some(Arc::clone(store)),
        dir: Some(dir.join("svc")),
        faults,
        ..ServiceConfig::default()
    }
}

/// Quota/charge fingerprint per tenant, f64s compared bit-exact. The
/// health snapshot is excluded: it folds wall timings, which a
/// partially rerun schedule legitimately redistributes.
fn svc_fingerprint(svc: &FoldingService) -> Vec<(String, u64, u64, u64, usize, usize, usize)> {
    ["alice", "bob", "carol"]
        .iter()
        .map(|t| {
            let s = svc.tenant_status(t).expect("registered tenant");
            (
                s.name,
                s.quota_node_hours.to_bits(),
                s.admitted_node_hours.to_bits(),
                s.charged_node_hours.to_bits(),
                s.completed_tasks,
                s.cached_tasks,
                s.campaigns,
            )
        })
        .collect()
}

/// Admission/settlement counter totals. The `service/live_*` dispatch
/// counters are excluded: a resumed leg only dispatches the remainder,
/// so its live-wait pattern legitimately differs while every admission
/// and settlement total must still match the uninterrupted run.
fn svc_totals(rec: &Recorder) -> BTreeMap<String, f64> {
    Trace::from_events(rec.events())
        .counter_totals()
        .into_iter()
        .filter(|(k, _)| k.starts_with("service/") && !k.starts_with("service/live_"))
        .collect()
}

struct Uninterrupted {
    settlement: String,
    fingerprint: Vec<(String, u64, u64, u64, usize, usize, usize)>,
    totals: BTreeMap<String, f64>,
    trace: String,
}

/// The reference run: full script, no faults, virtual executor.
fn svc_uninterrupted(dir: &Path) -> Uninterrupted {
    let rec = Arc::new(Recorder::virtual_time());
    let store = Arc::new(Store::open(dir.join("store")).expect("store opens"));
    let svc = FoldingService::new(
        svc_cfg(dir, &store, IoFaults::none()),
        svc_tenants(),
        Arc::clone(&rec),
    )
    .expect("valid tenants");
    svc_play(&svc, 0).expect("the clean script admits");
    svc.run(&VirtualExecutor::new(0.25)).expect("drains clean");
    Uninterrupted {
        settlement: svc.settlement_trace(),
        fingerprint: svc_fingerprint(&svc),
        totals: svc_totals(&rec),
        trace: Trace::from_events(rec.events()).to_jsonl(),
    }
}

/// Resume the killed service at `dir` (fresh store handle, no faults)
/// and return it with its recovery report and recorder.
fn svc_resume(
    dir: &Path,
) -> (
    FoldingService,
    summitfold::hpc::service::RecoveryReport,
    Arc<Recorder>,
) {
    let rec = Arc::new(Recorder::virtual_time());
    let store = Arc::new(Store::open(dir.join("store")).expect("store reopens"));
    let (svc, report) = FoldingService::resume(
        svc_cfg(dir, &store, IoFaults::none()),
        svc_tenants(),
        Arc::clone(&rec),
    )
    .expect("WAL replays");
    (svc, report, rec)
}

/// Kill point 1 — mid-admission, after two campaigns and one rejection
/// are on the WAL. Resume replays them, the script finishes, and the
/// run is indistinguishable from the uninterrupted one.
#[test]
fn service_killed_mid_admission_resumes_byte_identical() {
    let base_dir = svc_scratch("admit-base");
    let base = svc_uninterrupted(&base_dir);
    let dir = svc_scratch("admit");

    // Occurrence 3 of service/admit: steps 0,1 admit, step 2 rejects,
    // step 3 dies before anything durable or visible happens.
    let faults = IoFaultPlan::new()
        .io(IoFault::kill("service/admit", 3))
        .arm();
    let rec1 = Arc::new(Recorder::virtual_time());
    let store = Arc::new(
        Store::open_with_faults(dir.join("store"), StoreConfig::default(), faults.clone())
            .expect("store opens"),
    );
    let svc1 = FoldingService::new(svc_cfg(&dir, &store, faults), svc_tenants(), rec1)
        .expect("valid tenants");
    let (at, err) = svc_play(&svc1, 0).expect_err("the kill bites");
    assert_eq!(at, 3);
    assert_eq!(
        err,
        ServiceError::Killed {
            point: "service/admit".to_owned()
        }
    );
    drop(svc1);

    let (svc2, report, rec2) = svc_resume(&dir);
    assert_eq!(report.replayed_campaigns, 2);
    assert_eq!(report.replayed_rejections, 1);
    assert_eq!(report.requeued_tasks, 10);
    assert_eq!(report.replayed_settlements, 0);
    assert_eq!(report.wal_corrupt_lines, 0);
    assert!(!report.wal_torn_tail);
    svc_play(&svc2, 3).expect("the rest of the script admits");
    svc2.run(&VirtualExecutor::new(0.25)).expect("drains clean");

    assert_eq!(svc2.settlement_trace(), base.settlement);
    assert_eq!(svc_fingerprint(&svc2), base.fingerprint);
    assert_eq!(svc_totals(&rec2), base.totals);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 1b — killed on the very first admission (empty WAL):
/// after resume the rerun's full telemetry trace is byte-identical to
/// the uninterrupted run's once the `recovery/` replay counters are
/// filtered out.
#[test]
fn service_killed_before_first_admission_replays_the_raw_trace() {
    let base_dir = svc_scratch("first-base");
    let base = svc_uninterrupted(&base_dir);
    let dir = svc_scratch("first");

    let faults = IoFaultPlan::new()
        .io(IoFault::kill("service/admit", 0))
        .arm();
    let rec1 = Arc::new(Recorder::virtual_time());
    let store = Arc::new(
        Store::open_with_faults(dir.join("store"), StoreConfig::default(), faults.clone())
            .expect("store opens"),
    );
    let svc1 = FoldingService::new(svc_cfg(&dir, &store, faults), svc_tenants(), rec1)
        .expect("valid tenants");
    let (at, _) = svc_play(&svc1, 0).expect_err("the kill bites");
    assert_eq!(at, 0);
    drop(svc1);

    let (svc2, report, rec2) = svc_resume(&dir);
    assert_eq!(report.replayed_campaigns, 0);
    assert_eq!(report.requeued_tasks, 0);
    svc_play(&svc2, 0).expect("the full script admits");
    svc2.run(&VirtualExecutor::new(0.25)).expect("drains clean");

    let resumed_trace: String = Trace::from_events(rec2.events())
        .to_jsonl()
        .lines()
        .filter(|l| !l.contains("recovery/"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(resumed_trace, base.trace);
    assert_eq!(svc2.settlement_trace(), base.settlement);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 2 — mid-settlement: five tasks settle, the sixth kills
/// the process. Resume replays exactly those five (never twice),
/// requeues the rest, and converges to the uninterrupted settlement.
#[test]
fn service_killed_mid_settlement_settles_each_task_exactly_once() {
    let base_dir = svc_scratch("settle-base");
    let base = svc_uninterrupted(&base_dir);
    let dir = svc_scratch("settle");

    let faults = IoFaultPlan::new()
        .io(IoFault::kill("service/settle", 5))
        .arm();
    let rec1 = Arc::new(Recorder::virtual_time());
    let store = Arc::new(
        Store::open_with_faults(dir.join("store"), StoreConfig::default(), faults.clone())
            .expect("store opens"),
    );
    let svc1 = FoldingService::new(svc_cfg(&dir, &store, faults), svc_tenants(), rec1)
        .expect("valid tenants");
    svc_play(&svc1, 0).expect("the script admits");
    let err = svc1.run(&VirtualExecutor::new(0.25)).expect_err("killed");
    assert_eq!(
        err,
        ServiceError::Killed {
            point: "service/settle".to_owned()
        }
    );
    drop(svc1);

    let (svc2, report, rec2) = svc_resume(&dir);
    assert_eq!(report.replayed_campaigns, 4);
    assert_eq!(report.replayed_rejections, 1);
    assert_eq!(report.replayed_settlements, 5);
    assert_eq!(report.requeued_tasks, SCRIPT_TASKS - 5);
    assert_eq!(report.wal_corrupt_lines, 0);
    svc2.run(&VirtualExecutor::new(0.25)).expect("drains clean");

    assert_eq!(svc2.settlement_trace(), base.settlement);
    assert_eq!(svc_fingerprint(&svc2), base.fingerprint);
    assert_eq!(svc_totals(&rec2), base.totals);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 3 — mid-store-put: one fault handle shared by the store
/// and the service tears a blob write during settlement, killing the
/// process between a task's WAL settle line and its artifact landing.
/// Resume refiles the artifact, charges once, and converges.
#[test]
fn service_killed_mid_store_put_refiles_and_converges() {
    let base_dir = svc_scratch("put-base");
    let base = svc_uninterrupted(&base_dir);
    let dir = svc_scratch("put");

    // The third blob write (only cached-tenant settlements write blobs)
    // tears after 7 bytes; the shared handle then reports the process
    // dead to the service layer.
    let faults = IoFaultPlan::new()
        .io(IoFault::torn("store/blob", 2, 7))
        .arm();
    let rec1 = Arc::new(Recorder::virtual_time());
    let store = Arc::new(
        Store::open_with_faults(dir.join("store"), StoreConfig::default(), faults.clone())
            .expect("store opens"),
    );
    let svc1 = FoldingService::new(svc_cfg(&dir, &store, faults), svc_tenants(), rec1)
        .expect("valid tenants");
    svc_play(&svc1, 0).expect("the script admits");
    let err = svc1.run(&VirtualExecutor::new(0.25)).expect_err("killed");
    assert_eq!(
        err,
        ServiceError::Killed {
            point: "store-put".to_owned()
        }
    );
    drop(svc1);
    drop(store);

    let (svc2, report, rec2) = svc_resume(&dir);
    assert_eq!(report.replayed_campaigns, 4);
    assert!(
        report.replayed_settlements >= 1,
        "the torn put's settle line is on the WAL: {report:?}"
    );
    assert_eq!(
        report.replayed_settlements + report.requeued_tasks,
        SCRIPT_TASKS
    );
    svc2.run(&VirtualExecutor::new(0.25)).expect("drains clean");

    assert_eq!(svc2.settlement_trace(), base.settlement);
    assert_eq!(svc_fingerprint(&svc2), base.fingerprint);
    assert_eq!(svc_totals(&rec2), base.totals);

    // Every cached-tenant artifact — including the one whose original
    // put tore — is retrievable from the recovered store.
    let rec = Recorder::virtual_time();
    let store = Store::open(dir.join("store")).expect("store reopens clean");
    for (task, cost) in (0..6)
        .map(|i| (format!("a{i}"), 10.0))
        .chain((0..3).map(|i| (format!("d{i}"), 8.0)))
    {
        let a = Artifact::new(
            "fold",
            "service",
            &format!("alice|{task}|{cost}"),
            vec![format!("{cost}")],
        );
        assert!(
            store.get(a.key(), &rec).is_some(),
            "alice:{task} must be refiled after the torn put"
        );
    }
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill point 1c — mid-admission-*append*: the WAL write of carol's
/// campaign tears after two of its `task` lines. Those lines stay on
/// disk, uncommitted, in front of whatever is admitted next; a resume
/// that has since admitted and settled more work must still find every
/// campaign when it is resumed a second time.
#[test]
fn torn_admission_block_does_not_poison_the_next_campaign() {
    let base_dir = svc_scratch("torn-admit-base");
    let base = svc_uninterrupted(&base_dir);
    let dir = svc_scratch("torn-admit");

    // service/wal occurrences: 0 the header, 1 and 2 the first two
    // admissions, 3 bob's rejection, 4 carol's block of 5 tasks + admit.
    let faults = IoFaultPlan::new()
        .io(IoFault::torn("service/wal", 4, 150))
        .arm();
    let rec1 = Arc::new(Recorder::virtual_time());
    let store = Arc::new(
        Store::open_with_faults(dir.join("store"), StoreConfig::default(), faults.clone())
            .expect("store opens"),
    );
    let svc1 = FoldingService::new(svc_cfg(&dir, &store, faults), svc_tenants(), rec1)
        .expect("valid tenants");
    let (at, err) = svc_play(&svc1, 0).expect_err("the tear bites");
    assert_eq!(at, 3);
    assert!(matches!(err, ServiceError::Killed { .. }), "{err}");
    drop(svc1);
    drop(store);
    let wal = std::fs::read_to_string(dir.join("svc").join("service.jsonl")).unwrap();
    let whole = &wal[..=wal.rfind('\n').unwrap()];
    let orphans = whole
        .lines()
        .rev()
        .take_while(|l| l.contains("\"event\":\"task\""));
    assert_eq!(
        orphans.count(),
        2,
        "two whole task lines landed before the tear"
    );

    // First resume: the torn tail goes, the orphans are ignored, the
    // script finishes on top of them and settles.
    let (svc2, report, _) = svc_resume(&dir);
    assert!(report.wal_torn_tail);
    assert_eq!(report.replayed_campaigns, 2);
    assert_eq!(report.wal_corrupt_lines, 0);
    svc_play(&svc2, 3).expect("the rest of the script admits");
    svc2.run(&VirtualExecutor::new(0.25)).expect("drains clean");
    assert_eq!(svc2.settlement_trace(), base.settlement);
    drop(svc2);

    // Second resume: carol's campaign sits right behind the orphans and
    // must be replayed whole, with all of its settlements.
    let (svc3, report, rec3) = svc_resume(&dir);
    assert_eq!(report.replayed_campaigns, 4, "{report:?}");
    assert_eq!(report.replayed_settlements, SCRIPT_TASKS, "{report:?}");
    assert_eq!(report.requeued_tasks, 0);
    assert_eq!(report.wal_corrupt_lines, 0, "{report:?}");
    assert!(!report.wal_torn_tail);
    assert_eq!(svc3.settlement_trace(), base.settlement);
    assert_eq!(svc_fingerprint(&svc3), base.fingerprint);
    assert_eq!(svc_totals(&rec3), base.totals);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
