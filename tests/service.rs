//! Service-level contract tests for the multi-tenant folding service:
//! byte-identical virtual replay of a multi-tenant submission script,
//! cross-executor fair-share (2:1 weights receive node-hours within
//! tolerance on both backends), typed quota rejection, and live
//! submission while the thread backend is draining.

use std::collections::BTreeMap;
use std::sync::Arc;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::sim::VirtualExecutor;
use summitfold::dataflow::{DispatchEntry, SubmitError, TaskSpec};
use summitfold::hpc::{FoldingService, ServiceConfig, ServiceError, TenantSpec};
use summitfold::obs::{Recorder, Trace};

fn campaign(tag: &str, n: usize, cost: f64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec::new(format!("{tag}{i}"), cost))
        .collect()
}

/// Three tenants: alice has twice bob's share, carol is small with a
/// tight quota (0.5 node-hours = 1800 node-seconds).
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alice", 2.0, 10.0),
        TenantSpec::new("bob", 1.0, 10.0),
        TenantSpec::new("carol", 1.0, 0.5),
    ]
}

/// The scripted multi-tenant session: overlapping campaign arrivals,
/// one over-quota rejection. Returns the service's recorder.
fn scripted_run(workers: usize) -> (Arc<Recorder>, FoldingService) {
    let rec = Arc::new(Recorder::virtual_time());
    let cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let svc = FoldingService::new(cfg, tenants(), Arc::clone(&rec)).expect("valid tenants");
    // Overlapping arrivals: alice's second campaign lands mid-stream,
    // bob's is staggered, carol fits one small campaign then overruns
    // her quota.
    svc.submit("alice", "c0", 0.0, campaign("a", 12, 30.0))
        .expect("admitted");
    svc.submit("bob", "c0", 0.0, campaign("b", 12, 30.0))
        .expect("admitted");
    svc.submit("carol", "c0", 5.0, campaign("k", 4, 30.0))
        .expect("admitted");
    svc.submit("alice", "c1", 40.0, campaign("a2-", 6, 20.0))
        .expect("admitted");
    svc.submit("bob", "c1", 60.0, campaign("b2-", 6, 20.0))
        .expect("admitted");
    // Carol asks for 2400 node-seconds against the 1680 left of her
    // 1800-node-second quota.
    let err = svc
        .submit("carol", "c1", 10.0, campaign("k2-", 80, 30.0))
        .expect_err("over quota");
    assert!(matches!(err, ServiceError::QuotaExceeded { .. }), "{err}");
    (rec, svc)
}

/// Node-seconds per class over a dispatch-log prefix.
fn share_by_class(log: &[DispatchEntry], classes: usize) -> Vec<f64> {
    let mut out = vec![0.0; classes];
    for e in log {
        out[e.class] += e.cost.max(0.0);
    }
    out
}

#[test]
fn virtual_service_run_replays_byte_identically() {
    let run = || {
        let (rec, svc) = scripted_run(4);
        let out = svc.run(&VirtualExecutor::new(0.0)).expect("run");
        (rec.to_jsonl(), out, svc.report())
    };
    let (trace_a, out_a, report_a) = run();
    let (trace_b, out_b, report_b) = run();
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "virtual service trace must replay byte-identically"
    );
    assert_eq!(report_a, report_b);
    assert_eq!(out_a.dispatch_log, out_b.dispatch_log);
    assert_eq!(out_a.outcome.makespan, out_b.outcome.makespan);
}

#[test]
fn quota_and_admission_counters_are_in_the_trace() {
    let (rec, svc) = scripted_run(4);
    svc.run(&VirtualExecutor::new(0.0)).expect("run");
    let totals = Trace::from_events(rec.events()).counter_totals();
    assert_eq!(totals["service/admitted_campaigns"], 5.0);
    assert_eq!(totals["service/admitted_tasks"], 40.0);
    assert_eq!(totals["service/rejected_quota"], 1.0);
    assert_eq!(totals["service/settled_tasks"], 40.0);
    assert_eq!(totals["service/live_completed"], 40.0);
    // Carol's quota position survives the rejection untouched.
    let carol = svc.tenant_status("carol").expect("known tenant");
    assert!((carol.admitted_node_hours - 120.0 / 3600.0).abs() < 1e-9);
    assert_eq!(carol.completed_tasks, 4);
}

/// 2:1 fair-share on the virtual executor: over the contended prefix
/// (while both alice and bob have work queued) alice receives twice
/// bob's node-seconds within 10%.
#[test]
fn fair_share_split_virtual() {
    let rec = Arc::new(Recorder::virtual_time());
    let cfg = ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    };
    let svc = FoldingService::new(cfg, tenants(), Arc::clone(&rec)).expect("valid tenants");
    svc.submit("alice", "c0", 0.0, campaign("a", 60, 10.0))
        .expect("admitted");
    svc.submit("bob", "c0", 0.0, campaign("b", 60, 10.0))
        .expect("admitted");
    let out = svc.run(&VirtualExecutor::new(0.0)).expect("run");
    // Bob drains at 2/3 the rate: the contended prefix ends when one
    // class empties. Measure over the first 90 dispatches (alice's 60
    // run out right there under an exact 2:1 stride).
    let prefix = &out.dispatch_log[..90];
    let shares = share_by_class(prefix, 3);
    let ratio = shares[0] / shares[1];
    assert!(
        (ratio - 2.0).abs() / 2.0 < 0.10,
        "alice:bob = {ratio} (shares {shares:?}), want 2:1 within 10%"
    );
    // Node-hour accounting agrees with the dispatch shares.
    let a = svc.tenant_status("alice").expect("alice");
    let b = svc.tenant_status("bob").expect("bob");
    assert!((a.charged_node_hours - 600.0 / 3600.0).abs() < 1e-9);
    assert!((b.charged_node_hours - 600.0 / 3600.0).abs() < 1e-9);
}

/// The same 2:1 contract holds on the thread backend: dispatch order is
/// a pure function of queue state, so the contended prefix splits the
/// same way even under real threads.
#[test]
fn fair_share_split_thread_backend() {
    let rec = Arc::new(Recorder::virtual_time());
    let cfg = ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    };
    let svc = FoldingService::new(cfg, tenants(), Arc::clone(&rec)).expect("valid tenants");
    svc.submit("alice", "c0", 0.0, campaign("a", 60, 10.0))
        .expect("admitted");
    svc.submit("bob", "c0", 0.0, campaign("b", 60, 10.0))
        .expect("admitted");
    let out = svc.run(&ThreadExecutor).expect("run");
    assert_eq!(out.outcome.records.len(), 120);
    let prefix = &out.dispatch_log[..90];
    let shares = share_by_class(prefix, 3);
    let ratio = shares[0] / shares[1];
    assert!(
        (ratio - 2.0).abs() / 2.0 < 0.10,
        "alice:bob = {ratio} (shares {shares:?}), want 2:1 within 10%"
    );
}

/// Live shape: submitter threads race the draining workers on the
/// thread backend; every admitted task completes exactly once and is
/// attributed to the right tenant.
#[test]
fn live_submission_during_thread_run() {
    let rec = Arc::new(Recorder::virtual_time());
    let cfg = ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    };
    let svc =
        Arc::new(FoldingService::new(cfg, tenants(), Arc::clone(&rec)).expect("valid tenants"));
    // Seed work so the servers have something immediately.
    svc.submit("alice", "seed", 0.0, campaign("s", 8, 0.001))
        .expect("admitted");
    let submitters: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for c in 0..5 {
                    match svc.submit(tenant, &format!("live{c}"), 0.0, campaign("t", 4, 0.001)) {
                        Ok(_) => {}
                        // Racing the closer: a typed rejection, not a loss.
                        Err(ServiceError::Submit(SubmitError::Closed)) => return,
                        Err(other) => panic!("unexpected {other}"),
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    let closer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.close())
    };
    let out = svc.serve(&ThreadExecutor).expect("serve");
    for s in submitters {
        s.join().expect("submitter");
    }
    closer.join().expect("closer");
    // Everything admitted before the close drained; tasks the close cut
    // off were rejected with a typed error, not lost. Completions =
    // admissions recorded by the service counters.
    let totals = Trace::from_events(rec.events()).counter_totals();
    let admitted = totals["service/admitted_tasks"];
    assert_eq!(out.outcome.records.len() as f64, admitted);
    // Attribution: per-tenant completed counts sum to the total and
    // every record id carries its tenant prefix.
    let mut by_tenant: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &out.outcome.records {
        let tenant = r.task_id.split(':').next().expect("namespaced id");
        let key = match tenant {
            "alice" => "alice",
            "bob" => "bob",
            other => panic!("unexpected tenant {other}"),
        };
        *by_tenant.entry(key).or_default() += 1;
    }
    let alice = svc.tenant_status("alice").expect("alice");
    let bob = svc.tenant_status("bob").expect("bob");
    assert_eq!(
        alice.completed_tasks,
        by_tenant.get("alice").copied().unwrap_or(0)
    );
    assert_eq!(
        bob.completed_tasks,
        by_tenant.get("bob").copied().unwrap_or(0)
    );
}

/// The tenant-facing journey contract: a service campaign's tasks carry
/// admission, WAL-durability, and settlement breadcrumbs in the trace,
/// and a warm resubmission's journey shows the cache hit settled at
/// admission with no execution at all.
#[test]
fn lineage_breadcrumbs_trace_tenant_journeys() {
    use summitfold::obs::lineage;
    use summitfold::store::Store;

    let dir = std::env::temp_dir().join(format!("sf-svc-lineage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = Arc::new(Store::open(&dir).expect("writable scratch dir"));
    let mk = |rec: &Arc<Recorder>| {
        FoldingService::new(
            ServiceConfig {
                workers: 2,
                store: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
            vec![TenantSpec::new("alice", 1.0, 100.0).cached()],
            Arc::clone(rec),
        )
        .expect("valid tenants")
    };

    // Cold pass: everything executes and settles.
    let cold_rec = Arc::new(Recorder::virtual_time());
    let cold = mk(&cold_rec);
    cold.submit("alice", "c0", 5.0, campaign("t", 6, 10.0))
        .expect("admitted");
    cold.run(&VirtualExecutor::new(0.0)).expect("drains clean");
    let cold_trace = Trace::parse_jsonl(&cold_rec.to_jsonl()).unwrap();
    let j = lineage::journey_of(&cold_trace, "alice:c0:t0").expect("journey present");
    assert_eq!(j.admitted_t, Some(5.0), "queue arrival instant");
    assert!(j.wal_t.is_some(), "WAL admit must be durable");
    assert!(!j.executions.is_empty(), "cold task executes");
    let settled = j.settled_t.expect("settlement breadcrumb");
    let last_end = j.last_end().expect("executed");
    assert!(
        (settled - last_end).abs() < 1e-9,
        "settled at {settled}, execution ended {last_end}"
    );
    assert!(matches!(j.cache, Some((lineage::CacheOutcome::Miss, _))));

    // Warm pass: the same campaign resubmitted hits at admission.
    let warm_rec = Arc::new(Recorder::virtual_time());
    let warm = mk(&warm_rec);
    warm.submit("alice", "again", 3.0, campaign("t", 6, 10.0))
        .expect("admitted");
    warm.run(&VirtualExecutor::new(0.0)).expect("drains clean");
    let warm_trace = Trace::parse_jsonl(&warm_rec.to_jsonl()).unwrap();
    let j = lineage::journey_of(&warm_trace, "alice:again:t0").expect("journey present");
    assert!(matches!(j.cache, Some((lineage::CacheOutcome::Hit, _))));
    assert!(j.executions.is_empty(), "a hit never executes");
    assert_eq!(j.admitted_t, Some(3.0));
    assert_eq!(j.settled_t, Some(3.0), "hits settle at admission");

    let _ = std::fs::remove_dir_all(&dir);
}
