//! Telemetry contract tests: the JSONL trace schema is a cross-executor
//! interface. Both dataflow backends must emit the same event shapes, the
//! schema is pinned by a golden file, and the CSV/Gantt artifacts must
//! regenerate byte-identically from a parsed trace — the property that
//! lets analysis tooling work from trace files instead of live runs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::sim::VirtualExecutor;
use summitfold::dataflow::stats::{ascii_gantt, records_from_trace, to_csv};
use summitfold::dataflow::{Batch, Journal, OrderingPolicy, TaskSpec};
use summitfold::obs::json::parse_object;
use summitfold::obs::{
    lineage, Event, Monitor, MonitorConfig, Recorder, RingSink, Sink as _, Trace,
};

fn specs(n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec::new(format!("t{i}"), ((i * 7) % 23 + 1) as f64))
        .collect()
}

/// Map each event kind to the set of keys its objects carry.
fn schema(jsonl: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in jsonl.lines() {
        let obj = parse_object(line).expect("every trace line is a flat JSON object");
        let kind = obj.str("event").expect("event kind is a string").to_owned();
        let keys: BTreeSet<String> = obj.iter().map(|(k, _)| k.to_owned()).collect();
        let prev = out.entry(kind.clone()).or_insert_with(|| keys.clone());
        assert_eq!(*prev, keys, "inconsistent keys within kind {kind}");
    }
    out
}

#[test]
fn real_and_sim_executors_emit_identical_schema_and_task_sets() {
    let n = 60;
    let specs = specs(n);
    let items: Vec<usize> = (0..n).collect();

    let vrec = Recorder::virtual_time();
    let sim = Batch::new(&specs)
        .workers(5)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&vrec)
        .run_with(&VirtualExecutor::new(0.5), &items, |_, &x| x * 2)
        .unwrap();

    let wrec = Recorder::wall();
    let real = Batch::new(&specs)
        .workers(5)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&wrec)
        .run_with(&ThreadExecutor, &items, |_, &x| x * 2)
        .unwrap();

    // Same computation, same outputs in submission order.
    assert_eq!(sim.outputs, real.outputs);

    // Both traces parse and their per-kind key sets are identical: the
    // schema does not depend on the backend or the clock.
    let (vt, wt) = (vrec.to_jsonl(), wrec.to_jsonl());
    let (vs, ws) = (schema(&vt), schema(&wt));
    assert_eq!(vs, ws, "trace schemas diverged between executors");
    assert!(vs.contains_key("span_start") && vs.contains_key("task"));

    // Identical task-completion sets: every spec completed exactly once
    // on both backends.
    let task_set = |jsonl: &str| -> BTreeSet<String> {
        Trace::parse_jsonl(jsonl)
            .unwrap()
            .tasks()
            .into_iter()
            .map(|t| t.task)
            .collect()
    };
    let expected: BTreeSet<String> = specs.iter().map(|s| s.id.clone()).collect();
    assert_eq!(task_set(&vt), expected);
    assert_eq!(task_set(&wt), expected);
}

/// A small deterministic trace exercising every event kind.
fn golden_trace() -> String {
    let rec = Recorder::virtual_time();
    let specs = [
        TaskSpec::new("alpha", 3.0),
        TaskSpec::new("beta", 2.0),
        TaskSpec::new("gamma", 1.0),
    ];
    let durations = [30.0, 20.0, 10.0];
    let stage = rec.span_start("stage:demo");
    Batch::new(&specs)
        .workers(2)
        .policy(OrderingPolicy::LongestFirst)
        .durations(&durations)
        .recorder(&rec)
        .label("demo")
        .run(&VirtualExecutor::new(1.0))
        .expect("golden batch is well-formed");
    // A progress-instrumented batch: pins the `monitor/...` gauge family
    // the live health monitor interleaves into the trace.
    let live_specs = [
        TaskSpec::new("theta", 3.0),
        TaskSpec::new("iota", 2.0),
        TaskSpec::new("kappa", 2.0),
        TaskSpec::new("lambda", 1.0),
    ];
    let live_durations = [3.0, 2.0, 2.0, 1.0];
    Batch::new(&live_specs)
        .workers(2)
        .policy(OrderingPolicy::LongestFirst)
        .durations(&live_durations)
        .recorder(&rec)
        .label("live")
        .progress(2)
        .run(&VirtualExecutor::new(1.0))
        .expect("golden live batch is well-formed");
    rec.add("demo/completed", 3.0);
    rec.gauge("demo/load", 0.5);
    rec.observe("demo/latency", 4.25);
    // A lineage breadcrumb: pins the causal-attribution event shape
    // (`lineage/*` names, absolute instants, no clock advancement).
    lineage::admitted(&rec, "alpha", 0.0);
    rec.span_end(stage);
    rec.to_jsonl()
}

#[test]
fn golden_jsonl_trace_is_byte_stable() {
    let jsonl = golden_trace();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.jsonl");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &jsonl).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1 cargo test golden");
    assert_eq!(
        jsonl, golden,
        "JSONL trace schema changed; if intentional, regenerate with UPDATE_GOLDEN=1 and \
         document the change in DESIGN.md"
    );
    // And the parser round-trips the golden bytes exactly.
    let trace = Trace::parse_jsonl(&golden).unwrap();
    assert_eq!(trace.to_jsonl(), golden);
}

#[test]
fn streaming_recorder_bounds_memory_with_a_ring_sink() {
    let ring = Arc::new(RingSink::new(8));
    let rec = Recorder::virtual_time().with_sink(Box::new(Arc::clone(&ring)));
    let specs = specs(30);
    Batch::new(&specs)
        .workers(3)
        .recorder(&rec)
        .run(&VirtualExecutor::new(1.0))
        .unwrap();
    // A 30-task batch emits far more than 8 events; the streaming
    // recorder retains none of them and the ring holds only the tail.
    assert!(rec.events().is_empty(), "with_sink disables retention");
    assert_eq!(ring.len(), 8);
    assert!(ring.dropped() > 0, "overflow must be counted, not silent");
}

#[test]
fn monitor_stream_snapshot_equals_full_trace_replay() {
    // Live: the monitor rides the recorder as a sink and folds events
    // as they happen. Replay: a fresh monitor consumes the retained
    // trace afterwards. Both must land on the identical snapshot.
    let live = Arc::new(Monitor::new(MonitorConfig::default()));
    let rec = Recorder::virtual_time();
    rec.attach_sink(Box::new(Arc::clone(&live)));
    let specs = specs(40);
    Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&rec)
        .run(&VirtualExecutor::new(1.0))
        .unwrap();
    let replay = Monitor::new(MonitorConfig::default());
    for e in rec.events() {
        replay.event(&e);
    }
    assert_eq!(live.snapshot(), replay.snapshot());
    assert_eq!(live.snapshot().tasks_done, 40);
}

/// The ordered values of one gauge name in a recorder's trace.
fn gauge_sequence(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.to_jsonl()
        .lines()
        .map(|l| parse_object(l).expect("trace line parses"))
        .filter(|o| o.str("event") == Ok("gauge") && o.str("name") == Ok(name))
        .map(|o| o.num("value").expect("gauge value is a number"))
        .collect()
}

#[test]
fn progress_gauges_agree_across_executors() {
    let n = 24;
    let specs = specs(n);
    let items: Vec<usize> = (0..n).collect();
    let vrec = Recorder::virtual_time();
    Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&vrec)
        .progress(6)
        .run_with(&VirtualExecutor::new(0.5), &items, |_, &x| x)
        .unwrap();
    let wrec = Recorder::wall();
    Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&wrec)
        .progress(6)
        .run_with(&ThreadExecutor, &items, |_, &x| x)
        .unwrap();
    // The completion-count trajectory is executor-independent: both
    // backends sample the monitor at the same cadence over the same
    // task set, so done/total sequences match exactly even though the
    // thread backend's timestamps are wall-clock.
    assert_eq!(
        gauge_sequence(&vrec, "monitor/done"),
        vec![6.0, 12.0, 18.0, 24.0]
    );
    assert_eq!(
        gauge_sequence(&vrec, "monitor/done"),
        gauge_sequence(&wrec, "monitor/done")
    );
    assert_eq!(gauge_sequence(&vrec, "monitor/total"), vec![24.0; 4]);
    assert_eq!(
        gauge_sequence(&vrec, "monitor/total"),
        gauge_sequence(&wrec, "monitor/total")
    );
}

#[test]
fn progress_instrumented_virtual_runs_are_byte_deterministic() {
    let run = || {
        let rec = Recorder::virtual_time();
        Batch::new(&specs(24))
            .workers(4)
            .policy(OrderingPolicy::LongestFirst)
            .recorder(&rec)
            .progress(5)
            .run(&VirtualExecutor::new(1.0))
            .unwrap();
        rec.to_jsonl()
    };
    assert_eq!(run(), run(), "monitor gauges must not break determinism");
}

#[test]
fn trace_self_diff_reports_no_regressions() {
    let rec = Recorder::virtual_time();
    Batch::new(&specs(20))
        .workers(3)
        .recorder(&rec)
        .progress(4)
        .run(&VirtualExecutor::new(1.0))
        .unwrap();
    let trace = Trace::parse_jsonl(&rec.to_jsonl()).unwrap();
    let diff = trace.diff(&trace);
    assert!(!diff.has_regressions(), "{}", diff.render());
    assert!(diff.render().contains("0 regression"), "{}", diff.render());
}

/// The monitor stays honest across a kill-and-resume campaign: at the
/// kill its ETA reports the work left, and a resumed trace counts every
/// task exactly once on both executors — journaled replays must not
/// double-book completions.
#[test]
fn monitor_attributes_resumed_campaigns_without_double_counting() {
    let n = 12;
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(format!("t{i}"), 1.0))
        .collect();
    let durations = vec![10.0; n];
    let batch = || Batch::new(&specs).workers(2).durations(&durations);
    let monitor = || {
        Monitor::new(MonitorConfig {
            total_tasks: Some(n),
            workers: Some(2),
            ..MonitorConfig::default()
        })
    };
    let mut expected: Vec<String> = specs.iter().map(|s| s.id.clone()).collect();
    expected.sort();

    // Leg 1 is killed after the second wave: 2 workers × 10 s tasks
    // leave four completions on disk. A live monitor saw the batch span
    // open and those four tasks land.
    let journal = Journal::new();
    let rec = Recorder::virtual_time();
    batch()
        .journal(&journal)
        .recorder(&rec)
        .run(&VirtualExecutor::new(0.0))
        .unwrap();
    let killed = journal.truncated(4);
    let at_kill = monitor();
    let events = rec.events();
    let tasks = events.iter().filter(|e| matches!(e, Event::Task { .. }));
    for e in events.iter().take(1).chain(tasks.take(killed.len())) {
        at_kill.event(e);
    }
    let s = at_kill.snapshot();
    assert_eq!(s.tasks_done, killed.len());
    assert_eq!(s.t, 20.0, "the second wave ends at the kill");
    assert!(s.eta_s > 0.0, "work remains, eta {}", s.eta_s);

    // Leg 2 resumes from the journal on either backend. The virtual one
    // re-derives the full schedule; the thread one replays the journaled
    // rows (from its own killed leg) and runs the rest.
    let sim_rec = Recorder::virtual_time();
    let sim = batch()
        .recorder(&sim_rec)
        .resume(&VirtualExecutor::new(0.0), &killed)
        .unwrap();
    let thread_journal = Journal::new();
    batch()
        .journal(&thread_journal)
        .run(&ThreadExecutor)
        .unwrap();
    let thread_rec = Recorder::wall();
    let thread = batch()
        .recorder(&thread_rec)
        .resume(&ThreadExecutor, &thread_journal.truncated(4))
        .unwrap();
    for (label, resumed, rec) in [("sim", &sim, &sim_rec), ("thread", &thread, &thread_rec)] {
        assert_eq!(resumed.resumed, 4, "{label}");
        assert_eq!(resumed.records.len(), n, "{label}");

        // Each task appears exactly once in the resumed trace.
        let trace = Trace::parse_jsonl(&rec.to_jsonl()).unwrap();
        let mut ids: Vec<String> = trace.tasks().into_iter().map(|t| t.task).collect();
        ids.sort();
        assert_eq!(ids, expected, "{label}: duplicate or missing completions");

        let after = monitor();
        for e in rec.events() {
            after.event(&e);
        }
        let s = after.snapshot();
        assert_eq!(s.tasks_done, n, "{label}: journaled replays double-counted");
        assert!(
            s.eta_s.abs() < 1e-9,
            "{label}: campaign complete but eta {}",
            s.eta_s
        );
    }
}

/// The causal journeys folded from a campaign's trace are
/// executor-invariant in everything that is not a wall-clock reading:
/// same task set, same attempt counts, same execution counts. The
/// virtual backend's reports are additionally byte-stable run-to-run —
/// a thread campaign's canonical attribution basis is its deterministic
/// virtual replay (see `obs::lineage` module docs).
#[test]
fn lineage_attribution_agrees_across_executors() {
    let n = 30;
    let specs = specs(n);

    let run_virtual = || {
        let rec = Recorder::virtual_time();
        Batch::new(&specs)
            .workers(4)
            .policy(OrderingPolicy::LongestFirst)
            .recorder(&rec)
            .run(&VirtualExecutor::new(0.5))
            .unwrap();
        rec.to_jsonl()
    };
    let vt = Trace::parse_jsonl(&run_virtual()).unwrap();

    let wrec = Recorder::wall();
    Batch::new(&specs)
        .workers(4)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&wrec)
        .run(&ThreadExecutor)
        .unwrap();
    let wt = Trace::parse_jsonl(&wrec.to_jsonl()).unwrap();

    let vj = lineage::journeys_of(&vt);
    let wj = lineage::journeys_of(&wt);
    let vids: Vec<&String> = vj.keys().collect();
    let wids: Vec<&String> = wj.keys().collect();
    assert_eq!(vids, wids, "journey task sets diverged");
    for (task, v) in &vj {
        let w = &wj[task];
        assert_eq!(v.max_attempts(), w.max_attempts(), "task {task}");
        assert_eq!(v.executions.len(), w.executions.len(), "task {task}");
    }

    // Both traces support the full reports, and the accounting identity
    // holds on each regardless of the clock behind the timestamps.
    let vcp = lineage::critical_path_of(&vt).expect("virtual trace has executions");
    let wcp = lineage::critical_path_of(&wt).expect("thread trace has executions");
    assert!(vcp.identity_holds());
    assert!(wcp.identity_holds());

    // The virtual attribution is byte-stable across independent runs.
    let vt2 = Trace::parse_jsonl(&run_virtual()).unwrap();
    let trunc = lineage::truncation_of(&vt);
    let trunc2 = lineage::truncation_of(&vt2);
    assert_eq!(
        lineage::critical_path_of(&vt2).unwrap().to_json(&trunc2),
        vcp.to_json(&trunc),
        "virtual critical-path report must replay byte-identically"
    );
    assert_eq!(
        lineage::imbalance_of(&vt2, 5).unwrap().to_json(&trunc2),
        lineage::imbalance_of(&vt, 5).unwrap().to_json(&trunc),
        "virtual imbalance report must replay byte-identically"
    );
}

/// The committed quick fig2 trace pins the attribution reports: the
/// accounting identity holds, the chain telescopes to the makespan, and
/// the folds are pure functions of the trace bytes.
#[test]
fn golden_fig2_attribution_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/quick/fig2_trace.jsonl"
    );
    let jsonl = std::fs::read_to_string(path).expect("committed quick fig2 trace present");
    let trace = Trace::parse_jsonl(&jsonl).unwrap();
    let cp = lineage::critical_path_of(&trace).expect("fig2 trace has executions");
    assert!(cp.identity_holds(), "accounting identity violated");
    assert!(!cp.chain.is_empty());
    assert!(cp.critical_path_s() > 0.0 && cp.critical_path_s() <= cp.makespan_s);
    // The chain's busy time plus its waits telescopes to the makespan.
    let chain_total: f64 = cp.chain.iter().map(|l| l.duration() + l.wait_s).sum();
    assert!(
        (chain_total - cp.makespan_s).abs() < 1e-6 * cp.makespan_s.max(1.0),
        "chain {chain_total} vs makespan {}",
        cp.makespan_s
    );
    let im = lineage::imbalance_of(&trace, 5).expect("fig2 trace has executions");
    assert!(im.workers.len() > 1);
    assert!((0.0..=1.0).contains(&im.gini));
    assert!(im.utilization > 0.0);
    // The rescue lane retried tasks: their journeys show the extra
    // attempt of the high-memory rerun.
    let journeys = lineage::journeys_of(&trace);
    assert!(
        journeys.values().any(|j| j.max_attempts() > 1),
        "fig2 quick campaign lost its retries"
    );
}

#[test]
fn sim_artifacts_regenerate_byte_identical_from_trace() {
    let specs = specs(200);
    let rec = Recorder::virtual_time();
    let outcome = Batch::new(&specs)
        .workers(12)
        .policy(OrderingPolicy::LongestFirst)
        .recorder(&rec)
        .run(&VirtualExecutor::new(2.0))
        .unwrap();

    // Serialize, reparse, and regenerate the paper's two §3.3 artifacts.
    let trace = Trace::parse_jsonl(&rec.to_jsonl()).unwrap();
    let regenerated = records_from_trace(&trace);
    assert_eq!(to_csv(&outcome.records), to_csv(&regenerated));

    let spans = trace.spans();
    assert_eq!(spans.len(), 1);
    let makespan = spans[0].end - spans[0].start;
    assert!((makespan - outcome.makespan).abs() < 1e-12);
    let workers: Vec<usize> = (0..12).collect();
    assert_eq!(
        ascii_gantt(&outcome.records, &workers, outcome.makespan, 80),
        ascii_gantt(&regenerated, &workers, makespan, 80)
    );
}
