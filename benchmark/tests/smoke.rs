//! `cargo test` inside `benchmark/`: the catalog and `BENCHMARK.json`
//! agree and stay inside the contract's limits, and all six workloads
//! run clean at smoke size with exact metrics repeating bit for bit.

use sfbench::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sfbench::json::{self, Json};
use sfbench::runner::{self, RunConfig, RunReport};
use sfbench::workloads::Size;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key}"))
}

fn keys_of(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_catalog_and_the_contract() {
    let m = manifest();
    assert_eq!(
        keys_of(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| {
        m.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("no {key}"))
    };

    // Counts and names.
    assert!((2..=8).contains(&list("workloads").len()));
    assert!((1..=16).contains(&list("end_to_end").len()));
    assert!((1..=128).contains(&list("per_layer").len()));
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(key) {
            let name = str_of(item, "name");
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name.to_owned()), "name {name} used twice");
        }
    }

    // Workloads: exactly the catalog's, each with a one-line why.
    assert_eq!(list("workloads").len(), WORKLOADS.len());
    for (item, (name, why)) in list("workloads").iter().zip(WORKLOADS) {
        assert_eq!(keys_of(item), ["name", "why"]);
        assert_eq!((str_of(item, "name"), str_of(item, "why")), (name, why));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    // End-to-end metrics: the catalog's, bounds within the cap, and the
    // set-up time among them.
    assert_eq!(list("end_to_end").len(), END_TO_END.len());
    for (item, e) in list("end_to_end").iter().zip(END_TO_END) {
        assert_eq!(keys_of(item), ["better", "bound", "name", "unit"]);
        assert_eq!(str_of(item, "name"), e.name);
        assert_eq!(str_of(item, "unit"), e.unit);
        assert_eq!(str_of(item, "better"), e.better.word());
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(e.bound));
        assert!(is_unit(e.unit) && e.bound > 0.0 && e.bound <= 0.25);
    }
    let setup = catalog::end_to_end("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");

    // Per-layer metrics: the catalog's, each predicting an existing
    // end-to-end metric on existing workloads.
    assert_eq!(list("per_layer").len(), PER_LAYER.len());
    for (item, p) in list("per_layer").iter().zip(PER_LAYER) {
        assert_eq!(keys_of(item), ["better", "name", "unit"]);
        assert_eq!(str_of(item, "name"), p.name);
        assert_eq!(str_of(item, "unit"), p.unit);
        assert_eq!(str_of(item, "better"), p.better.word());
        assert!(is_unit(p.unit), "bad unit {:?}", p.unit);
        assert!(
            catalog::end_to_end(p.moves).is_some(),
            "{} moves unknown {}",
            p.name,
            p.moves
        );
        assert!(
            !p.on.is_empty() && p.on.iter().all(|w| catalog::is_workload(w)),
            "{}",
            p.name
        );
    }

    // Command, paths, run length.
    let command: Vec<&str> = list("command").iter().filter_map(Json::as_str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = m
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

fn smoke(workload: &str, trace: bool) -> RunReport {
    let cfg = RunConfig {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    };
    std::fs::create_dir_all(&cfg.out_dir).expect("test output directory");
    runner::run(&cfg).expect("known workload")
}

/// One test, not several: the span switch is process-wide, so traced and
/// untraced runs must not overlap.
#[test]
fn smoke_runs_are_correct_and_exact_metrics_repeat() {
    // End to end: every workload clean, every metric present and
    // positive, and the driver line carries exactly the contract's keys.
    for (workload, _) in WORKLOADS {
        let report = smoke(workload, false);
        assert!(report.correct(), "{}", report.render());
        assert!(report.attempted >= 1);
        let line = json::parse(&report.driver_line()).expect("driver line is JSON");
        assert_eq!(
            keys_of(&line),
            ["attempted", "correct", "failed", "metrics"]
        );
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(keys_of(metrics).len(), END_TO_END.len());
        for e in END_TO_END {
            let m = metrics
                .get(e.name)
                .unwrap_or_else(|| panic!("{workload}: no {}", e.name));
            assert_eq!(keys_of(m), ["unit", "value"]);
            let value = m.get("value").and_then(Json::as_f64).expect("a number");
            // A smoke repeat can finish inside one 10 ms CPU tick.
            let floor_ok = if e.name == "cpu_s" {
                value >= 0.0
            } else {
                value > 0.0
            };
            assert!(floor_ok, "{workload}: {} = {value}", e.name);
        }
        // The model ledger is a pure function of the seed.
        let again = smoke(workload, false);
        assert_eq!(
            report.metric("model_makespan_s").map(f64::to_bits),
            again.metric("model_makespan_s").map(f64::to_bits),
            "{workload}: model makespan differs between two runs of one seed"
        );
    }

    // Traced: one traced run replays all six workloads (its own plus the
    // other five as probes), so two of them cover every exact metric.
    let (a, b) = (smoke("service_cold", true), smoke("service_cold", true));
    assert!(a.correct() && b.correct(), "{}{}", a.render(), b.render());
    assert_eq!(a.metrics.len(), PER_LAYER.len());
    for p in PER_LAYER {
        let (x, y) = (
            a.metric(p.name).expect("reported"),
            b.metric(p.name).expect("reported"),
        );
        assert!(x.is_finite() && y.is_finite(), "{} is not finite", p.name);
        if p.exact {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "exact metric {} differs: {x} vs {y}",
                p.name
            );
        }
    }
    let spans = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke/trace_service_cold.jsonl"),
    )
    .expect("the traced run wrote its span file");
    let first =
        json::parse(spans.lines().next().expect("at least one span")).expect("span line is JSON");
    assert_eq!(
        keys_of(&first),
        ["end_ns", "id", "name", "parent", "start_ns"]
    );
}
