//! Inspect benchmark inputs and telemetry traces.
//!
//! ```text
//! lens                                      # length statistics of the benchmark set
//! lens --trace <file>                       # render a JSONL telemetry trace
//! lens --diff <new> <baseline> [--json]     # compare two traces, exit 1 on regressions
//! lens journey <file> <task-id> [--json]    # one task's causal journey
//! lens critical-path <file> [--json]        # dependency chain that set the makespan
//! lens imbalance <file> [--top K] [--json]  # per-worker load and stragglers
//! lens --help
//! ```
//!
//! The `--trace` mode parses an append-only JSONL trace (as written by
//! `summitfold_obs::Recorder::to_jsonl`, e.g. the `fig2_trace.jsonl`
//! artifact) and prints the span tree with durations, task/counter/gauge
//! summaries, histogram quantiles, and a node-hour breakdown from the
//! `node_seconds/{machine}/{stage}` counters the observed ledger emits.
//!
//! The `--diff` mode extracts comparable metrics from both traces
//! (makespan, per-span total durations, counter totals, histogram
//! quantiles), classifies each against a 10 % relative threshold, and
//! exits 1 when any metric regressed. It explains a drift between two
//! traces; it gates nothing — `repro check` is the gate, by regenerating
//! committed artifacts byte for byte. With `--json` the per-metric
//! verdicts land on stdout as one JSON object (the exit code still
//! carries the overall verdict).
//!
//! The lineage subcommands (`journey`, `critical-path`, `imbalance`)
//! fold the trace's `lineage/*` breadcrumbs and span/task rows into the
//! attribution reports of `summitfold_obs::lineage`. They are pure
//! functions of the trace: the same file yields byte-identical reports
//! on every run. Whenever the trace looks truncated (a ring sink
//! dropped events, or counters/spans arrive mid-stream), a warning goes
//! to stderr and the JSON reports carry `"truncated":1` with the
//! dropped-event count.
//!
//! Exit codes: 0 success / no regressions, 1 regressions found (or a
//! task/report the trace cannot support), 2 bad usage — unknown flag,
//! wrong arity, or an unreadable trace file.

use summitfold_bench::harness::benchmark_set;
use summitfold_obs::{lineage, Trace, Truncation};

const USAGE: &str =
    "usage: lens                                      length statistics of the benchmark set
       lens --trace <file.jsonl>                 render a JSONL telemetry trace
       lens --diff <new> <baseline> [--json]     compare two traces (exit 1 on regressions)
       lens journey <file.jsonl> <task> [--json] one task's causal journey
       lens critical-path <file.jsonl> [--json]  dependency chain that set the makespan
       lens imbalance <file.jsonl> [--top K] [--json]
                                                 per-worker load and stragglers
       lens --help                               show this message";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    match args.first().map(String::as_str) {
        None => length_stats(),
        Some("--help" | "-h") => println!("{USAGE}"),
        Some("--trace") => {
            let [_, path] = args.as_slice() else {
                return bad_usage();
            };
            let trace = load_trace_or_exit(path);
            warn_if_truncated(&trace);
            print!("{}", render_trace(&trace));
        }
        Some("--diff") => {
            let [_, new_path, base_path] = args.as_slice() else {
                return bad_usage();
            };
            let new = load_trace_or_exit(new_path);
            let baseline = load_trace_or_exit(base_path);
            warn_if_truncated(&new);
            let diff = new.diff(&baseline);
            if json {
                println!("{}", diff.to_json());
            } else {
                print!("{}", diff.render());
            }
            if diff.has_regressions() {
                std::process::exit(1);
            }
        }
        Some("journey") => {
            let [_, path, task] = args.as_slice() else {
                return bad_usage();
            };
            let trace = load_trace_or_exit(path);
            let truncation = warn_if_truncated(&trace);
            let Some(journey) = lineage::journey_of(&trace, task) else {
                eprintln!("lens: {path}: no journey for task {task:?}");
                std::process::exit(1);
            };
            if json {
                println!("{}", journey.to_json(&truncation));
            } else {
                print!("{}", journey.render());
            }
        }
        Some("critical-path") => {
            let [_, path] = args.as_slice() else {
                return bad_usage();
            };
            let trace = load_trace_or_exit(path);
            let truncation = warn_if_truncated(&trace);
            let Some(cp) = lineage::critical_path_of(&trace) else {
                eprintln!("lens: {path}: trace has no completed executions");
                std::process::exit(1);
            };
            if json {
                println!("{}", cp.to_json(&truncation));
            } else {
                print!("{}", cp.render());
            }
        }
        Some("imbalance") => {
            let top_k = take_top(&mut args);
            let [_, path] = args.as_slice() else {
                return bad_usage();
            };
            let trace = load_trace_or_exit(path);
            let truncation = warn_if_truncated(&trace);
            let Some(report) = lineage::imbalance_of(&trace, top_k) else {
                eprintln!("lens: {path}: trace has no completed executions");
                std::process::exit(1);
            };
            if json {
                println!("{}", report.to_json(&truncation));
            } else {
                print!("{}", report.render());
            }
        }
        Some(_) => bad_usage(),
    }
}

/// Remove `flag` from `args` if present, reporting whether it was.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Remove `--top K` from `args`, defaulting to 5 stragglers.
fn take_top(args: &mut Vec<String>) -> usize {
    let Some(i) = args.iter().position(|a| a == "--top") else {
        return 5;
    };
    let Some(k) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
        bad_usage();
        return 5; // unreachable: bad_usage exits
    };
    args.drain(i..=i + 1);
    k
}

fn bad_usage() {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Detect a truncated capture (ring-sink drop marker or structural
/// gaps), warn on stderr, and hand the verdict to the report JSON.
fn warn_if_truncated(trace: &Trace) -> Truncation {
    let truncation = lineage::truncation_of(trace);
    if let Some(warning) = truncation.warning() {
        eprintln!("lens: warning: {warning}");
    }
    truncation
}

fn length_stats() {
    let set = benchmark_set();
    let mut lens: Vec<usize> = set.iter().map(|e| e.sequence.len()).collect();
    lens.sort_unstable();
    let n = lens.len();
    println!(
        "n={} mean={:.0} max={}",
        n,
        lens.iter().sum::<usize>() as f64 / n as f64,
        lens[n - 1]
    );
    for t in [600, 700, 740, 800, 892, 1000] {
        println!(">{}: {}", t, lens.iter().filter(|&&l| l > t).count());
    }
}

fn load_trace_or_exit(path: &str) -> Trace {
    match load_trace(path) {
        Ok(trace) => trace,
        Err(e) => {
            // An unreadable or unparsable trace is an operator error,
            // not a regression verdict: exit 2, like any other bad
            // invocation, so gates can tell "regressed" (1) apart from
            // "pointed at the wrong file" (2).
            eprintln!("lens: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Trace::parse_jsonl(&text).map_err(|e| e.to_string())
}

fn render_trace(trace: &Trace) -> String {
    let mut out = trace.summary();
    let totals = trace.counter_totals();
    // Deadline accounting, when the batch recorded any.
    if let Some(&carried) = totals.get("dataflow/deadline_carryover") {
        out.push_str(&format!(
            "deadline: {carried:.0} task(s) carried over to a follow-on job\n"
        ));
    }
    let node: Vec<(&String, &f64)> = totals
        .iter()
        .filter(|(k, _)| k.starts_with("node_seconds/"))
        .collect();
    if !node.is_empty() {
        out.push_str("\nnode-hours\n");
        let mut grand = 0.0;
        for (k, v) in node {
            let label = k.trim_start_matches("node_seconds/");
            let hours = v / 3600.0;
            out.push_str(&format!("  {label:<32} {hours:>10.2}\n"));
            grand += hours;
        }
        out.push_str(&format!("  {:<32} {grand:>10.2}\n", "TOTAL"));
    }
    out
}
