//! F2 — Fig 2: distribution of inference work across Dask workers.
//!
//! The paper shows 10 of 1200 workers over an ≈ 5-hour inference batch:
//! long tasks first (the sorted queue), small tasks filling gaps later,
//! all workers finishing within minutes of one another.

use crate::harness::Ctx;
use crate::report::Report;
use std::sync::Arc;
use summitfold_dataflow::stats::{ascii_gantt, to_csv};
use summitfold_dataflow::OrderingPolicy;
use summitfold_hpc::Ledger;
use summitfold_inference::{Fidelity, Preset};
use summitfold_obs::json::ObjectWriter;
use summitfold_obs::{Monitor, MonitorConfig, Recorder, Sink as _};
use summitfold_pipeline::stages::{inference, Stage as _, StageCtx};
use summitfold_protein::proteome::{Proteome, Species};

/// Load-balance metrics extracted from the run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Worker (GPU) count.
    pub workers: usize,
    /// Batch walltime in hours.
    pub walltime_h: f64,
    /// Batch makespan in (virtual) seconds, from batch start to the last
    /// completion (quarantine rerun included).
    pub makespan_s: f64,
    /// Completed tasks in the batch.
    pub tasks: usize,
    /// Completions per second over the whole batch.
    pub throughput_per_s: f64,
    /// Idle tail in minutes.
    pub idle_tail_min: f64,
    /// Mean worker busy fraction.
    pub utilization: f64,
    /// Whether early-scheduled tasks ran longer than late ones
    /// (longest-first signature).
    pub first_tasks_longer: bool,
}

/// Run the Fig 2 batch: the *S. divinum* inference workload on 200 nodes
/// (1200 workers), longest-first.
#[must_use]
pub fn run(ctx: &Ctx) -> (Outcome, Report) {
    let scale = if ctx.quick { 0.1 } else { 1.0 };
    let proteome = Proteome::generate_scaled(Species::SDivinum, scale);
    let features: Vec<_> = proteome
        .proteins
        .iter()
        .map(summitfold_msa::FeatureSet::synthetic)
        .collect();
    let nodes = if ctx.quick { 20 } else { 200 };
    let cfg = inference::Config {
        preset: Preset::Genome,
        fidelity: Fidelity::Statistical,
        nodes,
        policy: OrderingPolicy::LongestFirst,
        rescue_on_high_mem: true,
        // Live health gauges roughly every workers/2 completions — a
        // couple hundred monitor samples over the batch either way.
        progress_every: Some(if ctx.quick { 50 } else { 500 }),
    };
    // Run traced on a virtual clock: the JSONL trace carries the stage
    // span, every task event, and (via the observed ledger) the budget.
    let rec = Arc::new(Recorder::virtual_time());
    let mut ledger = Ledger::observed(Arc::clone(&rec));
    let report = cfg.run(
        inference::Input {
            entries: &proteome.proteins,
            features: &features,
        },
        StageCtx::for_ledger(&mut ledger).recorder(&rec),
    );
    let sim = &report.sim;
    // Load-balance metrics are over the standard lane; the quarantine
    // rerun pass (high-memory rescue) runs after the lane drains and
    // would otherwise swamp the utilization figure.
    let workers = sim.workers;

    // Sample 10 representative workers, evenly spaced, like the paper's
    // random sample of 10 from 1200.
    let sample: Vec<usize> = (0..10).map(|k| k * workers / 10).collect();

    // "The first set of proteins for each worker took significantly
    // longer to process than those at the end due to task sorting."
    let timelines = sim.worker_timelines();
    let mut first_longer = 0;
    for &w in &sample {
        let tl = &timelines[w];
        if tl.len() >= 4 {
            let first = tl[0].duration();
            let last = tl[tl.len() - 1].duration();
            if first > last {
                first_longer += 1;
            }
        }
    }
    let tasks = sim.records.len();
    let outcome = Outcome {
        workers,
        walltime_h: sim.makespan / 3600.0,
        makespan_s: sim.makespan,
        tasks,
        throughput_per_s: if sim.makespan > 0.0 {
            tasks as f64 / sim.makespan
        } else {
            0.0
        },
        idle_tail_min: sim.standard_idle_tail() / 60.0,
        utilization: sim.standard_utilization(),
        first_tasks_longer: first_longer >= 8,
    };

    let mut rpt = Report::new("fig2", "Fig 2 — inference load across Dask workers");
    rpt.line(format!(
        "Batch: {} targets × 5 models on {} workers ({} Summit nodes), longest-first.",
        proteome.len(),
        workers,
        nodes
    ));
    rpt.line(format!(
        "Walltime {:.2} h; idle tail {:.1} min; utilization {:.1} %.",
        outcome.walltime_h,
        outcome.idle_tail_min,
        outcome.utilization * 100.0
    ));
    // Replay the trace through the health monitor — same fold the live
    // `progress_every` gauges come from — for a one-line closing state.
    let monitor = Monitor::new(MonitorConfig {
        total_tasks: Some(tasks),
        workers: Some(workers),
        ..MonitorConfig::default()
    });
    for e in rec.events() {
        monitor.event(&e);
    }
    rpt.line(format!(
        "Monitor close-out (whole campaign, quarantine tail included): {}.",
        monitor.snapshot().render_line()
    ));
    if sim.quarantined > 0 {
        rpt.line(format!(
            "Quarantine rerun: {} tasks on the high-memory lane, +{:.1} min.",
            sim.quarantined,
            sim.quarantine_makespan / 60.0
        ));
    }
    rpt.line(format!(
        "First task longer than last on {first_longer}/10 sampled workers (sorted queue effect)."
    ));
    rpt.line("");
    rpt.line("```text");
    rpt.line(ascii_gantt(&sim.records, &sample, sim.makespan, 100).trim_end());
    rpt.line("```");

    // CSV: spans of the sampled workers only (the full set is huge).
    let sampled: Vec<_> = sim
        .records
        .iter()
        .filter(|r| sample.contains(&r.worker_id))
        .cloned()
        .collect();
    rpt.attach("fig2_worker_spans.csv", to_csv(&sampled));
    // Full telemetry trace; inspect with `lens --trace fig2_trace.jsonl`.
    rpt.attach("fig2_trace.jsonl", rec.to_jsonl());
    let mut w = ObjectWriter::new();
    w.str_field("bench", "dataflow");
    w.str_field("experiment", "fig2");
    w.int_field("quick", u64::from(ctx.quick));
    w.int_field("tasks", outcome.tasks as u64);
    w.int_field("workers", outcome.workers as u64);
    w.num_field("makespan_s", outcome.makespan_s);
    w.num_field("utilization", outcome.utilization);
    w.num_field("throughput_per_s", outcome.throughput_per_s);
    rpt.attach("BENCH_dataflow.json", w.finish() + "\n");
    (outcome, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_load_balance_properties() {
        let (outcome, _) = run(&Ctx { quick: true });
        assert!(
            outcome.utilization > 0.85,
            "utilization {}",
            outcome.utilization
        );
        assert!(
            outcome.idle_tail_min < outcome.walltime_h * 60.0 * 0.15,
            "idle tail {} min of {} h",
            outcome.idle_tail_min,
            outcome.walltime_h
        );
        assert!(outcome.first_tasks_longer, "sorted-queue signature missing");
    }
}
