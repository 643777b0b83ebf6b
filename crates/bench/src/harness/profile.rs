//! P — attribution profile: where did the Fig 2 campaign's time go?
//!
//! Replays the Fig 2 inference batch (same config, same virtual
//! clock), then folds its telemetry trace through
//! [`summitfold_obs::lineage`]: the dependency chain whose busy time
//! plus waits telescopes exactly to the makespan, the
//! queue-wait/compute split along that chain, and the per-worker
//! load-imbalance coefficients (Gini, CoV). Everything is a pure
//! function of the trace, so every run is byte-stable; the report
//! attaches both folds and their distillate, `BENCH_profile.json`. A
//! trace on which the accounting identity fails aborts the run.

use crate::harness::{fig2, Ctx};
use crate::report::Report;
use summitfold_obs::json::ObjectWriter;
use summitfold_obs::{lineage, Trace};
use summitfold_pipeline::stages::TASK_OVERHEAD_S;

/// Attribution metrics extracted from the campaign trace.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Worker (GPU) count.
    pub workers: usize,
    /// Completed tasks in the batch.
    pub tasks: usize,
    /// Campaign makespan in (virtual) seconds.
    pub makespan_s: f64,
    /// Busy time along the critical chain.
    pub critical_path_s: f64,
    /// Links in the critical chain.
    pub chain_len: usize,
    /// Queue-wait share of the makespan along the chain, in [0, 1].
    pub queue_wait_share: f64,
    /// Gini coefficient of per-worker busy time (0 = perfectly even).
    pub gini: f64,
    /// Coefficient of variation of per-worker busy time.
    pub cov: f64,
    /// Mean worker busy fraction over the makespan.
    pub utilization: f64,
    /// Whether `critical_path ≤ makespan ≤ critical_path + Σ idle`
    /// held on this trace.
    pub identity_holds: bool,
}

/// Run the Fig 2 campaign and attribute its makespan.
///
/// # Panics
/// If the fig2 harness stops attaching its telemetry trace, the trace
/// carries no completed executions, the accounting identity fails, or
/// the attributed makespan is not the batch makespan minus one dispatch
/// gap — structural regressions a profile cannot paper over.
#[must_use]
pub fn run(ctx: &Ctx) -> (Outcome, Report) {
    let (fig2_outcome, fig2_report) = fig2::run(ctx);
    let jsonl = fig2_report
        .files
        .iter()
        .find(|(name, _)| name == "fig2_trace.jsonl")
        .map(|(_, contents)| contents.as_str())
        // sfcheck::allow(panic-hygiene, documented panic; losing the trace artifact is a structural regression)
        .expect("fig2 attaches its telemetry trace");
    // sfcheck::allow(panic-hygiene, documented panic; the harness wrote this trace one line above)
    let trace = Trace::parse_jsonl(jsonl).expect("fig2 trace parses");
    let truncation = lineage::truncation_of(&trace);
    // sfcheck::allow(panic-hygiene, documented panic; a fig2 run always completes tasks)
    let cp = lineage::critical_path_of(&trace).expect("fig2 trace has executions");
    // sfcheck::allow(panic-hygiene, documented panic; a fig2 run always completes tasks)
    let imbalance = lineage::imbalance_of(&trace, 5).expect("fig2 trace has executions");

    let outcome = Outcome {
        workers: imbalance.workers.len(),
        tasks: fig2_outcome.tasks,
        makespan_s: cp.makespan_s,
        critical_path_s: cp.critical_path_s(),
        chain_len: cp.chain.len(),
        queue_wait_share: if cp.makespan_s > 0.0 {
            cp.queue_wait_s / cp.makespan_s
        } else {
            0.0
        },
        gini: imbalance.gini,
        cov: imbalance.cov,
        utilization: imbalance.utilization,
        identity_holds: cp.identity_holds(),
    };
    // sfcheck::allow(panic-hygiene, documented panic; the accounting identity is the attribution contract)
    assert!(
        outcome.identity_holds,
        "critical_path ≤ makespan ≤ critical_path + Σ idle violated: {outcome:?}"
    );
    // The lineage origin is the first execution start, one dispatch gap
    // after the batch starts, so the attributed makespan falls short of
    // the batch's (BENCH_dataflow.json) by exactly TASK_OVERHEAD_S.
    let gap = fig2_outcome.makespan_s - outcome.makespan_s;
    // sfcheck::allow(panic-hygiene, documented panic; the origin is defined as the first execution start)
    assert!(
        (gap - TASK_OVERHEAD_S).abs() <= 1e-9 * fig2_outcome.makespan_s,
        "batch makespan {} minus attributed makespan {} is {gap} s, not one dispatch gap",
        fig2_outcome.makespan_s,
        outcome.makespan_s
    );

    let mut rpt = Report::new("profile", "Attribution profile — Fig 2 campaign");
    rpt.line(format!(
        "Campaign: {} tasks on {} workers, makespan {:.1} s.",
        outcome.tasks, outcome.workers, outcome.makespan_s
    ));
    rpt.line(format!(
        "Critical path: {:.1} s busy over {} links ({:.1} % of makespan); \
         queue-wait share {:.1} %.",
        outcome.critical_path_s,
        outcome.chain_len,
        100.0 * outcome.critical_path_s / outcome.makespan_s.max(f64::MIN_POSITIVE),
        100.0 * outcome.queue_wait_share
    ));
    rpt.line(format!(
        "Imbalance: Gini {:.4}, CoV {:.4}, utilization {:.1} %.",
        outcome.gini,
        outcome.cov,
        100.0 * outcome.utilization
    ));
    rpt.line("Accounting identity (critical_path ≤ makespan ≤ critical_path + Σ idle): holds.");
    rpt.line("");
    rpt.line("```text");
    rpt.line(cp.render().trim_end());
    rpt.line(imbalance.render().trim_end());
    rpt.line("```");
    // The machine-readable reports, byte-identical to `lens … --json`.
    rpt.attach("profile_critical_path.json", cp.to_json(&truncation) + "\n");
    rpt.attach(
        "profile_imbalance.json",
        imbalance.to_json(&truncation) + "\n",
    );
    let mut w = ObjectWriter::new();
    w.str_field("bench", "profile");
    w.str_field("experiment", "fig2_attribution");
    w.int_field("quick", u64::from(ctx.quick));
    w.int_field("tasks", outcome.tasks as u64);
    w.int_field("workers", outcome.workers as u64);
    w.num_field("makespan_s", outcome.makespan_s);
    w.num_field("critical_path_s", outcome.critical_path_s);
    w.int_field("chain_len", outcome.chain_len as u64);
    w.num_field("queue_wait_share", outcome.queue_wait_share);
    w.num_field("gini", outcome.gini);
    w.num_field("cov", outcome.cov);
    w.num_field("utilization", outcome.utilization);
    w.int_field("identity_holds", u64::from(outcome.identity_holds));
    rpt.attach("BENCH_profile.json", w.finish() + "\n");
    (outcome, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_attributes_the_fig2_campaign() {
        let (outcome, _) = run(&Ctx { quick: true });
        assert!(outcome.identity_holds, "accounting identity violated");
        assert!(
            outcome.critical_path_s > 0.0 && outcome.critical_path_s <= outcome.makespan_s,
            "critical path {} vs makespan {}",
            outcome.critical_path_s,
            outcome.makespan_s
        );
        assert!(outcome.chain_len >= 1);
        assert!((0.0..=1.0).contains(&outcome.queue_wait_share));
        assert!((0.0..=1.0).contains(&outcome.gini));
        assert!(
            outcome.utilization > 0.5,
            "utilization {}",
            outcome.utilization
        );
    }

    #[test]
    fn profile_is_deterministic() {
        let (a, ra) = run(&Ctx { quick: true });
        let (b, rb) = run(&Ctx { quick: true });
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.critical_path_s.to_bits(), b.critical_path_s.to_bits());
        assert_eq!(a.gini.to_bits(), b.gini.to_bits());
        assert_eq!(
            ra.files, rb.files,
            "attribution reports must be byte-stable"
        );
    }
}
