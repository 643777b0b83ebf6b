//! R1 — crash-consistent service recovery: kill-resume vs uninterrupted.
//!
//! Not a paper artifact — the paper's campaign is restartable at the
//! LSF-job granularity, but a folding-*service* (ROADMAP item 1) must
//! survive its own process dying mid-settlement without re-charging any
//! tenant or losing any admitted task. The experiment runs the same
//! two-tenant campaign twice on the virtual executor: once
//! uninterrupted, and once killed by an injected fault mid-settlement,
//! then resumed from the service write-ahead log. The resumed service
//! must converge to the byte-identical canonical settlement trace, or
//! the run aborts; the report attaches the comparison as
//! `BENCH_recovery.json`.

use crate::harness::{scratch_dir, Ctx};
use crate::report::Report;
use std::sync::Arc;
use summitfold_dataflow::chaos::{FaultPlan, IoFault, IoFaults};
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::TaskSpec;
use summitfold_hpc::service::{FoldingService, ServiceConfig, TenantSpec};
use summitfold_obs::json::ObjectWriter;
use summitfold_obs::Recorder;
use summitfold_protein::proteome::{Proteome, Species};
use summitfold_store::{Store, StoreConfig};

/// Kill-resume measurements, all on the virtual clock.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Live tasks admitted across both tenants.
    pub tasks: usize,
    /// Settlements completed before the injected kill fired.
    pub killed_after: usize,
    /// Settlements replayed from the WAL on resume (charged once).
    pub replayed: usize,
    /// Admitted-but-unsettled tasks requeued on resume.
    pub requeued: usize,
    /// Makespan of the uninterrupted run in (virtual) seconds.
    pub uninterrupted_makespan_s: f64,
    /// Makespan of the post-resume leg (the remainder only).
    pub resumed_makespan_s: f64,
    /// Whether the resumed settlement trace is byte-identical to the
    /// uninterrupted one — the recovery contract.
    pub traces_match: bool,
}

/// Campaign: one spec per protein, modeled cost proportional to length
/// (integral costs, so quota sums are exact in any settlement order).
fn campaign(species: Species, scale: f64) -> Vec<TaskSpec> {
    Proteome::generate_scaled(species, scale)
        .proteins
        .iter()
        .map(|e| TaskSpec::new(e.sequence.id.clone(), e.sequence.len() as f64))
        .collect()
}

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("genomics", 2.0, 1e6).cached(),
        TenantSpec::new("adhoc", 1.0, 1e6),
    ]
}

fn config(dir: &std::path::Path, store: &Arc<Store>, faults: IoFaults) -> ServiceConfig {
    ServiceConfig {
        workers: 64,
        store: Some(Arc::clone(store)),
        dir: Some(dir.join("svc")),
        faults,
        ..ServiceConfig::default()
    }
}

/// Submit both tenants' campaigns.
fn submit_all(svc: &FoldingService, specs: &[TaskSpec], control: &[TaskSpec]) {
    svc.submit("genomics", "c0", 0.0, specs.to_vec())
        // sfcheck::allow(panic-hygiene, the 1e6 node-hour quota covers every benchmark scale by construction)
        .expect("admitted");
    svc.submit("adhoc", "control", 0.0, control.to_vec())
        // sfcheck::allow(panic-hygiene, the 1e6 node-hour quota covers every benchmark scale by construction)
        .expect("admitted");
}

/// Run the kill-resume recovery experiment.
#[must_use]
pub fn run(ctx: &Ctx) -> (Outcome, Report) {
    let scale = if ctx.quick { 0.05 } else { 0.5 };
    let specs = campaign(Species::DVulgaris, scale);
    let control = campaign(Species::DVulgaris, 0.005);
    let tasks = specs.len() + control.len();
    let kill_at = (tasks / 3) as u64;

    // Leg A: the uninterrupted reference run.
    let base_dir = scratch_dir("recovery-base");
    // sfcheck::allow(panic-hygiene, bench harness scratch space under temp_dir; unwritable tmp should abort the run)
    let base_store = Arc::new(Store::open(base_dir.join("store")).expect("writable store dir"));
    let base_rec = Arc::new(Recorder::virtual_time());
    let base_svc = FoldingService::new(
        config(&base_dir, &base_store, IoFaults::none()),
        tenants(),
        base_rec,
    )
    // sfcheck::allow(panic-hygiene, the two-tenant table above is fixed and well-formed)
    .expect("valid tenants");
    submit_all(&base_svc, &specs, &control);
    // sfcheck::allow(panic-hygiene, a freshly-built single-shot service always closes and drains)
    let base_out = base_svc.run(&VirtualExecutor::new(0.0)).expect("drains");
    let base_trace = base_svc.settlement_trace();

    // Leg B: the same campaign killed mid-settlement by an injected
    // fault, then resumed from the WAL.
    let kill_dir = scratch_dir("recovery-kill");
    let faults = FaultPlan::new()
        .io(IoFault::kill("service/settle", kill_at))
        .arm();
    let kill_store = Arc::new(
        Store::open_with_faults(
            kill_dir.join("store"),
            StoreConfig::default(),
            faults.clone(),
        )
        // sfcheck::allow(panic-hygiene, bench harness scratch space under temp_dir; unwritable tmp should abort the run)
        .expect("writable store dir"),
    );
    let kill_rec = Arc::new(Recorder::virtual_time());
    let kill_svc = FoldingService::new(config(&kill_dir, &kill_store, faults), tenants(), kill_rec)
        // sfcheck::allow(panic-hygiene, the two-tenant table above is fixed and well-formed)
        .expect("valid tenants");
    submit_all(&kill_svc, &specs, &control);
    let killed = kill_svc.run(&VirtualExecutor::new(0.0));
    // sfcheck::allow(panic-hygiene, the experiment is meaningless if the seeded kill never fires; abort loudly)
    assert!(killed.is_err(), "the injected settlement kill must fire");
    drop(kill_svc);
    drop(kill_store);

    let resumed_store = Arc::new(
        // sfcheck::allow(panic-hygiene, the store directory was created by the killed leg above)
        Store::open(kill_dir.join("store")).expect("store reopens"),
    );
    let resumed_rec = Arc::new(Recorder::virtual_time());
    let (resumed_svc, report) = FoldingService::resume(
        config(&kill_dir, &resumed_store, IoFaults::none()),
        tenants(),
        resumed_rec,
    )
    // sfcheck::allow(panic-hygiene, the WAL was written by the killed leg above and replays by construction)
    .expect("WAL replays");
    // sfcheck::allow(panic-hygiene, a freshly-resumed single-shot service always closes and drains)
    let resumed_out = resumed_svc.run(&VirtualExecutor::new(0.0)).expect("drains");
    let resumed_trace = resumed_svc.settlement_trace();

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);

    let outcome = Outcome {
        tasks,
        killed_after: kill_at as usize,
        replayed: report.replayed_settlements,
        requeued: report.requeued_tasks,
        uninterrupted_makespan_s: base_out.outcome.makespan,
        resumed_makespan_s: resumed_out.outcome.makespan,
        traces_match: resumed_trace == base_trace,
    };
    // sfcheck::allow(panic-hygiene, the recovery contract; a violation must stop repro with the outcome)
    assert!(
        outcome.traces_match,
        "kill-resume must converge to the uninterrupted settlement trace: {outcome:?}"
    );

    let mut rpt = Report::new(
        "recovery",
        "R1 (extension) — crash-consistent service recovery via the WAL",
    );
    rpt.line(format!(
        "Campaign: {} tasks across two tenants, 64 workers, killed at settlement {} of {}.",
        outcome.tasks, outcome.killed_after, outcome.tasks
    ));
    rpt.line(format!(
        "Uninterrupted makespan {:.1} s; resumed leg re-ran {} requeued tasks in {:.1} s.",
        outcome.uninterrupted_makespan_s, outcome.requeued, outcome.resumed_makespan_s
    ));
    rpt.line(format!(
        "Resume replayed {} settlements from the WAL (each charged exactly once).",
        outcome.replayed
    ));
    rpt.line("Settlement traces byte-identical: yes.");
    let mut w = ObjectWriter::new();
    w.str_field("bench", "recovery");
    w.str_field("experiment", "kill_resume");
    w.int_field("quick", u64::from(ctx.quick));
    w.int_field("tasks", outcome.tasks as u64);
    w.int_field("killed_after", outcome.killed_after as u64);
    w.int_field("replayed", outcome.replayed as u64);
    w.int_field("requeued", outcome.requeued as u64);
    w.int_field("traces_match", u64::from(outcome.traces_match));
    w.num_field("uninterrupted_makespan_s", outcome.uninterrupted_makespan_s);
    w.num_field("resumed_makespan_s", outcome.resumed_makespan_s);
    rpt.attach("BENCH_recovery.json", w.finish() + "\n");
    (outcome, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_resume_converges_to_the_uninterrupted_trace() {
        let (o, _) = run(&Ctx { quick: true });
        assert!(o.traces_match, "resumed trace diverged");
        assert_eq!(
            o.replayed, o.killed_after,
            "each pre-kill settlement replays once"
        );
        assert_eq!(
            o.replayed + o.requeued,
            o.tasks,
            "replay + requeue partition the campaign"
        );
        assert!(
            o.resumed_makespan_s < o.uninterrupted_makespan_s,
            "the resumed leg only runs the remainder: {} vs {}",
            o.resumed_makespan_s,
            o.uninterrupted_makespan_s
        );
    }
}
