//! S1 — result-store extension: warm vs cold campaign makespan.
//!
//! Not a paper artifact — the paper reruns nothing, but a
//! folding-*service* (ROADMAP item 1) sees the same proteome resubmitted
//! whenever a tenant re-runs a campaign with a tweaked analysis tail.
//! The experiment runs one tenant's inference-scale campaign twice
//! through [`FoldingService`] over a shared content-addressed
//! [`Store`]: the cold pass executes and files every task, the warm pass
//! settles 100 % of the identical (renamed) campaign from cache at
//! admission time, and only an uncached control tenant still executes.
//! The report attaches `BENCH_store.json`, the two makespans and the hit
//! rate; a warm pass that misses or is not faster aborts the run.

use crate::harness::{scratch_dir, Ctx};
use crate::report::Report;
use std::sync::Arc;
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::TaskSpec;
use summitfold_hpc::service::{FoldingService, ServiceConfig, TenantSpec};
use summitfold_obs::json::ObjectWriter;
use summitfold_obs::{Recorder, Trace};
use summitfold_protein::proteome::{Proteome, Species};
use summitfold_store::Store;

/// Warm-vs-cold measurements, all on the virtual clock.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Tasks in the cacheable campaign.
    pub tasks: usize,
    /// Cold-pass makespan in (virtual) seconds: everything executes.
    pub cold_makespan_s: f64,
    /// Warm-pass makespan: only the uncached control tenant executes.
    pub warm_makespan_s: f64,
    /// Store hits during warm admission.
    pub cache_hits: usize,
    /// Hit rate over the resubmitted campaign (1.0 = every task).
    pub hit_rate: f64,
    /// Cold / warm makespan ratio.
    pub speedup: f64,
}

/// Campaign: one spec per protein, modeled cost proportional to length
/// (the same proxy the inference stage's task sort uses).
fn campaign(species: Species, scale: f64) -> Vec<TaskSpec> {
    Proteome::generate_scaled(species, scale)
        .proteins
        .iter()
        .map(|e| TaskSpec::new(e.sequence.id.clone(), e.sequence.len() as f64))
        .collect()
}

/// One service pass over `store`: the cached tenant submits `specs` as
/// `name`, the uncached control resubmits its fixed small workload, and
/// the queue drains on the virtual executor.
fn pass(
    store: &Arc<Store>,
    name: &str,
    specs: &[TaskSpec],
    control: &[TaskSpec],
) -> (f64, usize, Arc<Recorder>) {
    let rec = Arc::new(Recorder::virtual_time());
    let svc = FoldingService::new(
        ServiceConfig {
            workers: 64,
            store: Some(Arc::clone(store)),
            ..ServiceConfig::default()
        },
        vec![
            TenantSpec::new("genomics", 2.0, 1e6).cached(),
            TenantSpec::new("adhoc", 1.0, 1e6),
        ],
        Arc::clone(&rec),
    )
    // sfcheck::allow(panic-hygiene, the two-tenant table above is fixed and well-formed)
    .expect("valid tenants");
    svc.submit("genomics", name, 0.0, specs.to_vec())
        // sfcheck::allow(panic-hygiene, the 1e6 node-hour quota covers every benchmark scale by construction)
        .expect("admitted");
    svc.submit("adhoc", "control", 0.0, control.to_vec())
        // sfcheck::allow(panic-hygiene, the 1e6 node-hour quota covers every benchmark scale by construction)
        .expect("admitted");
    // sfcheck::allow(panic-hygiene, a freshly-built single-shot service always closes and drains)
    let out = svc.run(&VirtualExecutor::new(0.0)).expect("drains");
    let hits = svc
        .tenant_status("genomics")
        // sfcheck::allow(panic-hygiene, the tenant is declared in the fixed table above)
        .expect("known tenant")
        .cached_tasks;
    (out.outcome.makespan, hits, rec)
}

/// Run the warm-vs-cold store experiment.
#[must_use]
pub fn run(ctx: &Ctx) -> (Outcome, Report) {
    let scale = if ctx.quick { 0.05 } else { 0.5 };
    let specs = campaign(Species::DVulgaris, scale);
    let control = campaign(Species::DVulgaris, 0.005);

    let dir = scratch_dir("store");
    // sfcheck::allow(panic-hygiene, bench harness scratch space under temp_dir; unwritable tmp should abort the run)
    let store = Arc::new(Store::open(&dir).expect("writable store dir"));

    // Cold: every task misses, executes, and is filed at settlement.
    let (cold_makespan, cold_hits, _) = pass(&store, "c0", &specs, &control);
    // Warm: the identical campaign under a different name settles from
    // cache at admission; only the control tenant still executes.
    let (warm_makespan, warm_hits, warm_rec) = pass(&store, "c0-rerun", &specs, &control);
    let totals = Trace::from_events(warm_rec.events()).counter_totals();
    let _ = std::fs::remove_dir_all(&dir);

    let outcome = Outcome {
        tasks: specs.len(),
        cold_makespan_s: cold_makespan,
        warm_makespan_s: warm_makespan,
        cache_hits: warm_hits,
        hit_rate: warm_hits as f64 / specs.len() as f64,
        speedup: if warm_makespan > 0.0 {
            cold_makespan / warm_makespan
        } else {
            f64::INFINITY
        },
    };
    // sfcheck::allow(panic-hygiene, the warm-rerun contract; a violation must stop repro with the outcome)
    assert!(
        outcome.cache_hits == outcome.tasks && outcome.warm_makespan_s < outcome.cold_makespan_s,
        "warm rerun must settle every task from cache and beat the cold pass: {outcome:?}"
    );

    let mut rpt = Report::new(
        "store",
        "S1 (extension) — warm vs cold campaign via the result store",
    );
    rpt.line(format!(
        "Campaign: {} tasks (cached tenant) + {} control tasks (uncached tenant), 64 workers.",
        specs.len(),
        control.len()
    ));
    rpt.line(format!(
        "Cold pass: {:.1} s makespan, {cold_hits} cache hits (store starts empty).",
        outcome.cold_makespan_s
    ));
    rpt.line(format!(
        "Warm pass: {:.1} s makespan, {}/{} tasks settled from cache at admission ({:.0} % hit rate).",
        outcome.warm_makespan_s,
        outcome.cache_hits,
        outcome.tasks,
        outcome.hit_rate * 100.0
    ));
    rpt.line(format!(
        "Speedup {:.2}x; warm run charged the cached tenant {:.0} node-seconds for the campaign.",
        outcome.speedup, 0.0
    ));
    rpt.line(format!(
        "Warm-trace counters: cache/hit {}, cache/miss {}, service/cache_settled_tasks {}.",
        totals.get("cache/hit").copied().unwrap_or(0.0),
        totals.get("cache/miss").copied().unwrap_or(0.0),
        totals
            .get("service/cache_settled_tasks")
            .copied()
            .unwrap_or(0.0),
    ));
    let mut w = ObjectWriter::new();
    w.str_field("bench", "store");
    w.str_field("experiment", "warm_vs_cold");
    w.int_field("quick", u64::from(ctx.quick));
    w.int_field("tasks", outcome.tasks as u64);
    w.int_field("cache_hits", outcome.cache_hits as u64);
    w.num_field("hit_rate", outcome.hit_rate);
    w.num_field("cold_makespan_s", outcome.cold_makespan_s);
    w.num_field("warm_makespan_s", outcome.warm_makespan_s);
    rpt.attach("BENCH_store.json", w.finish() + "\n");
    (outcome, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_rerun_hits_everything_and_is_faster() {
        let (o, _) = run(&Ctx { quick: true });
        assert_eq!(o.cache_hits, o.tasks, "100% hit rate on resubmission");
        assert!((o.hit_rate - 1.0).abs() < 1e-12);
        assert!(
            o.warm_makespan_s < o.cold_makespan_s,
            "warm {} vs cold {}",
            o.warm_makespan_s,
            o.cold_makespan_s
        );
    }
}
