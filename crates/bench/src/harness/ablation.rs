//! A1–A3 — ablations of the paper's three design choices.
//!
//! * **A1 ordering** (§3.3): longest-first vs random vs FIFO task order
//!   at 48…6000 workers — makespan and idle tail.
//! * **A2 replication** (§3.2.1): feature-generation campaign walltime vs
//!   database replica count at 96 concurrent jobs.
//! * **A3 protocol** (§3.2.3): AF2 violation-check loop vs single-pass
//!   relaxation — wasted work at equal quality.

use crate::harness::{fig4, Ctx};
use crate::report::Report;
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{Batch, OrderingPolicy, TaskSpec};
use summitfold_hpc::fs::{campaign_walltime_s, ReplicaLayout};
use summitfold_hpc::Ledger;
use summitfold_inference::{Fidelity, Preset};
use summitfold_msa::db::DbSet;
use summitfold_msa::features::feature_gen_node_seconds;
use summitfold_pipeline::stages::{inference, Stage as _, StageCtx, TASK_OVERHEAD_S};
use summitfold_protein::proteome::{Proteome, Species};

/// A1 result row.
#[derive(Debug, Clone)]
pub struct OrderingRow {
    /// Simulated worker count.
    pub workers: usize,
    /// Ordering policy label.
    pub policy: &'static str,
    /// Batch makespan in hours.
    pub makespan_h: f64,
    /// Idle tail (last-task finish minus mean worker finish) in minutes.
    pub idle_tail_min: f64,
}

/// Run the ordering ablation over a realistic inference workload.
#[must_use]
pub fn run_ordering(ctx: &Ctx) -> (Vec<OrderingRow>, Report) {
    // Workload: the S. divinum inference batch's task durations.
    let scale = if ctx.quick { 0.05 } else { 0.4 };
    let proteome = Proteome::generate_scaled(Species::SDivinum, scale);
    let features: Vec<_> = proteome
        .proteins
        .iter()
        .map(summitfold_msa::FeatureSet::synthetic)
        .collect();
    let cfg = inference::Config {
        preset: Preset::Genome,
        fidelity: Fidelity::Statistical,
        nodes: 8, // node count is irrelevant; we reuse the task durations
        policy: OrderingPolicy::Fifo,
        rescue_on_high_mem: true,
        ..inference::Config::benchmark(Preset::Genome)
    };
    let rep = cfg.run(
        inference::Input {
            entries: &proteome.proteins,
            features: &features,
        },
        StageCtx::for_ledger(&mut Ledger::new()),
    );
    // Rebuild (spec, duration) pairs from the simulated records is
    // indirect; instead regenerate them the same way the stage does.
    let mut specs: Vec<TaskSpec> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    for (i, r) in &rep.results {
        for p in &r.predictions {
            specs.push(TaskSpec::new(
                format!("{}/{}", proteome.proteins[*i].sequence.id, p.model),
                proteome.proteins[*i].sequence.len() as f64,
            ));
            durations.push(p.gpu_seconds);
        }
    }

    let mut rows = Vec::new();
    let worker_counts: &[usize] = if ctx.quick {
        &[48, 192]
    } else {
        &[48, 192, 1200, 6000]
    };
    for &workers in worker_counts {
        for (policy, label) in [
            (OrderingPolicy::LongestFirst, "longest-first"),
            (OrderingPolicy::Random { seed: 42 }, "random"),
            (OrderingPolicy::Fifo, "fifo"),
        ] {
            let sim = Batch::new(&specs)
                .workers(workers)
                .policy(policy)
                .durations(&durations)
                .run(&VirtualExecutor::new(TASK_OVERHEAD_S))
                // sfcheck::allow(panic-hygiene, worker counts are the fixed positive set above)
                .expect("ablation batch is well-formed");
            rows.push(OrderingRow {
                workers,
                policy: label,
                makespan_h: sim.makespan / 3600.0,
                idle_tail_min: sim.idle_tail() / 60.0,
            });
        }
    }

    let mut rpt = Report::new("ablation_ordering", "A1 — task-ordering ablation (§3.3)");
    rpt.line(format!(
        "Workload: {} tasks from the S. divinum batch.",
        specs.len()
    ));
    rpt.line("");
    rpt.line("| workers | policy | makespan (h) | idle tail (min) |");
    rpt.line("|---|---|---|---|");
    let mut csv = String::from("workers,policy,makespan_h,idle_tail_min\n");
    for row in &rows {
        rpt.line(format!(
            "| {} | {} | {:.2} | {:.1} |",
            row.workers, row.policy, row.makespan_h, row.idle_tail_min
        ));
        csv.push_str(&format!(
            "{},{},{:.3},{:.2}\n",
            row.workers, row.policy, row.makespan_h, row.idle_tail_min
        ));
    }
    rpt.attach("ablation_ordering.csv", csv);
    (rows, rpt)
}

/// A2 result row.
#[derive(Debug, Clone)]
pub struct ReplicaRow {
    /// Database replica count.
    pub replicas: u32,
    /// Campaign walltime in hours.
    pub walltime_h: f64,
    /// Scratch storage consumed by the replicas, in TB.
    pub storage_tb: f64,
}

/// Run the replication ablation.
#[must_use]
pub fn run_replicas(_ctx: &Ctx) -> (Vec<ReplicaRow>, Report) {
    // D. vulgaris feature campaign: 3205 scans at the mean uncontended
    // scan time, 96 concurrent jobs.
    let uncontended = feature_gen_node_seconds(328, DbSet::Reduced.nominal_bytes());
    let concurrent = 96u32;
    let waves = 3205u32.div_ceil(concurrent);
    let mut rows = Vec::new();
    for replicas in [1u32, 2, 4, 8, 12, 16, 24, 32, 48, 96] {
        let layout = ReplicaLayout {
            db_bytes: DbSet::Reduced.nominal_bytes(),
            replicas,
        };
        rows.push(ReplicaRow {
            replicas,
            walltime_h: campaign_walltime_s(&layout, uncontended, concurrent, waves) / 3600.0,
            storage_tb: layout.storage_bytes() as f64 / 1e12,
        });
    }

    let mut rpt = Report::new(
        "ablation_replicas",
        "A2 — database-replication ablation (§3.2.1)",
    );
    rpt.line(format!(
        "Campaign: 3205 scans, 96 concurrent jobs, {uncontended:.0} s uncontended scan."
    ));
    rpt.line("");
    rpt.line("| replicas | campaign walltime (h) | storage (TB) |");
    rpt.line("|---|---|---|");
    let mut csv = String::from("replicas,walltime_h,storage_tb\n");
    for row in &rows {
        rpt.line(format!(
            "| {} | {:.1} | {:.1} |",
            row.replicas, row.walltime_h, row.storage_tb
        ));
        csv.push_str(&format!(
            "{},{:.2},{:.2}\n",
            row.replicas, row.walltime_h, row.storage_tb
        ));
    }
    rpt.line("");
    rpt.line("The paper's 24-replica layout sits near the optimum: fewer copies hit metadata contention, many more pay replication time and 10+ TB of scratch.");
    rpt.attach("ablation_replicas.csv", csv);
    (rows, rpt)
}

/// A3 outcome.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// Models relaxed under each protocol.
    pub models: usize,
    /// Total minimizer iterations under the AF2 protocol.
    pub af2_iterations: usize,
    /// Total minimizer iterations under the optimized protocol.
    pub opt_iterations: usize,
    /// Convergence checks performed by the AF2 protocol.
    pub af2_checks: usize,
    /// Whether both protocols reached the same final quality.
    pub equal_quality: bool,
}

/// Run the relaxation-protocol ablation.
#[must_use]
pub fn run_protocol(ctx: &Ctx) -> (ProtocolOutcome, Report) {
    let relaxed = fig4::relax_all(ctx);
    let af2_iterations: usize = relaxed.iter().map(|(_, _, a, _)| a.total_iterations).sum();
    let opt_iterations: usize = relaxed.iter().map(|(_, _, _, o)| o.total_iterations).sum();
    let af2_checks: usize = relaxed.iter().map(|(_, _, a, _)| a.violation_checks).sum();
    let equal_quality = relaxed.iter().all(|(_, _, a, o)| {
        a.final_violations.clashes == o.final_violations.clashes
            && a.final_violations.is_clashed() == o.final_violations.is_clashed()
    });
    let outcome = ProtocolOutcome {
        models: relaxed.len(),
        af2_iterations,
        opt_iterations,
        af2_checks,
        equal_quality,
    };

    let mut rpt = Report::new(
        "ablation_protocol",
        "A3 — relaxation-protocol ablation (§3.2.3)",
    );
    rpt.line(format!("Models: {}.", outcome.models));
    rpt.line(format!(
        "Minimizer iterations — AF2 loop {} vs single pass {} ({:+.1} % extra).",
        outcome.af2_iterations,
        outcome.opt_iterations,
        100.0 * (outcome.af2_iterations as f64 / outcome.opt_iterations.max(1) as f64 - 1.0)
    ));
    rpt.line(format!(
        "Violation checks performed by the AF2 loop: {} (single pass: 0).",
        outcome.af2_checks
    ));
    rpt.line(format!(
        "Final quality identical: {} — \"the additional steps ... do not ensure higher quality \
         models and, so, are not necessary.\"",
        outcome.equal_quality
    ));
    (outcome, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_ablation_favors_longest_first() {
        let (rows, _) = run_ordering(&Ctx { quick: true });
        for workers in [48usize, 192] {
            let get = |p: &str| {
                rows.iter()
                    .find(|r| r.workers == workers && r.policy == p)
                    .unwrap()
            };
            let lpt = get("longest-first");
            let rnd = get("random");
            assert!(
                lpt.makespan_h <= rnd.makespan_h + 1e-9,
                "{workers} workers: LPT {} vs random {}",
                lpt.makespan_h,
                rnd.makespan_h
            );
            assert!(lpt.idle_tail_min <= rnd.idle_tail_min + 1e-6);
        }
    }

    #[test]
    fn replica_ablation_has_interior_optimum() {
        let (rows, _) = run_replicas(&Ctx { quick: true });
        let best = rows
            .iter()
            .min_by(|a, b| a.walltime_h.partial_cmp(&b.walltime_h).unwrap())
            .unwrap();
        assert!(
            best.replicas > 2 && best.replicas < 96,
            "optimum {}",
            best.replicas
        );
        let at = |r: u32| rows.iter().find(|x| x.replicas == r).unwrap().walltime_h;
        assert!(at(1) > best.walltime_h * 1.5, "single copy must be painful");
    }

    #[test]
    fn protocol_ablation_shows_waste_without_benefit() {
        let (o, _) = run_protocol(&Ctx { quick: true });
        assert!(o.af2_iterations >= o.opt_iterations);
        assert!(o.af2_checks >= o.models, "at least one check per model");
        assert!(o.equal_quality);
    }
}

/// A4 outcome: the §5 what-if — GPU-accelerated MSA tools.
#[derive(Debug, Clone)]
pub struct GpuMsaOutcome {
    /// Feature-generation budget on CPUs, node-hours.
    pub cpu_node_hours: f64,
    /// Projected budget with 38x-accelerated kernels, node-hours.
    pub gpu_node_hours: f64,
    /// End-to-end (Amdahl-limited) speedup.
    pub speedup_applied: f64,
}

/// §5: "GPU implementations of HMMER were first reported over a decade
/// ago with one version ... achieving a 38-fold speedup" — project the
/// feature-generation budget if the alignment kernels (≈ 85 % of the scan;
/// the I/O floor stays) ran 38× faster.
#[must_use]
pub fn run_gpu_msa_whatif(_ctx: &Ctx) -> (GpuMsaOutcome, Report) {
    const KERNEL_FRACTION: f64 = 0.85;
    const KERNEL_SPEEDUP: f64 = 38.0;
    let proteome = Proteome::generate(Species::DVulgaris);
    let layout = summitfold_hpc::fs::ReplicaLayout::paper_default(DbSet::Reduced.nominal_bytes());
    let slowdown = layout.slowdown(96);
    let cpu_s: f64 = proteome
        .proteins
        .iter()
        .map(|e| feature_gen_node_seconds(e.sequence.len(), DbSet::Reduced.nominal_bytes()))
        .sum::<f64>()
        * slowdown;
    let gpu_s = cpu_s * ((1.0 - KERNEL_FRACTION) + KERNEL_FRACTION / KERNEL_SPEEDUP);
    let outcome = GpuMsaOutcome {
        cpu_node_hours: cpu_s / 3600.0,
        gpu_node_hours: gpu_s / 3600.0,
        speedup_applied: cpu_s / gpu_s,
    };
    let mut rpt = Report::new(
        "ablation_gpu_msa",
        "A4 — what-if (§5): GPU-accelerated MSA search",
    );
    rpt.line(format!(
        "D. vulgaris feature generation: {:.0} node-h on CPUs → {:.0} node-h with 38×-accelerated \
         alignment kernels (85 % of scan time) — an Amdahl-limited {:.1}× end-to-end speedup. \
         The paper: \"none of these implementations seem to have been seriously considered for \
         adoption by the developers of ... HMMER and HHSuite.\"",
        outcome.cpu_node_hours, outcome.gpu_node_hours, outcome.speedup_applied
    ));
    (outcome, rpt)
}

/// A5 outcome: NVMe staging vs shared-FS replication (§3.2.1's rejected
/// alternative).
#[derive(Debug, Clone)]
pub struct StagingOutcome {
    /// Campaign walltime with shared-filesystem replicas, hours.
    pub shared_fs_walltime_h: f64,
    /// Campaign walltime staging the database to node-local NVMe, hours.
    pub staging_walltime_h: f64,
    /// Whether the full database set fits on a node's NVMe at all.
    pub full_set_stages: bool,
}

/// Quantify why the paper replicated on the shared filesystem instead of
/// staging to node-local NVMe.
#[must_use]
pub fn run_staging(_ctx: &Ctx) -> (StagingOutcome, Report) {
    use summitfold_hpc::fs::{campaign_walltime_s, ReplicaLayout, StagingModel};
    let scan = feature_gen_node_seconds(328, DbSet::Reduced.nominal_bytes());
    let concurrent = 96u32;
    let waves = 3205u32.div_ceil(concurrent);
    let shared = campaign_walltime_s(
        &ReplicaLayout::paper_default(DbSet::Reduced.nominal_bytes()),
        scan,
        concurrent,
        waves,
    );
    let staging = StagingModel::summit(DbSet::Reduced.nominal_bytes());
    let staged = staging.campaign_walltime_s(scan, concurrent, waves);
    let outcome = StagingOutcome {
        shared_fs_walltime_h: shared / 3600.0,
        staging_walltime_h: staged / 3600.0,
        full_set_stages: StagingModel::summit(DbSet::Full.nominal_bytes()).fits_node_nvme(),
    };
    let mut rpt = Report::new(
        "ablation_staging",
        "A5 — NVMe staging vs shared-filesystem replication (§3.2.1)",
    );
    rpt.line("| strategy | campaign walltime (h) | note |");
    rpt.line("|---|---|---|");
    rpt.line(format!(
        "| 24 shared-FS replicas (paper) | {:.1} | one-time replication, mild contention |",
        outcome.shared_fs_walltime_h
    ));
    rpt.line(format!(
        "| per-wave NVMe staging | {:.1} | \"time saved ... cancelled-out by repeated copying \
         with every job allocation\" |",
        outcome.staging_walltime_h
    ));
    rpt.line(format!(
        "| staging the full 2.1 TB set | n/a | fits node NVMe: {} |",
        outcome.full_set_stages
    ));
    (outcome, rpt)
}

#[cfg(test)]
mod whatif_tests {
    use super::*;

    #[test]
    fn gpu_msa_projection_is_amdahl_limited() {
        let (o, _) = run_gpu_msa_whatif(&Ctx { quick: true });
        assert!(
            o.speedup_applied > 4.0 && o.speedup_applied < 38.0,
            "speedup {}",
            o.speedup_applied
        );
        assert!(o.gpu_node_hours < o.cpu_node_hours / 4.0);
    }

    #[test]
    fn staging_loses_to_replication() {
        let (o, _) = run_staging(&Ctx { quick: true });
        assert!(o.staging_walltime_h > o.shared_fs_walltime_h * 2.0);
        assert!(!o.full_set_stages, "2.1 TB cannot stage to a 1.6 TB NVMe");
    }
}
