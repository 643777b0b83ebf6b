//! The metric catalog: the single definition of every name the
//! benchmark prints. `BENCHMARK.json` must agree with it (checked by
//! `tests/smoke.rs`); `compare` reads bounds and directions from here.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// The six workloads, in run order, each with the one-line reason it
/// exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "fold_real",
        "real kernels on real threads: msa search, geometric inference, relax, TM-score through Batch on ThreadExecutor; store, obs and hpc do nothing here",
    ),
    (
        "relax_annotate",
        "relax under both protocols plus pdb70 structure search: relax and structal do nearly all the work here and under 5% in fold_real",
    ),
    (
        "campaign_virtual",
        "S. divinum campaign stage by stage with a virtual-time Recorder: statistical inference, sim list scheduling and Recorder emit; no kernel, no disk",
    ),
    (
        "trace_lens",
        "operator path over a campaign trace: parse_jsonl, journeys, critical path, imbalance, journey_of, diff; obs json/trace/lineage do all the work",
    ),
    (
        "service_cold",
        "write path: three tenants into FoldingService with WAL and an empty Store, settle, then resume from the WAL; zero get hits, zero near_lookup",
    ),
    (
        "strain_rerun",
        "read path of the same store: resubmitted strain with 80% exact hits, 10% near hits and 10% novel misses; get and near_lookup dominate",
    ),
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The five end-to-end metrics, reported for every workload. The first
/// four are the wall ledger, the last is the model ledger.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "tasks_per_s",
        unit: "tasks/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "model_makespan_s",
        unit: "model_s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric with the prediction that goes with it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.operation.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// True when the value is a pure function of seed and size and must
    /// repeat bit for bit.
    pub exact: bool,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// The workloads on which it should move it. Each of them measures
    /// the metric on its own inputs in its traced run; compare it between
    /// commits on the first one.
    pub on: &'static [&'static str],
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        moves,
        on,
    }
}

const ALL: &[&str] = &[
    "fold_real",
    "relax_annotate",
    "campaign_virtual",
    "trace_lens",
    "service_cold",
    "strain_rerun",
];
use Better::{Higher, Lower};

/// Every per-layer metric. Layers are the crate/module names.
pub const PER_LAYER: &[PerLayer] = &[
    // bench: the harness itself.
    pl(
        "bench.calib.ns_per_iter",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        ALL,
    ),
    pl(
        "bench.trace_overhead_share",
        "ratio",
        Lower,
        false,
        "tasks_per_s",
        ALL,
    ),
    // protein
    pl(
        "protein.proteome.generate_ms",
        "ms",
        Lower,
        false,
        "setup_s",
        ALL,
    ),
    // msa
    pl(
        "msa.search.ms_per_query",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.kmer.candidates_us_per_query",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.sw.cells_per_s",
        "cells/s",
        Higher,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.sw.alignments_per_query",
        "count",
        Lower,
        true,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.search.prefilter_pass_ratio",
        "ratio",
        Lower,
        true,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.search.hit_ratio",
        "ratio",
        Higher,
        true,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "msa.kmer.index_build_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["strain_rerun", "fold_real"],
    ),
    // inference
    pl(
        "inference.geometric.ms_per_target",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real", "relax_annotate"],
    ),
    pl(
        "inference.statistical.us_per_target",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "inference.recycles_mean",
        "count",
        Lower,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
    pl(
        "inference.oom_share",
        "ratio",
        Lower,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
    // relax
    pl(
        "relax.single_pass.ms_per_structure",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate", "fold_real"],
    ),
    pl(
        "relax.af2_loop.ms_per_structure",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    pl(
        "relax.single_pass.iterations_mean",
        "count",
        Lower,
        true,
        "model_makespan_s",
        &["relax_annotate"],
    ),
    pl(
        "relax.af2_loop.rounds_mean",
        "count",
        Lower,
        true,
        "model_makespan_s",
        &["relax_annotate"],
    ),
    pl(
        "relax.af2_loop.wasted_round_share",
        "ratio",
        Lower,
        true,
        "model_makespan_s",
        &["relax_annotate"],
    ),
    // structal
    pl(
        "structal.tm_score.us_per_pair",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate", "fold_real"],
    ),
    pl(
        "structal.kabsch.ns_per_call",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    pl(
        "structal.lddt.us_per_pair",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    pl(
        "structal.align.ms_per_pair",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    pl(
        "structal.pdb70.ms_per_query",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    // dataflow
    pl(
        "dataflow.real.dispatch_us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "dataflow.real.idle_share",
        "ratio",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "dataflow.journal.append_us_per_record",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["fold_real"],
    ),
    pl(
        "dataflow.sim.us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual", "service_cold"],
    ),
    pl(
        "dataflow.sim.traced_us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual", "service_cold"],
    ),
    pl(
        "dataflow.source.cycle_ns_per_task",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "dataflow.sim.model_utilization",
        "ratio",
        Higher,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
    pl(
        "dataflow.sim.model_idle_tail_s",
        "model_s",
        Lower,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
    pl(
        "dataflow.sim.quarantine_share",
        "ratio",
        Lower,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
    // obs
    pl(
        "obs.recorder.emit_ns_per_event",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual", "service_cold"],
    ),
    pl(
        "obs.recorder.emit_contended_ns_per_event",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual", "service_cold"],
    ),
    pl(
        "obs.recorder.events",
        "count",
        Lower,
        true,
        "tasks_per_s",
        &["campaign_virtual", "service_cold"],
    ),
    pl(
        "obs.sink.ring_drop_share",
        "ratio",
        Lower,
        true,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "obs.trace.to_jsonl_ns_per_event",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "obs.trace.parse_ns_per_line",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.trace.parse_mb_per_s",
        "MB/s",
        Higher,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.json.parse_object_ns_per_line",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens", "service_cold"],
    ),
    pl(
        "obs.lineage.journeys_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.lineage.critical_path_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.lineage.imbalance_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.lineage.journey_of_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.lineage.refold_ratio",
        "ratio",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    pl(
        "obs.trace.diff_ms",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["trace_lens"],
    ),
    // store
    pl(
        "store.put.us_per_op",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "store.bytes_per_put",
        "bytes",
        Lower,
        true,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "store.get.us_per_op",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["strain_rerun"],
    ),
    pl(
        "store.near_lookup.ms_per_op",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["strain_rerun"],
    ),
    pl(
        "store.near_lookup.scanned_per_op",
        "count",
        Lower,
        true,
        "tasks_per_s",
        &["strain_rerun"],
    ),
    pl(
        "store.open_replay.us_per_entry",
        "us",
        Lower,
        false,
        "setup_s",
        &["strain_rerun"],
    ),
    pl(
        "store.hit_share",
        "ratio",
        Higher,
        true,
        "model_makespan_s",
        &["strain_rerun"],
    ),
    pl(
        "store.near_hit_share",
        "ratio",
        Higher,
        true,
        "model_makespan_s",
        &["strain_rerun"],
    ),
    pl(
        "store.miss_share",
        "ratio",
        Lower,
        true,
        "model_makespan_s",
        &["strain_rerun"],
    ),
    // hpc
    pl(
        "hpc.service.admit_us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "hpc.service.drain_us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "hpc.service.resume_us_per_task",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "hpc.service.wal_bytes_per_task",
        "bytes",
        Lower,
        true,
        "tasks_per_s",
        &["service_cold"],
    ),
    pl(
        "hpc.service.settled_share",
        "ratio",
        Higher,
        true,
        "tasks_per_s",
        &["service_cold"],
    ),
    // pipeline
    pl(
        "pipeline.feature_stage.us_per_target",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "pipeline.inference_stage.us_per_target",
        "us",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "pipeline.stage_self_share",
        "ratio",
        Lower,
        false,
        "tasks_per_s",
        &["campaign_virtual"],
    ),
    pl(
        "pipeline.relax_stage.ms_per_structure",
        "ms",
        Lower,
        false,
        "tasks_per_s",
        &["relax_annotate"],
    ),
    pl(
        "pipeline.artifacts.codec_ns_per_artifact",
        "ns",
        Lower,
        false,
        "tasks_per_s",
        &["strain_rerun"],
    ),
    pl(
        "pipeline.model_node_hours",
        "node_h",
        Lower,
        true,
        "model_makespan_s",
        &["campaign_virtual"],
    ),
];

/// Look up an end-to-end metric by name.
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Look up a per-layer metric by name.
#[must_use]
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Whether `name` is one of the six workloads.
#[must_use]
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}
