//! `campaign_virtual` — a proteome campaign in virtual time.
//!
//! A seeded subset of the *S. divinum* proteome is driven stage by stage
//! (`feature::Config::run` → `inference::Config::run` on 32 nodes with
//! the high-memory rescue lane → relaxation accounting) with a
//! virtual-time `Recorder` attached, ending in `Recorder::to_jsonl`.
//! Statistical inference, `dataflow::sim` list scheduling and the
//! recorder's emit path dominate; no kernel runs and no disk is touched.

use super::{stratified_pick, Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{Batch, OrderingPolicy, TaskSpec};
use summitfold_hpc::machine::Machine;
use summitfold_hpc::Ledger;
use summitfold_inference::{Fidelity, InferenceEngine, Preset};
use summitfold_obs::{Recorder, RingSink, Sink};
use summitfold_pipeline::stages::{
    feature, inference, relax_stage, Stage, StageCtx, TASK_OVERHEAD_S, WORKERS_PER_NODE,
};
use summitfold_protein::proteome::{ProteinEntry, Proteome, Species};
use summitfold_protein::rng::{fnv1a, Xoshiro256};

/// Calibrated relaxation cost per structure on a V100 (§4.5), as
/// `run_proteome_campaign` charges it.
const RELAX_SECONDS_PER_STRUCTURE: f64 = 20.6;

/// Capacity of the ring sink whose drop share is reported: the bounded
/// streaming mode's default in the repo's telemetry tests.
const RING_CAPACITY: usize = 65_536;

/// The workload marker type.
pub struct CampaignVirtual;

/// Inputs of one run.
pub struct Inputs {
    /// The campaign's targets.
    pub entries: Vec<ProteinEntry>,
    feature: feature::Config,
    inference: inference::Config,
    relax_nodes: u32,
}

/// One repeat's outputs.
pub struct Output {
    feature_walltime_s: f64,
    inference: inference::Report,
    relax_walltime_s: f64,
    node_hours: f64,
    /// The campaign's telemetry trace (`trace_lens` analyses it).
    pub jsonl: String,
}

/// Seeded campaign targets: four fifths of the scaled proteome. The
/// longest tenth is always in — those few proteins run out of memory and
/// set the quarantine lane's makespan, so leaving one out by chance would
/// move the model ledger by a tenth — and the seed picks the rest, one
/// per length stratum.
pub fn campaign_entries(seed: u64, size: Size) -> Vec<ProteinEntry> {
    let proteome = Proteome::generate_scaled(Species::SDivinum, size.pick(0.2, 0.01));
    let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"campaign_virtual"));
    let mut pool: Vec<&ProteinEntry> = proteome.proteins.iter().collect();
    pool.sort_by_key(|e| e.sequence.len());
    let n = pool.len();
    let mut picked = pool.split_off(n - n / 10);
    picked.extend(stratified_pick(
        &pool,
        |e| e.sequence.len(),
        n * 7 / 10,
        &mut rng,
    ));
    picked.into_iter().cloned().collect()
}

/// Run the three stages against `rec` and serialise the trace.
pub fn run_campaign(inputs: &Inputs, rec: &Recorder) -> Output {
    let mut ledger = Ledger::new();
    let feat = in_span("pipeline.feature_stage", || {
        inputs.feature.run(
            &inputs.entries,
            StageCtx::for_ledger(&mut ledger).recorder(rec),
        )
    });
    let inf = in_span("pipeline.inference_stage", || {
        inputs.inference.run(
            inference::Input {
                entries: &inputs.entries,
                features: &feat.features,
            },
            StageCtx::for_ledger(&mut ledger).recorder(rec),
        )
    });
    // Statistical fidelity yields no coordinates: relaxation is charged
    // from the calibrated per-structure throughput, like the product's
    // own campaign driver does.
    let relax_walltime_s = RELAX_SECONDS_PER_STRUCTURE * inf.results.len() as f64
        / f64::from(inputs.relax_nodes * WORKERS_PER_NODE);
    ledger.charge_job(
        Machine::Summit,
        "relaxation",
        inputs.relax_nodes,
        relax_walltime_s,
    );
    let jsonl = in_span("obs.trace.to_jsonl", || rec.to_jsonl());
    Output {
        feature_walltime_s: feat.walltime_s,
        inference: inf,
        relax_walltime_s,
        node_hours: ledger.node_hours(Machine::Andes) + ledger.node_hours(Machine::Summit),
        jsonl,
    }
}

impl Workload for CampaignVirtual {
    const NAME: &'static str = "campaign_virtual";
    type Inputs = Inputs;
    type Prepared = ();
    type Output = Output;

    fn setup(seed: u64, size: Size, _scratch: &Scratch) -> Inputs {
        Inputs {
            entries: campaign_entries(seed, size),
            feature: feature::Config::paper_default(),
            // Table 1's 32-node allocation: the paper's 200 nodes served
            // six times as many targets, and at that ratio the standard
            // lane stays bound by the summed work, not by one giant task.
            inference: inference::Config {
                rescue_on_high_mem: true,
                ..inference::Config::benchmark(Preset::Genome)
            },
            relax_nodes: relax_stage::Config::paper_default().nodes,
        }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        5 * inputs.entries.len() as u64
    }

    fn prepare(_inputs: &Inputs, _scratch: &Scratch) {}

    fn run(inputs: &Inputs, (): ()) -> Output {
        run_campaign(inputs, &Recorder::virtual_time())
    }

    fn check(inputs: &Inputs, out: &Output) -> Check {
        let mut check = Check::of(Self::tasks(inputs));
        let records = out.inference.sim.records.len() as u64;
        if records != Self::tasks(inputs) {
            check.fail(
                Self::tasks(inputs).abs_diff(records),
                format!(
                    "{records} inference records for {} targets",
                    inputs.entries.len()
                ),
            );
        }
        for f in out.inference.failures.iter().filter(|f| !f.rescued) {
            check.fail(5, format!("OOM target {} was not rescued", f.entry_index));
        }
        check
    }

    fn model_makespan_s(_inputs: &Inputs, out: &Output) -> f64 {
        out.feature_walltime_s + out.inference.walltime_s + out.relax_walltime_s
    }

    fn traced(inputs: &Inputs, plain: &Output, _scratch: &Scratch, m: &mut Metrics) -> Check {
        let n = inputs.entries.len();
        // The workload's own path under spans.
        let rec = Recorder::virtual_time();
        let replayed = run_campaign(inputs, &rec);
        let mut check = Check::of(1);
        check.require(replayed.jsonl == plain.jsonl, || {
            "traced campaign's trace differs from the untraced one".to_owned()
        });
        // The same event stream through a bounded ring: how much of this
        // campaign a streaming consumer of that capacity would lose.
        let events = rec.take_events();
        let ring = RingSink::new(RING_CAPACITY);
        for e in &events {
            ring.event(e);
        }

        // The engine and the scheduler the inference stage wraps.
        let engine = InferenceEngine::new(inputs.inference.preset, Fidelity::Statistical);
        let features: Vec<_> = inputs
            .entries
            .iter()
            .map(summitfold_msa::FeatureSet::synthetic)
            .collect();
        in_span("inference.predict_target", || {
            for (e, f) in inputs.entries.iter().zip(&features) {
                let _ = std::hint::black_box(engine.predict_target(e, f));
            }
        });
        let mut specs = Vec::new();
        let mut durations = Vec::new();
        let mut recycles = 0u64;
        for (idx, r) in &plain.inference.results {
            for p in &r.predictions {
                specs.push(TaskSpec::new(
                    format!("{}/{}", r.target_id, p.model),
                    inputs.entries[*idx].sequence.len() as f64,
                ));
                durations.push(p.gpu_seconds);
                recycles += u64::from(p.recycles);
            }
        }
        let workers = (inputs.inference.nodes * WORKERS_PER_NODE) as usize;
        let schedule = |rec: &Recorder| {
            Batch::new(&specs)
                .workers(workers)
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .recorder(rec)
                .run(&VirtualExecutor::new(TASK_OVERHEAD_S))
                .expect("replayed inference batch is valid")
        };
        in_span("dataflow.sim", || schedule(Recorder::disabled()));
        in_span(
            "dataflow.sim.traced",
            || schedule(&Recorder::virtual_time()),
        );

        // The recorder's emit path alone: the same number of events, from
        // one thread and from `nproc` threads sharing one recorder.
        let emit = |rec: &Recorder, count: usize| {
            for i in 0..count {
                match i % 3 {
                    0 => rec.task(
                        None,
                        "DVU_00001/model_1",
                        i % workers,
                        i as f64,
                        i as f64 + 1.0,
                        1,
                    ),
                    1 => rec.observe("inference/gpu_seconds", i as f64),
                    _ => rec.add("inference/converged", 1.0),
                }
            }
        };
        let solo = Recorder::virtual_time();
        in_span("obs.recorder.emit", || emit(&solo, events.len()));
        let shared = Recorder::virtual_time();
        let threads = super::fold_real::WORKERS;
        in_span("obs.recorder.emit_contended", || {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| emit(&shared, events.len() / threads));
                }
            });
        });

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let n_tasks = specs.len() as f64;
        let n_events = events.len() as f64;
        let stages = total("pipeline.feature_stage") + total("pipeline.inference_stage");
        let (engine_s, sim_s, sim_traced_s) = (
            total("inference.predict_target"),
            total("dataflow.sim"),
            total("dataflow.sim.traced"),
        );
        m.set(
            "inference.statistical.us_per_target",
            engine_s * 1e6 / n as f64,
        );
        m.set("inference.recycles_mean", recycles as f64 / n_tasks);
        m.set(
            "inference.oom_share",
            plain.inference.failures.len() as f64 / n as f64,
        );
        m.set("dataflow.sim.us_per_task", sim_s * 1e6 / n_tasks);
        m.set(
            "dataflow.sim.traced_us_per_task",
            sim_traced_s * 1e6 / n_tasks,
        );
        m.set(
            "dataflow.sim.model_utilization",
            plain.inference.sim.utilization(),
        );
        m.set(
            "dataflow.sim.model_idle_tail_s",
            plain.inference.sim.idle_tail(),
        );
        m.set(
            "dataflow.sim.quarantine_share",
            plain.inference.sim.quarantine_makespan / plain.inference.sim.makespan,
        );
        m.set(
            "obs.recorder.emit_ns_per_event",
            total("obs.recorder.emit") * 1e9 / n_events,
        );
        m.set(
            "obs.recorder.emit_contended_ns_per_event",
            total("obs.recorder.emit_contended") * 1e9 / n_events,
        );
        m.set("obs.recorder.events", n_events);
        m.set("obs.sink.ring_drop_share", ring.dropped() as f64 / n_events);
        m.set(
            "obs.trace.to_jsonl_ns_per_event",
            total("obs.trace.to_jsonl") * 1e9 / n_events,
        );
        m.set(
            "pipeline.feature_stage.us_per_target",
            total("pipeline.feature_stage") * 1e6 / n as f64,
        );
        m.set(
            "pipeline.inference_stage.us_per_target",
            total("pipeline.inference_stage") * 1e6 / n as f64,
        );
        m.set(
            "pipeline.stage_self_share",
            ((stages - engine_s - sim_traced_s) / stages).max(0.0),
        );
        m.set("pipeline.model_node_hours", plain.node_hours);

        m.layer_time("inference", engine_s);
        m.layer_time("dataflow", sim_s);
        m.layer_time("obs", sim_traced_s - sim_s + total("obs.trace.to_jsonl"));
        m.layer_time("pipeline", stages - engine_s - sim_traced_s);
        check
    }
}
