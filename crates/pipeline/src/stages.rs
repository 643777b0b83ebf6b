//! The three pipeline stages as composable units. Each stage consumes the
//! previous stage's outputs, produces a typed report, and charges the
//! node-hour ledger.
//!
//! Every stage is a [`Stage`] implementation on its own `Config` type —
//! the config *is* the stage — with one uniform entry point:
//! `cfg.run(input, ctx)`. The [`StageCtx`] is built with
//! [`StageCtx::for_ledger`] and optionally extended with a telemetry
//! recorder and a content-addressed result store:
//!
//! ```
//! use summitfold_hpc::Ledger;
//! use summitfold_pipeline::stages::StageCtx;
//!
//! let mut ledger = Ledger::new();
//! let ctx = StageCtx::for_ledger(&mut ledger); // untraced, uncached
//! # let _ = ctx;
//! ```
//!
//! When a store is attached (`.store(&store)`), each stage consults it
//! per target before computing: exact content hits skip the work
//! entirely, the feature stage additionally reuses near-duplicate MSA
//! neighborhoods at a recorded quality discount, and misses are computed
//! then written back. With no store attached the stages behave — and
//! trace — exactly as before.
//!
//! Corruption is handled below this layer: a stored entry whose seal no
//! longer verifies at lookup is quarantined by the store (`cache/corrupt`,
//! moved to `corrupt/`) and surfaces here as an ordinary miss, so the
//! stage recomputes and refiles it with quality numbers bit-identical to
//! a clean run (pinned in `tests/store.rs`).

use crate::artifacts;
use summitfold_dataflow::exec::BatchOutcome;
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{Batch, OrderingPolicy, TaskSpec};
use summitfold_hpc::fs::ReplicaLayout;
use summitfold_hpc::machine::Machine;
use summitfold_hpc::Ledger;
use summitfold_inference::engine::{InferenceEngine, InferenceError, TargetResult};
use summitfold_inference::{Fidelity, Preset};
use summitfold_msa::db::DbSet;
use summitfold_msa::features::{feature_gen_node_seconds, FeatureSet};
use summitfold_obs::Recorder;
use summitfold_protein::proteome::ProteinEntry;
use summitfold_protein::structure::Structure;
use summitfold_relax::protocol::{relax_traced, Protocol, RelaxOutcome};
use summitfold_relax::timing::{wall_seconds, Method};
use summitfold_store::{Artifact, CacheSummary, Store, StoreKey};

/// Per-task dispatch overhead on the Summit dataflow deployments
/// (scheduler hop, container start, model/weight loading) — calibrated so
/// the `super` benchmark run carries ≈ 16 % overhead (§4.2).
pub const TASK_OVERHEAD_S: f64 = 30.0;

/// Dask workers per Summit node: one per GPU.
pub const WORKERS_PER_NODE: u32 = 6;

/// Everything a stage needs besides its inputs: the node-hour ledger it
/// charges, the telemetry recorder it emits spans into, and (optionally)
/// the content-addressed result store it consults before computing.
///
/// Built with [`StageCtx::for_ledger`] plus the fluent extensions; one
/// context per stage call — it borrows the ledger mutably for the
/// duration of the stage:
///
/// ```no_run
/// use summitfold_hpc::Ledger;
/// use summitfold_obs::Recorder;
/// use summitfold_pipeline::stages::StageCtx;
/// use summitfold_store::Store;
///
/// let mut ledger = Ledger::new();
/// let rec = Recorder::virtual_time();
/// let store = Store::open("/tmp/store").unwrap();
/// let ctx = StageCtx::for_ledger(&mut ledger).recorder(&rec).store(&store);
/// # let _ = ctx;
/// ```
pub struct StageCtx<'a> {
    /// Node-hour ledger the stage charges.
    pub ledger: &'a mut Ledger,
    /// Telemetry sink (possibly [`Recorder::disabled`]).
    pub recorder: &'a Recorder,
    /// Result store consulted before computing (`None` = always compute).
    pub store: Option<&'a Store>,
}

impl<'a> StageCtx<'a> {
    /// Start building a context around the ledger to charge: untraced
    /// and uncached until extended.
    #[must_use]
    pub fn for_ledger(ledger: &'a mut Ledger) -> Self {
        Self {
            ledger,
            recorder: Recorder::disabled(),
            store: None,
        }
    }

    /// Record stage spans, batch spans, and per-task events into `rec`.
    #[must_use]
    pub fn recorder(mut self, rec: &'a Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Consult (and fill) the result store instead of recomputing
    /// content that is already cached.
    #[must_use]
    pub fn store(mut self, store: &'a Store) -> Self {
        self.store = Some(store);
        self
    }
}

/// A pipeline stage: one typed transformation from borrowed inputs to a
/// typed report, charging the ledger and recording telemetry through a
/// [`StageCtx`]. Configs implement this trait — the config *is* the
/// stage — so campaigns, the folding service, and the bench harness
/// drive every stage through the same `cfg.run(input, ctx)` shape, and
/// result-store caching wraps any stage uniformly.
pub trait Stage {
    /// Borrowed input consumed by one invocation.
    type Input<'i>;
    /// The stage's typed report.
    type Output;

    /// Stable stage identifier: the span label prefix, the ledger stage
    /// name, and the store-key `stage` component.
    fn id(&self) -> &'static str;

    /// Run the stage over `input`.
    fn run(&self, input: Self::Input<'_>, ctx: StageCtx<'_>) -> Self::Output;
}

pub mod feature {
    //! Stage 1: input feature generation on Andes (§3.2.1).

    use super::*;

    /// Configuration for the feature-generation stage.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Which database set to search.
        pub db_set: DbSet,
        /// Replicas of the database on the shared filesystem.
        pub replicas: u32,
        /// Concurrently running Andes jobs (one node each).
        pub concurrent_jobs: u32,
    }

    impl Config {
        /// The paper's production configuration: reduced databases, 24
        /// replicas, 4 jobs per replica.
        #[must_use]
        pub fn paper_default() -> Self {
            Self {
                db_set: DbSet::Reduced,
                replicas: 24,
                concurrent_jobs: 96,
            }
        }
    }

    /// Stage report.
    #[derive(Debug, Clone)]
    pub struct Report {
        /// Per-target feature sets, parallel to the input entries
        /// (cache-served and computed alike).
        pub features: Vec<FeatureSet>,
        /// Dataflow batch outcome over the *computed* scans (cache hits
        /// never enter the batch).
        pub sim: BatchOutcome<()>,
        /// Andes node-hours charged (contention slowdown included; cache
        /// hits charge nothing).
        pub node_hours: f64,
        /// Wall-clock including replication (seconds).
        pub walltime_s: f64,
        /// One-time replication cost (seconds; 0 when every target was
        /// served from the store).
        pub replication_s: f64,
        /// I/O slowdown factor applied to each scan.
        pub io_slowdown: f64,
        /// Store lookup outcomes (all-miss with no store attached, but
        /// nothing is recorded or written in that case).
        pub cache: CacheSummary,
    }

    impl Stage for Config {
        type Input<'i> = &'i [ProteinEntry];
        type Output = Report;

        fn id(&self) -> &'static str {
            "feature_gen"
        }

        /// Run the stage over a set of targets, recording a
        /// `stage:feature_gen` span, a `feature_gen` batch span with
        /// per-scan task events, plus `feature/io_slowdown` and
        /// `feature/replication_s` gauges when the context is traced. On
        /// a virtual-time recorder the stage span covers exactly the
        /// stage walltime.
        ///
        /// With a store attached, each target is looked up by
        /// `(feature_gen, db_set, sequence letters)` first: exact hits
        /// reuse the stored feature set, near-duplicate hits reuse the
        /// clustered-MSA neighborhood of a ≥ 90 %-identical stored
        /// sequence with richness/Neff scaled down by the recorded
        /// quality discount, and only misses are scanned (and written
        /// back).
        fn run(&self, entries: Self::Input<'_>, ctx: StageCtx<'_>) -> Report {
            let cfg = self;
            let rec = ctx.recorder;
            let span = rec.span_start("stage:feature_gen");
            let t0 = rec.now();
            let layout = ReplicaLayout {
                db_bytes: cfg.db_set.nominal_bytes(),
                replicas: cfg.replicas,
            };
            let slowdown = layout.slowdown(cfg.concurrent_jobs);
            let preset = format!("{:?}", cfg.db_set);

            // Store pass: resolve each target to a cached feature set or
            // mark it for computation. No store: everything computes.
            let mut cache = CacheSummary::default();
            let mut cached: Vec<Option<FeatureSet>> = Vec::with_capacity(entries.len());
            for e in entries {
                let Some(store) = ctx.store else {
                    cached.push(None);
                    continue;
                };
                let letters = e.sequence.to_letters();
                let key = StoreKey::derive("feature_gen", &preset, &letters);
                if let Some(f) = store
                    .get(key, rec)
                    .and_then(|a| artifacts::decode_feature_set(&a.payload))
                {
                    cache.hits += 1;
                    cached.push(Some(FeatureSet {
                        target_id: e.sequence.id.clone(),
                        ..f
                    }));
                } else if let Some((near, f)) = store
                    .near_lookup("feature_gen", &preset, &e.sequence, rec)
                    .and_then(|(near, a)| {
                        artifacts::decode_feature_set(&a.payload).map(|f| (near, f))
                    })
                {
                    cache.near_hits += 1;
                    // Reuse the neighbor's MSA neighborhood at the
                    // modelled quality discount: the alignment is
                    // (1-identity)-noisier, so the effective richness
                    // and Neff shrink accordingly.
                    cached.push(Some(FeatureSet {
                        target_id: e.sequence.id.clone(),
                        length: e.sequence.len(),
                        richness: f.richness * (1.0 - near.discount),
                        neff: f.neff * (1.0 - near.discount),
                        coverage: f.coverage,
                        has_templates: f.has_templates,
                    }));
                } else {
                    cache.misses += 1;
                    cached.push(None);
                }
            }
            let missed: Vec<usize> = cached
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_none())
                .map(|(i, _)| i)
                .collect();
            let features: Vec<FeatureSet> = entries
                .iter()
                .zip(cached)
                .map(|(e, c)| c.unwrap_or_else(|| FeatureSet::synthetic(e)))
                .collect();

            let specs: Vec<TaskSpec> = missed
                .iter()
                .map(|&i| {
                    let e = &entries[i];
                    TaskSpec::new(e.sequence.id.clone(), e.sequence.len() as f64)
                })
                .collect();
            let durations: Vec<f64> = missed
                .iter()
                .map(|&i| {
                    feature_gen_node_seconds(entries[i].sequence.len(), cfg.db_set.nominal_bytes())
                        * slowdown
                })
                .collect();

            // Databases replicate only when something will actually be
            // scanned; a fully cache-served stage never touches them.
            let replication_s = if ctx.store.is_some() && missed.is_empty() {
                0.0
            } else {
                layout.replication_seconds()
            };
            rec.advance_clock_to(t0 + replication_s);
            let sim = Batch::new(&specs)
                .workers(cfg.concurrent_jobs.max(1) as usize)
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .recorder(rec)
                .label("feature_gen")
                .run(&VirtualExecutor::new(0.0))
                // sfcheck::allow(panic-hygiene, workers >= 1 and specs/durations are built pairwise above)
                .expect("feature batch is well-formed");

            // Computed feature sets flow back into the store; a write
            // failure only costs future hits, never the stage.
            if let Some(store) = ctx.store {
                for &i in &missed {
                    let letters = entries[i].sequence.to_letters();
                    let artifact = Artifact::new(
                        "feature_gen",
                        &preset,
                        &letters,
                        artifacts::encode_feature_set(&features[i]),
                    );
                    let _ = store.put(&artifact, rec);
                }
            }

            let node_s: f64 = durations.iter().sum();
            let walltime_s = replication_s + sim.makespan;
            ctx.ledger.charge(Machine::Andes, "feature_gen", node_s);
            if rec.is_enabled() {
                rec.gauge("feature/io_slowdown", slowdown);
                rec.gauge("feature/replication_s", replication_s);
            }
            rec.advance_clock_to(t0 + walltime_s);
            rec.span_end(span);
            Report {
                features,
                node_hours: node_s / 3600.0,
                walltime_s,
                replication_s,
                io_slowdown: slowdown,
                sim,
                cache,
            }
        }
    }
}

pub mod inference {
    //! Stage 2: DL inference on Summit via the dataflow engine (§3.3).

    use super::*;

    /// High-memory Summit nodes backing the quarantine rerun lane.
    const HIGHMEM_NODES: u32 = 1;

    /// Configuration for the inference stage.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Inference preset.
        pub preset: Preset,
        /// Engine fidelity.
        pub fidelity: Fidelity,
        /// Summit nodes in the batch allocation.
        pub nodes: u32,
        /// Task ordering (the paper sorts longest-first, §3.3 step 3c).
        pub policy: OrderingPolicy,
        /// Retry OOM targets on high-memory nodes (§3.3): their tasks
        /// carry OOM-shaped faults and complete in the quarantine lane.
        pub rescue_on_high_mem: bool,
        /// Emit `monitor/...` live-health gauges every N completed tasks
        /// (`None` disables progress telemetry).
        pub progress_every: Option<usize>,
    }

    impl Config {
        /// Benchmark configuration of Table 1 (32 nodes, longest-first).
        #[must_use]
        pub fn benchmark(preset: Preset) -> Self {
            let nodes = if preset == Preset::Casp14 { 91 } else { 32 };
            Self {
                preset,
                fidelity: Fidelity::Statistical,
                nodes,
                policy: OrderingPolicy::LongestFirst,
                rescue_on_high_mem: false,
                progress_every: None,
            }
        }
    }

    /// The stage's borrowed input: targets plus their (parallel)
    /// feature sets from stage 1.
    #[derive(Debug, Clone, Copy)]
    pub struct Input<'i> {
        /// Targets to predict.
        pub entries: &'i [ProteinEntry],
        /// Feature sets, parallel to `entries`.
        pub features: &'i [FeatureSet],
    }

    /// An OOM failure record.
    #[derive(Debug, Clone)]
    pub struct Failure {
        /// Index into the input entries.
        pub entry_index: usize,
        /// The error.
        pub error: InferenceError,
        /// Whether a high-memory retry succeeded.
        pub rescued: bool,
    }

    /// Stage report.
    #[derive(Debug, Clone)]
    pub struct Report {
        /// Successful target results (input order, failures skipped).
        pub results: Vec<(usize, TargetResult)>,
        /// OOM failures.
        pub failures: Vec<Failure>,
        /// Dataflow batch outcome over the *computed* predictions
        /// (cache hits never enter the batch).
        pub sim: BatchOutcome<()>,
        /// Wall-clock (seconds) = simulated makespan, quarantine rerun
        /// included.
        pub walltime_s: f64,
        /// Summit node-hours charged (standard + high-memory lanes).
        pub node_hours: f64,
        /// Fraction of the wall-clock spent on dispatch overhead.
        pub overhead_fraction: f64,
        /// Store lookup outcomes. Inference caches only under
        /// statistical fidelity; with no store attached (or geometric
        /// fidelity) this stays all-miss and nothing is recorded.
        pub cache: CacheSummary,
    }

    impl Stage for Config {
        type Input<'i> = Input<'i>;
        type Output = Report;

        fn id(&self) -> &'static str {
            "inference"
        }

        /// Run the stage, recording a `stage:inference` span, an
        /// `inference` batch span with per-task events (and an
        /// `inference:quarantine` child span when OOM targets re-ran on
        /// the high-memory lane), per-model recycle/GPU-time telemetry
        /// from the engine, and `inference/oom_failures` /
        /// `inference/oom_rescued` counters.
        ///
        /// With a store attached and statistical fidelity, each target
        /// is looked up by `(inference, preset, letters|feature
        /// fingerprint)` first — so predictions made from different
        /// (e.g. near-hit-discounted) features address different
        /// artifacts — and hits skip the engine and the batch entirely.
        fn run(&self, input: Self::Input<'_>, ctx: StageCtx<'_>) -> Report {
            let cfg = self;
            let Input { entries, features } = input;
            // sfcheck::allow(panic-hygiene, caller contract; features are generated one per entry upstream)
            assert_eq!(entries.len(), features.len(), "entries/features mismatch");
            let rec = ctx.recorder;
            let span = rec.span_start("stage:inference");
            let engine = InferenceEngine::new(cfg.preset, cfg.fidelity);
            let rescue_engine = engine.on_high_mem_nodes();
            // Geometric runs carry full structures; only the statistical
            // path (the production proteome configuration) caches.
            let store = ctx.store.filter(|_| cfg.fidelity == Fidelity::Statistical);
            let preset = format!("{:?}", cfg.preset);

            let mut cache = CacheSummary::default();
            let mut results = Vec::new();
            let mut failures = Vec::new();
            let mut specs: Vec<TaskSpec> = Vec::new();
            let mut durations: Vec<f64> = Vec::new();
            let mut oom: Vec<String> = Vec::new();

            for (i, (entry, feats)) in entries.iter().zip(features).enumerate() {
                let content = artifacts::content_with_fingerprint(
                    &entry.sequence.to_letters(),
                    Some(&artifacts::feature_fingerprint(feats)),
                );
                if let Some(store) = store {
                    let key = StoreKey::derive("inference", &preset, &content);
                    if let Some(result) = store
                        .get(key, rec)
                        .and_then(|a| artifacts::decode_target_result(&a.payload))
                    {
                        cache.hits += 1;
                        results.push((i, result));
                        continue;
                    }
                    cache.misses += 1;
                }
                let cache_result = |result: &TargetResult| {
                    if let Some(store) = store {
                        let artifact = Artifact::new(
                            "inference",
                            &preset,
                            &content,
                            artifacts::encode_target_result(result),
                        );
                        let _ = store.put(&artifact, rec);
                    }
                };
                match engine.predict_target_traced(entry, feats, rec) {
                    Ok(result) => {
                        for p in &result.predictions {
                            specs.push(TaskSpec::new(
                                format!("{}/{}", entry.sequence.id, p.model),
                                entry.sequence.len() as f64,
                            ));
                            durations.push(p.gpu_seconds);
                        }
                        cache_result(&result);
                        results.push((i, result));
                    }
                    Err(error) => {
                        if rec.is_enabled() {
                            rec.add("inference/oom_failures", 1.0);
                        }
                        let rescued = if cfg.rescue_on_high_mem {
                            match rescue_engine.predict_target_traced(entry, feats, rec) {
                                Ok(result) => {
                                    // The target's tasks enter the same batch
                                    // as OOM tasks: each burns one attempt on
                                    // the standard lane and completes in the
                                    // quarantine rerun pass.
                                    for p in &result.predictions {
                                        let id = format!("{}/{}", entry.sequence.id, p.model);
                                        oom.push(id.clone());
                                        specs.push(TaskSpec::new(id, entry.sequence.len() as f64));
                                        durations.push(p.gpu_seconds);
                                    }
                                    cache_result(&result);
                                    results.push((i, result));
                                    if rec.is_enabled() {
                                        rec.add("inference/oom_rescued", 1.0);
                                    }
                                    true
                                }
                                Err(_) => false,
                            }
                        } else {
                            false
                        };
                        failures.push(Failure {
                            entry_index: i,
                            error,
                            rescued,
                        });
                    }
                }
            }

            let workers = (cfg.nodes * WORKERS_PER_NODE) as usize;
            let mut batch = Batch::new(&specs)
                .workers(workers)
                .policy(cfg.policy)
                .durations(&durations)
                .oom(&oom)
                .recorder(rec)
                .label("inference");
            if cfg.rescue_on_high_mem {
                batch = batch.quarantine((HIGHMEM_NODES * WORKERS_PER_NODE) as usize);
            }
            if let Some(every) = cfg.progress_every {
                batch = batch.progress(every);
            }
            let sim = batch
                .run(&VirtualExecutor::new(TASK_OVERHEAD_S))
                // sfcheck::allow(panic-hygiene, cfg.nodes >= 1 and specs/durations are built pairwise above)
                .expect("inference batch is well-formed");
            let walltime_s = sim.makespan;
            let quarantine_s = sim.quarantine_makespan;
            // Dispatch overhead as a share of the delivered node time — the
            // quantity Table 1's footnote reports ("includes overhead, which
            // is about 16% of the total time in the super preset run").
            let overhead_fraction = if walltime_s > 0.0 {
                specs.len() as f64 * TASK_OVERHEAD_S / (walltime_s * workers as f64)
            } else {
                0.0
            };
            // The standard allocation drains before the quarantine lane
            // starts, so its charge stops there; the rerun tail bills the
            // small high-memory allocation instead.
            ctx.ledger.charge_job(
                Machine::Summit,
                "inference",
                cfg.nodes,
                walltime_s - quarantine_s,
            );
            if quarantine_s > 0.0 {
                ctx.ledger.charge_job(
                    Machine::Summit,
                    "inference_highmem",
                    HIGHMEM_NODES,
                    quarantine_s,
                );
            }
            let node_hours = (f64::from(cfg.nodes) * (walltime_s - quarantine_s)
                + f64::from(HIGHMEM_NODES) * quarantine_s)
                / 3600.0;
            rec.span_end(span);
            Report {
                results,
                failures,
                sim,
                walltime_s,
                node_hours,
                overhead_fraction,
                cache,
            }
        }
    }
}

pub mod relax_stage {
    //! Stage 3: geometry optimization on Summit via the dataflow engine
    //! (§3.4).

    use super::*;

    /// Configuration for the relaxation stage.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Relaxation protocol (the paper: single pass).
        pub protocol: Protocol,
        /// Platform/method for timing.
        pub method: Method,
        /// Summit nodes (6 workers each) — or Andes/Phoenix nodes for the
        /// CPU methods (1 worker per node).
        pub nodes: u32,
    }

    impl Config {
        /// §4.5's production run: 8 Summit nodes × 6 workers.
        #[must_use]
        pub fn paper_default() -> Self {
            Self {
                protocol: Protocol::OptimizedSinglePass,
                method: Method::OptimizedGpuSummit,
                nodes: 8,
            }
        }

        fn workers(&self) -> usize {
            match self.method {
                Method::OptimizedGpuSummit => (self.nodes * WORKERS_PER_NODE) as usize,
                _ => self.nodes as usize,
            }
        }

        fn machine(&self) -> Machine {
            match self.method {
                Method::OptimizedGpuSummit => Machine::Summit,
                Method::OptimizedCpuAndes => Machine::Andes,
                Method::Af2Cpu => Machine::Phoenix,
            }
        }
    }

    /// Stage report.
    #[derive(Debug, Clone)]
    pub struct Report {
        /// Per-structure relaxation outcomes (input order, cache-served
        /// and computed alike).
        pub outcomes: Vec<RelaxOutcome>,
        /// Per-structure wall seconds on the configured platform (0 for
        /// cache-served structures).
        pub task_seconds: Vec<f64>,
        /// Dataflow batch outcome over the *computed* relaxations.
        pub sim: BatchOutcome<()>,
        /// Batch wall-clock (seconds).
        pub walltime_s: f64,
        /// Node-hours charged.
        pub node_hours: f64,
        /// Store lookup outcomes (all-miss with no store attached).
        pub cache: CacheSummary,
    }

    impl Stage for Config {
        type Input<'i> = &'i [Structure];
        type Output = Report;

        fn id(&self) -> &'static str {
            "relaxation"
        }

        /// Run the stage over unrelaxed structures, recording a
        /// `stage:relaxation` span, a `relaxation` batch span with
        /// per-task events, and the per-structure protocol telemetry
        /// from [`relax_traced`] (iterations, rounds, checks).
        ///
        /// With a store attached, each structure is looked up by
        /// `(relaxation, protocol, letters|geometry fingerprint)` — the
        /// fingerprint covers coordinates and pLDDT, so a re-predicted
        /// structure with moved atoms misses — and hits skip both the
        /// minimizer and the batch.
        fn run(&self, structures: Self::Input<'_>, ctx: StageCtx<'_>) -> Report {
            let cfg = self;
            let rec = ctx.recorder;
            let span = rec.span_start("stage:relaxation");
            let preset = format!("{:?}", cfg.protocol);
            let mut cache = CacheSummary::default();
            let mut computed: Vec<bool> = Vec::with_capacity(structures.len());
            let outcomes: Vec<RelaxOutcome> = structures
                .iter()
                .map(|s| {
                    let content = ctx.store.map(|_| {
                        artifacts::content_with_fingerprint(
                            &s.residues.iter().map(|aa| aa.code()).collect::<String>(),
                            Some(&artifacts::structure_fingerprint(s)),
                        )
                    });
                    if let (Some(store), Some(content)) = (ctx.store, &content) {
                        let key = StoreKey::derive("relaxation", &preset, content);
                        if let Some(o) = store
                            .get(key, rec)
                            .and_then(|a| artifacts::decode_relax_outcome(&a.payload))
                        {
                            cache.hits += 1;
                            computed.push(false);
                            return o;
                        }
                        cache.misses += 1;
                    }
                    let o = relax_traced(s, cfg.protocol, rec);
                    if let (Some(store), Some(content)) = (ctx.store, &content) {
                        let artifact = Artifact::new(
                            "relaxation",
                            &preset,
                            content,
                            artifacts::encode_relax_outcome(&o),
                        );
                        let _ = store.put(&artifact, rec);
                    }
                    computed.push(true);
                    o
                })
                .collect();
            let task_seconds: Vec<f64> = outcomes
                .iter()
                .zip(structures)
                .zip(&computed)
                .map(|((o, s), &ran)| {
                    if ran {
                        wall_seconds(o, s.heavy_atoms(), cfg.method)
                    } else {
                        0.0
                    }
                })
                .collect();
            let specs: Vec<TaskSpec> = structures
                .iter()
                .zip(&computed)
                .filter(|(_, &ran)| ran)
                .map(|(s, _)| TaskSpec::new(s.id.clone(), s.len() as f64))
                .collect();
            let durations: Vec<f64> = task_seconds
                .iter()
                .zip(&computed)
                .filter(|(_, &ran)| ran)
                .map(|(&d, _)| d)
                .collect();
            let sim = Batch::new(&specs)
                .workers(cfg.workers())
                .policy(OrderingPolicy::LongestFirst)
                .durations(&durations)
                .recorder(rec)
                .label("relaxation")
                // Relaxation dispatch is light: no model loading.
                .run(&VirtualExecutor::new(2.0))
                // sfcheck::allow(panic-hygiene, cfg.workers() >= 1 and specs/durations are built pairwise above)
                .expect("relaxation batch is well-formed");
            let walltime_s = sim.makespan;
            ctx.ledger
                .charge_job(cfg.machine(), "relaxation", cfg.nodes, walltime_s);
            rec.span_end(span);
            Report {
                outcomes,
                task_seconds,
                sim,
                walltime_s,
                node_hours: f64::from(cfg.nodes) * walltime_s / 3600.0,
                cache,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_protein::proteome::{Proteome, Species};

    fn sample_entries(scale: f64) -> Vec<ProteinEntry> {
        Proteome::generate_scaled(Species::DVulgaris, scale).proteins
    }

    fn scratch_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "summitfold-stages-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("scratch store opens");
        (dir, store)
    }

    #[test]
    fn feature_stage_charges_andes() {
        let entries = sample_entries(0.01);
        let mut ledger = Ledger::new();
        let report =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger));
        assert_eq!(report.features.len(), entries.len());
        assert_eq!(report.sim.records.len(), entries.len());
        assert!(report.node_hours > 0.0);
        assert!(ledger.node_hours(Machine::Andes) > 0.0);
        assert_eq!(ledger.node_hours(Machine::Summit), 0.0);
        assert!(report.io_slowdown >= 1.0);
        assert_eq!(report.cache, CacheSummary::default(), "no store, no cache");
    }

    #[test]
    fn full_db_costs_more_nodehours_than_reduced() {
        let entries = sample_entries(0.01);
        let mut l1 = Ledger::new();
        let mut l2 = Ledger::new();
        let reduced = feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut l1));
        let full = feature::Config {
            db_set: DbSet::Full,
            ..feature::Config::paper_default()
        }
        .run(&entries, StageCtx::for_ledger(&mut l2));
        assert!(full.node_hours > reduced.node_hours * 1.5);
    }

    #[test]
    fn inference_stage_produces_results_and_charges_summit() {
        let entries = sample_entries(0.01);
        let mut ledger = Ledger::new();
        let features =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger));
        let report = inference::Config::benchmark(Preset::Genome).run(
            inference::Input {
                entries: &entries,
                features: &features.features,
            },
            StageCtx::for_ledger(&mut ledger),
        );
        assert_eq!(report.results.len() + report.failures.len(), entries.len());
        assert!(report.walltime_s > 0.0);
        assert!(ledger.node_hours(Machine::Summit) > 0.0);
        // 5 models per successful target.
        for (_, r) in &report.results {
            assert_eq!(r.predictions.len(), 5);
        }
    }

    #[test]
    fn casp14_fails_long_targets_and_high_mem_rescues() {
        let entries = sample_entries(0.25); // enough for some long tails
        let mut ledger = Ledger::new();
        let features =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger));
        let cfg = inference::Config::benchmark(Preset::Casp14);
        let input = inference::Input {
            entries: &entries,
            features: &features.features,
        };
        let report = cfg.run(input, StageCtx::for_ledger(&mut ledger));
        // If any target is long enough, it fails; rescue turned off here.
        for f in &report.failures {
            assert!(!f.rescued);
            assert!(
                entries[f.entry_index].sequence.len() > 700,
                "only the longest sequences OOM"
            );
        }
        assert_eq!(report.sim.quarantined, 0, "no quarantine without rescue");

        // With rescue, everything completes — via the quarantine lane.
        let cfg = inference::Config {
            rescue_on_high_mem: true,
            ..cfg
        };
        let mut ledger2 = Ledger::new();
        let report2 = cfg.run(input, StageCtx::for_ledger(&mut ledger2));
        assert_eq!(
            report2.results.len(),
            entries.len(),
            "high-mem rescue must recover all targets"
        );
        if !report2.failures.is_empty() {
            // 5 prediction tasks per rescued target complete in quarantine.
            assert_eq!(report2.sim.quarantined, report2.failures.len() * 5);
            assert!(report2.sim.quarantine_makespan > 0.0);
            let highmem = ledger2
                .by_stage()
                .get(&("Summit".to_owned(), "inference_highmem".to_owned()))
                .copied()
                .unwrap_or(0.0);
            assert!(highmem > 0.0, "quarantine lane charges its own job");
            // Quarantined tasks carry the burned standard attempt.
            let reran = report2
                .sim
                .records
                .iter()
                .filter(|r| r.attempts == 2)
                .count();
            assert_eq!(reran, report2.sim.quarantined);
        }
    }

    #[test]
    fn relax_stage_runs_on_geometric_predictions() {
        use summitfold_inference::engine::InferenceEngine;
        let entries = sample_entries(0.005);
        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
        let structures: Vec<Structure> = entries
            .iter()
            .map(|e| {
                let f = FeatureSet::synthetic(e);
                engine
                    .predict(e, &f, summitfold_inference::ModelId(1))
                    .unwrap()
                    .structure
                    .unwrap()
            })
            .collect();
        let mut ledger = Ledger::new();
        let report = relax_stage::Config::paper_default()
            .run(&structures, StageCtx::for_ledger(&mut ledger));
        assert_eq!(report.outcomes.len(), structures.len());
        for o in &report.outcomes {
            assert_eq!(o.final_violations.clashes, 0, "clashes removed");
        }
        assert!(report.walltime_s > 0.0);
        assert!(ledger.node_hours(Machine::Summit) > 0.0);
    }

    #[test]
    fn traced_stages_compose_into_one_trace() {
        use summitfold_obs::Trace;
        let entries = sample_entries(0.01);
        let mut ledger = Ledger::new();
        let rec = Recorder::virtual_time();
        let feats = feature::Config::paper_default()
            .run(&entries, StageCtx::for_ledger(&mut ledger).recorder(&rec));
        let inf = inference::Config::benchmark(Preset::Genome).run(
            inference::Input {
                entries: &entries,
                features: &feats.features,
            },
            StageCtx::for_ledger(&mut ledger).recorder(&rec),
        );
        let trace = Trace::from_events(rec.events());
        let spans = trace.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "stage:feature_gen",
                "feature_gen",
                "stage:inference",
                "inference"
            ]
        );
        // Each batch span is nested under its stage span.
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[3].parent, Some(spans[2].id));
        // Virtual time: each stage span's duration is the stage walltime.
        assert!((spans[0].end - spans[0].start - feats.walltime_s).abs() < 1e-9);
        assert!((spans[3].end - spans[3].start - inf.walltime_s).abs() < 1e-9);
        // Stages run back to back on the shared clock.
        assert!((spans[2].start - feats.walltime_s).abs() < 1e-9);
        // One task event per feature scan plus one per simulated
        // prediction, matching the records.
        assert_eq!(
            trace.tasks().len(),
            feats.sim.records.len() + inf.sim.records.len()
        );
        // Engine telemetry rode along: 5 recycle observations per target.
        assert_eq!(
            trace.histograms()["inference/recycles"].count,
            inf.results.len() * 5
        );
        // The same stages run with a disabled recorder produce nothing
        // and the identical report.
        let mut ledger2 = Ledger::new();
        let quiet =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger2));
        assert_eq!(quiet.walltime_s, feats.walltime_s);
    }

    #[test]
    fn inference_overhead_fraction_is_sane() {
        let entries = sample_entries(0.02);
        let mut ledger = Ledger::new();
        let features =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger));
        let report = inference::Config::benchmark(Preset::Super).run(
            inference::Input {
                entries: &entries,
                features: &features.features,
            },
            StageCtx::for_ledger(&mut ledger),
        );
        assert!(
            report.overhead_fraction > 0.005 && report.overhead_fraction < 0.6,
            "overhead {}",
            report.overhead_fraction
        );
    }

    #[test]
    fn warm_feature_rerun_hits_everything_and_charges_nothing() {
        let entries = sample_entries(0.02);
        let cfg = feature::Config::paper_default();
        let (dir, store) = scratch_store("feature-warm");

        let mut cold_ledger = Ledger::new();
        let cold = cfg.run(
            &entries,
            StageCtx::for_ledger(&mut cold_ledger).store(&store),
        );
        assert_eq!(cold.cache.misses, entries.len(), "cold store: all misses");
        assert!(cold.node_hours > 0.0);

        let mut warm_ledger = Ledger::new();
        let warm = cfg.run(
            &entries,
            StageCtx::for_ledger(&mut warm_ledger).store(&store),
        );
        assert_eq!(warm.cache.hits, entries.len(), "warm store: all hits");
        assert!(warm.cache.all_hit());
        assert_eq!(warm.node_hours, 0.0, "hits charge nothing");
        assert_eq!(warm.replication_s, 0.0, "no scan, no replication");
        assert!(warm.walltime_s < cold.walltime_s);
        assert_eq!(ledger_total(&warm_ledger), 0.0);
        // Cached features are bit-identical to the computed ones.
        for (w, c) in warm.features.iter().zip(&cold.features) {
            assert_eq!(w.target_id, c.target_id);
            assert_eq!(w.richness.to_bits(), c.richness.to_bits());
            assert_eq!(w.neff.to_bits(), c.neff.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn ledger_total(l: &Ledger) -> f64 {
        l.node_hours(Machine::Andes)
            + l.node_hours(Machine::Summit)
            + l.node_hours(Machine::Phoenix)
    }

    #[test]
    fn near_duplicate_target_reuses_features_at_a_discount() {
        use summitfold_protein::rng::Xoshiro256;
        use summitfold_protein::seq::Sequence;
        let mut rng = Xoshiro256::seed_from_u64(42);
        let base = Sequence::random("base", 180, &mut rng);
        let near = base.mutated("near", 0.02, &mut rng);
        let mk = |s: &Sequence| ProteinEntry {
            sequence: s.clone(),
            hypothetical: false,
            origin: summitfold_protein::proteome::Origin::Orphan,
            msa_richness: 0.6,
        };
        let cfg = feature::Config::paper_default();
        let (dir, store) = scratch_store("feature-near");

        let mut l1 = Ledger::new();
        let cold = cfg.run(
            std::slice::from_ref(&mk(&base)),
            StageCtx::for_ledger(&mut l1).store(&store),
        );
        let mut l2 = Ledger::new();
        let rerun = cfg.run(
            std::slice::from_ref(&mk(&near)),
            StageCtx::for_ledger(&mut l2).store(&store),
        );
        assert_eq!(rerun.cache.near_hits, 1, "98%-identical target near-hits");
        assert_eq!(rerun.node_hours, 0.0, "near hit skips the scan");
        let f = &rerun.features[0];
        assert_eq!(f.target_id, "near");
        assert!(
            f.richness < cold.features[0].richness,
            "reused MSA carries a quality discount"
        );
        assert!(f.richness > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_inference_rerun_hits_and_matches_cold_results() {
        let entries = sample_entries(0.01);
        let mut ledger = Ledger::new();
        let features =
            feature::Config::paper_default().run(&entries, StageCtx::for_ledger(&mut ledger));
        let cfg = inference::Config::benchmark(Preset::Genome);
        let input = inference::Input {
            entries: &entries,
            features: &features.features,
        };
        let (dir, store) = scratch_store("inference-warm");

        let mut l1 = Ledger::new();
        let cold = cfg.run(input, StageCtx::for_ledger(&mut l1).store(&store));
        assert_eq!(cold.cache.misses, cold.results.len() + cold.failures.len());

        let mut l2 = Ledger::new();
        let warm = cfg.run(input, StageCtx::for_ledger(&mut l2).store(&store));
        assert!(warm.cache.all_hit(), "warm rerun must be all hits");
        assert_eq!(warm.results.len(), cold.results.len());
        assert_eq!(warm.node_hours, 0.0);
        assert!(warm.walltime_s < cold.walltime_s);
        for ((wi, w), (ci, c)) in warm.results.iter().zip(&cold.results) {
            assert_eq!(wi, ci);
            assert_eq!(w.top_index, c.top_index);
            assert_eq!(
                w.top().ptms.to_bits(),
                c.top().ptms.to_bits(),
                "cached predictions are bit-identical"
            );
        }

        // Changed features (a different fingerprint) must miss.
        let mut bumped = features.features.clone();
        for f in &mut bumped {
            f.richness = (f.richness * 0.5).max(0.01);
        }
        let mut l3 = Ledger::new();
        let changed = cfg.run(
            inference::Input {
                entries: &entries,
                features: &bumped,
            },
            StageCtx::for_ledger(&mut l3).store(&store),
        );
        assert_eq!(
            changed.cache.hits, 0,
            "different features address different artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_relax_rerun_hits_and_matches_cold_outcomes() {
        use summitfold_inference::engine::InferenceEngine;
        let entries = sample_entries(0.005);
        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
        let structures: Vec<Structure> = entries
            .iter()
            .map(|e| {
                let f = FeatureSet::synthetic(e);
                engine
                    .predict(e, &f, summitfold_inference::ModelId(1))
                    .unwrap()
                    .structure
                    .unwrap()
            })
            .collect();
        let cfg = relax_stage::Config::paper_default();
        let (dir, store) = scratch_store("relax-warm");

        let mut l1 = Ledger::new();
        let cold = cfg.run(&structures, StageCtx::for_ledger(&mut l1).store(&store));
        assert_eq!(cold.cache.misses, structures.len());

        let mut l2 = Ledger::new();
        let warm = cfg.run(&structures, StageCtx::for_ledger(&mut l2).store(&store));
        assert!(warm.cache.all_hit());
        assert_eq!(warm.node_hours, 0.0);
        assert!(warm.walltime_s < cold.walltime_s);
        for (w, c) in warm.outcomes.iter().zip(&cold.outcomes) {
            assert_eq!(w.structure, c.structure, "cached structure bit-identical");
            assert_eq!(w.total_iterations, c.total_iterations);
            assert_eq!(w.energy_final.to_bits(), c.energy_final.to_bits());
        }

        // Perturbed coordinates miss (geometry is in the key).
        let mut moved = structures.clone();
        moved[0].ca[0].x += 0.25;
        let mut l3 = Ledger::new();
        let re = cfg.run(&moved, StageCtx::for_ledger(&mut l3).store(&store));
        assert_eq!(re.cache.misses, 1);
        assert_eq!(re.cache.hits, structures.len() - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
