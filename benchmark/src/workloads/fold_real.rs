//! `fold_real` — the only workload where real kernels run on real
//! threads.
//!
//! Seeded *D. vulgaris* targets go through `Batch::run_with` on the
//! `ThreadExecutor` (2 workers, longest first, checkpoint journal
//! attached). One task is the whole per-target chain: `msa::search` over
//! a `SyntheticDb` → `FeatureSet::from_msa` → geometric
//! `predict_target` → single-pass `relax` of the top model → `tm_score`
//! against the true fold. `store`, `obs` and `hpc` do nothing here.

use super::{stratified_pick, Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use summitfold_dataflow::real::ThreadExecutor;
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{Batch, BatchOutcome, Journal, JournalEntry, OrderingPolicy, TaskSpec};
use summitfold_inference::{Fidelity, InferenceEngine, Preset};
use summitfold_msa::db::{DbKind, DbParams, DbSet, SyntheticDb};
use summitfold_msa::features::feature_gen_node_seconds;
use summitfold_msa::kmer::KmerIndex;
use summitfold_msa::msa::{search, SearchParams};
use summitfold_msa::sw::smith_waterman;
use summitfold_msa::FeatureSet;
use summitfold_pipeline::stages::TASK_OVERHEAD_S;
use summitfold_protein::proteome::{Origin, ProteinEntry, Proteome, Species};
use summitfold_protein::rng::{fnv1a, Xoshiro256};
use summitfold_relax::protocol::{relax, Protocol};
use summitfold_relax::timing::{wall_seconds, Method};
use summitfold_structal::tm::tm_score;

/// Worker threads of the timed batch: this machine's `nproc`.
pub const WORKERS: usize = 2;

/// MSA-richness band of the target pool. Richness sets how many homologs
/// the database plants per target and how many recycles inference needs;
/// the band holds the middle half of the proteome, so no seed
/// draws a batch of all-shallow or all-deep alignments.
const MSA_RICHNESS: (f64, f64) = (0.55, 0.8);

/// The workload marker type.
pub struct FoldReal;

/// Inputs of one run.
pub struct Inputs {
    targets: Vec<ProteinEntry>,
    specs: Vec<TaskSpec>,
    db: SyntheticDb,
    index: KmerIndex,
    params: SearchParams,
    engine: InferenceEngine,
    size: Size,
}

/// What one target's chain produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// MSA rows kept by the search.
    pub msa_rows: usize,
    /// Clashes left in the relaxed top model.
    pub clashes: usize,
    /// TM-score of the relaxed top model against the true fold.
    pub tm: f64,
    /// Seconds the paper's machines would have spent on this target
    /// (feature generation + five model runs + relaxation).
    pub model_seconds: f64,
    /// FNV-1a over every numeric output bit, for bit-equality checks.
    pub fingerprint: u64,
}

/// One target's whole chain; span-instrumented, so the timed run (spans
/// off) and the traced replay (spans on) execute the same code.
fn fold_one(inputs: &Inputs, entry: &ProteinEntry) -> Result<Folded, String> {
    let _task = spans::span("bench.fold_task");
    let msa = in_span("msa.search", || {
        search(
            &entry.sequence,
            &inputs.db.sequences,
            &inputs.index,
            &inputs.params,
        )
    });
    let has_templates = matches!(entry.origin, Origin::FamilyMember { .. });
    let features = in_span("msa.features", || FeatureSet::from_msa(&msa, has_templates));
    let result = in_span("inference.predict_target", || {
        inputs.engine.predict_target(entry, &features)
    })
    .map_err(|e| e.to_string())?;
    let top = result.top();
    let predicted = top
        .structure
        .as_ref()
        .ok_or("geometric fidelity attaches a structure")?;
    let relaxed = in_span("relax.single_pass", || {
        relax(predicted, Protocol::OptimizedSinglePass)
    });
    let native = in_span("protein.true_fold", || entry.true_fold());
    let tm = in_span("structal.tm_score", || {
        tm_score(&relaxed.structure, &native)
    });

    let model_seconds =
        feature_gen_node_seconds(entry.sequence.len(), DbSet::Reduced.nominal_bytes())
            + result.total_gpu_seconds()
            + wall_seconds(
                &relaxed,
                relaxed.structure.heavy_atoms(),
                Method::OptimizedGpuSummit,
            );
    let mut bits: Vec<u8> = Vec::new();
    for x in [
        features.neff,
        features.coverage,
        top.ptms,
        top.plddt_mean,
        tm,
    ] {
        bits.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for p in &relaxed.structure.ca {
        for c in [p.x, p.y, p.z] {
            bits.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    Ok(Folded {
        msa_rows: msa.rows.len(),
        clashes: relaxed.final_violations.clashes,
        tm,
        model_seconds,
        fingerprint: fnv1a(&bits),
    })
}

/// In-band cells one banded alignment computes (from lengths × band, the
/// same window `smith_waterman` applies).
fn band_cells(n: usize, m: usize, band: usize) -> f64 {
    let width = 2 * (band + n.abs_diff(m) / 2) + 1;
    (n * width.min(m)) as f64
}

impl Workload for FoldReal {
    const NAME: &'static str = "fold_real";
    type Inputs = Inputs;
    type Prepared = Journal;
    type Output = (BatchOutcome<Result<Folded, String>>, usize);

    fn setup(seed: u64, size: Size, _scratch: &Scratch) -> Inputs {
        let proteome = Proteome::generate(Species::DVulgaris);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"fold_real"));
        // A length band keeps one task in the 0.1–0.3 s range; within it
        // the seed picks one target per length stratum.
        let pool: Vec<&ProteinEntry> = proteome
            .proteins
            .iter()
            .filter(|e| (150..=350).contains(&e.sequence.len()))
            .filter(|e| (MSA_RICHNESS.0..=MSA_RICHNESS.1).contains(&e.msa_richness))
            .collect();
        let picked = stratified_pick(&pool, |e| e.sequence.len(), size.pick(16, 3), &mut rng);
        let db_params = DbParams {
            background: size.pick(400, 60),
            ..DbParams::default()
        };
        let db = SyntheticDb::for_targets(DbKind::UniRef, &picked, &db_params);
        let index = KmerIndex::build(&db.sequences);
        let targets: Vec<ProteinEntry> = picked.into_iter().cloned().collect();
        let specs = targets
            .iter()
            .map(|e| TaskSpec::new(e.sequence.id.clone(), e.sequence.len() as f64))
            .collect();
        Inputs {
            targets,
            specs,
            db,
            index,
            params: SearchParams::default(),
            engine: InferenceEngine::new(Preset::Genome, Fidelity::Geometric),
            size,
        }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        inputs.targets.len() as u64
    }

    fn prepare(_inputs: &Inputs, _scratch: &Scratch) -> Journal {
        Journal::new()
    }

    fn run(inputs: &Inputs, journal: Journal) -> Self::Output {
        let outcome = Batch::new(&inputs.specs)
            .workers(WORKERS)
            .policy(OrderingPolicy::LongestFirst)
            .journal(&journal)
            .label("fold_real")
            .run_with(&ThreadExecutor, &inputs.targets, |_, e| fold_one(inputs, e))
            .expect("2 workers and one spec per target form a valid batch");
        (outcome, journal.len())
    }

    fn check(inputs: &Inputs, (outcome, journaled): &Self::Output) -> Check {
        let mut check = Check::of(Self::tasks(inputs));
        for (entry, out) in inputs.targets.iter().zip(&outcome.outputs) {
            let id = &entry.sequence.id;
            match out {
                Err(e) => check.fail(1, format!("{id}: {e}")),
                Ok(f) => check.require(f.clashes == 0 && f.tm > 0.0 && f.tm <= 1.0, || {
                    format!("{id}: clashes {} tm {}", f.clashes, f.tm)
                }),
            }
        }
        if *journaled != inputs.targets.len() {
            check.fail(
                1,
                format!(
                    "journal holds {journaled} of {} tasks",
                    inputs.targets.len()
                ),
            );
        }
        check
    }

    fn model_makespan_s(inputs: &Inputs, (outcome, _): &Self::Output) -> f64 {
        let durations: Vec<f64> = outcome
            .outputs
            .iter()
            .map(|o| o.as_ref().map_or(0.0, |f| f.model_seconds))
            .collect();
        // One modelled worker: the makespan is the summed work, not
        // whichever target the seed happened to make the longest.
        Batch::new(&inputs.specs)
            .workers(1)
            .policy(OrderingPolicy::LongestFirst)
            .durations(&durations)
            .run(&VirtualExecutor::new(TASK_OVERHEAD_S))
            .map_or(0.0, |o| o.makespan)
    }

    fn traced(inputs: &Inputs, plain: &Self::Output, _scratch: &Scratch, m: &mut Metrics) -> Check {
        // The workload's own path, single-threaded under spans; its
        // outputs must be bit-equal to the threaded run's.
        let n = inputs.targets.len();
        let serial: Vec<Result<Folded, String>> =
            inputs.targets.iter().map(|e| fold_one(inputs, e)).collect();
        let mut check = Check::of(n as u64);
        for ((entry, a), b) in inputs.targets.iter().zip(&serial).zip(&plain.0.outputs) {
            check.require(a == b, || {
                format!(
                    "{}: threaded output differs from single-threaded",
                    entry.sequence.id
                )
            });
        }

        // Replays of the search's two public halves on the same queries.
        let band = inputs.params.band;
        let (mut alignments, mut cells, mut rows) = (0usize, 0.0f64, 0usize);
        let replay = spans::span("bench.replay");
        for (entry, out) in inputs.targets.iter().zip(&serial) {
            let q = &entry.sequence;
            let cands = in_span("bench.replay.kmer_candidates", || {
                inputs.index.candidates(q, inputs.params.min_kmer_hits)
            });
            in_span("bench.replay.sw", || {
                for &(sid, _) in &cands {
                    let s = &inputs.db.sequences[sid];
                    std::hint::black_box(smith_waterman(q, s, Some(band)));
                    cells += band_cells(q.len(), s.len(), band);
                }
            });
            alignments += cands.len();
            rows += out.as_ref().map_or(0, |f| f.msa_rows);
        }
        in_span("bench.replay.kmer_build", || {
            std::hint::black_box(KmerIndex::build(&inputs.db.sequences));
        });
        drop(replay);

        // Executor overhead with nothing to execute, and journal appends.
        let noop = inputs.size.pick(20_000, 2_000);
        let noop_specs: Vec<TaskSpec> = (0..noop)
            .map(|i| TaskSpec::new(format!("n{i}"), 1.0))
            .collect();
        let items = vec![(); noop];
        in_span("dataflow.real.dispatch", || {
            Batch::new(&noop_specs)
                .workers(WORKERS)
                .run_with(&ThreadExecutor, &items, |_, ()| ())
                .expect("valid no-op batch")
        });
        let journal = Journal::new();
        in_span("dataflow.journal.append", || {
            for (i, spec) in noop_specs.iter().enumerate() {
                journal.record(JournalEntry {
                    task: spec.id.clone(),
                    worker: i % WORKERS,
                    start: i as f64,
                    end: i as f64 + 1.0,
                    attempts: 1,
                });
            }
        });

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let per = |name: &str, scale: f64| total(name) * scale / n as f64;
        m.set("msa.search.ms_per_query", per("msa.search", 1e3));
        m.set(
            "msa.kmer.candidates_us_per_query",
            per("bench.replay.kmer_candidates", 1e6),
        );
        m.set(
            "msa.sw.cells_per_s",
            cells
                / t.get("bench.replay.sw")
                    .map_or(f64::INFINITY, |x| x.total_s),
        );
        m.set("msa.sw.alignments_per_query", alignments as f64 / n as f64);
        m.set(
            "msa.search.prefilter_pass_ratio",
            alignments as f64 / (n * inputs.db.len()) as f64,
        );
        m.set(
            "msa.search.hit_ratio",
            rows as f64 / alignments.max(1) as f64,
        );
        m.set(
            "msa.kmer.index_build_ms",
            t.get("bench.replay.kmer_build")
                .map_or(0.0, |x| x.total_s * 1e3),
        );
        m.set(
            "inference.geometric.ms_per_target",
            per("inference.predict_target", 1e3),
        );
        m.set(
            "relax.single_pass.ms_per_structure",
            per("relax.single_pass", 1e3),
        );
        m.set(
            "structal.tm_score.us_per_pair",
            per("structal.tm_score", 1e6),
        );
        m.set(
            "dataflow.real.dispatch_us_per_task",
            total("dataflow.real.dispatch") * 1e6 / noop as f64,
        );
        m.set("dataflow.real.idle_share", 1.0 - plain.0.utilization());
        m.set(
            "dataflow.journal.append_us_per_record",
            total("dataflow.journal.append") * 1e6 / noop as f64,
        );

        m.layer_time("msa", total("msa.search") + total("msa.features"));
        m.layer_time("inference", total("inference.predict_target"));
        m.layer_time("relax", total("relax.single_pass"));
        m.layer_time("protein", total("protein.true_fold"));
        m.layer_time("structal", total("structal.tm_score"));
        // Lane time of the threaded run in which no task ran: dispatch
        // plus waiting for the slower of the two longest-first lanes.
        let busy: f64 = plain.0.worker_busy.iter().sum();
        m.layer_time("dataflow", plain.0.makespan * WORKERS as f64 - busy);
        check
    }
}
