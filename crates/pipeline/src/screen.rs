//! Interactome screening with AF2Complex (§5, the paper's forward-looking
//! extension): all-vs-all complex prediction over a protein set, with the
//! quadratic cost projection that makes this "especially relevant to HPC
//! computing".

use crate::stages::{Stage, StageCtx};
use summitfold_dataflow::sim::VirtualExecutor;
use summitfold_dataflow::{Batch, OrderingPolicy, TaskSpec};
use summitfold_hpc::machine::Machine;
use summitfold_inference::complex::{ComplexEngine, ComplexTarget};
use summitfold_inference::{Fidelity, ModelId, Preset};
use summitfold_msa::FeatureSet;
use summitfold_obs::json::{parse_object, ObjectWriter};
use summitfold_protein::proteome::ProteinEntry;
use summitfold_protein::stats;
use summitfold_store::{Artifact, CacheSummary, StoreKey};

/// Screening configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScreenConfig {
    /// Inference preset.
    pub preset: Preset,
    /// iScore threshold above which a pair is called an interaction
    /// (AF2Complex screens at ≈ 0.4–0.5).
    pub iscore_cutoff: f64,
    /// Summit nodes for the batch.
    pub nodes: u32,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        Self {
            preset: Preset::Genome,
            iscore_cutoff: 0.45,
            nodes: 100,
        }
    }
}

/// One predicted pair.
#[derive(Debug, Clone)]
pub struct PairCall {
    /// Pair id.
    pub pair_id: String,
    /// Interface score.
    pub iscore: f64,
    /// Whether the synthetic interactome really contains this edge.
    pub truly_interacts: bool,
}

/// Screening report.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Proteins screened.
    pub proteins: usize,
    /// Pairs evaluated (n·(n−1)/2).
    pub pairs: usize,
    /// Pairs skipped because the joint length exceeds even high-memory
    /// nodes (none in practice) or other failures.
    pub skipped: usize,
    /// Calls at the configured cutoff.
    pub calls: Vec<PairCall>,
    /// Recall of true interactions at the cutoff.
    pub recall: f64,
    /// Precision of calls at the cutoff.
    pub precision: f64,
    /// Batch walltime (seconds) on the configured allocation.
    pub walltime_s: f64,
    /// Summit node-hours charged.
    pub node_hours: f64,
    /// Store lookup outcomes over pair predictions (all zeros when no
    /// store is attached).
    pub cache: CacheSummary,
}

/// One cached pair result as a single payload line.
fn encode_pair(p: &PairCall, gpu_seconds: f64) -> Vec<String> {
    let mut w = ObjectWriter::new();
    w.str_field("pair_id", &p.pair_id);
    w.num_field("iscore", p.iscore);
    w.int_field("truly_interacts", u64::from(p.truly_interacts));
    w.num_field("gpu_seconds", gpu_seconds);
    vec![w.finish()]
}

fn decode_pair(payload: &[String]) -> Option<PairCall> {
    let [line] = payload else { return None };
    let obj = parse_object(line).ok()?;
    Some(PairCall {
        pair_id: obj.str("pair_id").ok()?.to_owned(),
        iscore: obj.num("iscore").ok()?,
        truly_interacts: obj.flag("truly_interacts").ok()?,
    })
}

impl Stage for ScreenConfig {
    type Input<'i> = &'i [&'i ProteinEntry];
    type Output = ScreenReport;

    fn id(&self) -> &'static str {
        "complex_screen"
    }

    /// Screen all pairs in a protein set (model 1 per pair, as
    /// AF2Complex's screening mode does; promising pairs would be re-run
    /// with all five), recording a `complex_screen` batch span with
    /// per-pair task events when the context is traced.
    ///
    /// With a store attached, each pair is looked up by
    /// `(complex_screen, preset, letters_a/letters_b)` first; hits skip
    /// the complex engine and the batch.
    fn run(&self, proteins: Self::Input<'_>, ctx: StageCtx<'_>) -> ScreenReport {
        let cfg = self;
        let rec = ctx.recorder;
        let engine = ComplexEngine::new(cfg.preset, Fidelity::Statistical).on_high_mem_nodes();
        let features: Vec<FeatureSet> = proteins.iter().map(|e| FeatureSet::synthetic(e)).collect();
        let preset = format!("{:?}", cfg.preset);

        let mut cache = CacheSummary::default();
        let mut calls = Vec::new();
        let mut specs = Vec::new();
        let mut durations = Vec::new();
        let mut skipped = 0usize;
        for i in 0..proteins.len() {
            for j in i + 1..proteins.len() {
                let target = ComplexTarget {
                    a: proteins[i],
                    b: proteins[j],
                };
                let content = ctx.store.map(|_| {
                    format!(
                        "{}/{}",
                        proteins[i].sequence.to_letters(),
                        proteins[j].sequence.to_letters()
                    )
                });
                if let (Some(store), Some(content)) = (ctx.store, &content) {
                    let key = StoreKey::derive("complex_screen", &preset, content);
                    if let Some(call) = store.get(key, rec).and_then(|a| decode_pair(&a.payload)) {
                        cache.hits += 1;
                        calls.push(call);
                        continue;
                    }
                    cache.misses += 1;
                }
                match engine.predict(&target, &features[i], &features[j], ModelId(1)) {
                    Ok(p) => {
                        specs.push(TaskSpec::new(
                            p.pair_id.clone(),
                            target.joint_length() as f64,
                        ));
                        durations.push(p.gpu_seconds);
                        let call = PairCall {
                            pair_id: p.pair_id,
                            iscore: p.iscore,
                            truly_interacts: target.interacts(),
                        };
                        if let (Some(store), Some(content)) = (ctx.store, &content) {
                            let artifact = Artifact::new(
                                "complex_screen",
                                &preset,
                                content,
                                encode_pair(&call, p.gpu_seconds),
                            );
                            let _ = store.put(&artifact, rec);
                        }
                        calls.push(call);
                    }
                    Err(_) => skipped += 1,
                }
            }
        }

        let workers = (cfg.nodes * crate::stages::WORKERS_PER_NODE) as usize;
        let sim = Batch::new(&specs)
            .workers(workers)
            .policy(OrderingPolicy::LongestFirst)
            .durations(&durations)
            .recorder(rec)
            .label("complex_screen")
            .run(&VirtualExecutor::new(crate::stages::TASK_OVERHEAD_S))
            // sfcheck::allow(panic-hygiene, cfg.nodes >= 1 and specs/durations are built pairwise above)
            .expect("screening batch is well-formed");
        ctx.ledger
            .charge_job(Machine::Summit, "complex_screen", cfg.nodes, sim.makespan);

        let true_edges = calls.iter().filter(|c| c.truly_interacts).count();
        let called: Vec<&PairCall> = calls
            .iter()
            .filter(|c| c.iscore >= cfg.iscore_cutoff)
            .collect();
        let true_called = called.iter().filter(|c| c.truly_interacts).count();
        let recall = if true_edges > 0 {
            true_called as f64 / true_edges as f64
        } else {
            1.0
        };
        let precision = if called.is_empty() {
            1.0
        } else {
            true_called as f64 / called.len() as f64
        };

        ScreenReport {
            proteins: proteins.len(),
            pairs: calls.len() + skipped,
            skipped,
            calls,
            recall,
            precision,
            walltime_s: sim.makespan,
            node_hours: f64::from(cfg.nodes) * sim.makespan / 3600.0,
            cache,
        }
    }
}

/// Project the cost of screening `n` proteins (mean length `mean_len`)
/// without running it: the §5 "quadratic (or higher) order dependence".
#[must_use]
pub fn projected_node_hours(n: usize, mean_len: usize, preset: Preset) -> f64 {
    let pairs = n * n.saturating_sub(1) / 2;
    let per_pair = summitfold_inference::cost::gpu_seconds(2 * mean_len, 4, preset.ensembles())
        + crate::stages::TASK_OVERHEAD_S;
    pairs as f64 * per_pair / f64::from(crate::stages::WORKERS_PER_NODE) / 3600.0
}

/// Mean iScore separation between true and false pairs — a quick quality
/// diagnostic for reports.
#[must_use]
pub fn iscore_separation(calls: &[PairCall]) -> f64 {
    let pos: Vec<f64> = calls
        .iter()
        .filter(|c| c.truly_interacts)
        .map(|c| c.iscore)
        .collect();
    let neg: Vec<f64> = calls
        .iter()
        .filter(|c| !c.truly_interacts)
        .map(|c| c.iscore)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return 0.0;
    }
    stats::mean(&pos) - stats::mean(&neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_hpc::Ledger;
    use summitfold_protein::proteome::{Proteome, Species};

    fn small_set() -> Vec<ProteinEntry> {
        Proteome::generate_scaled(Species::DVulgaris, 0.012)
            .proteins
            .into_iter()
            .filter(|e| e.sequence.len() < 350)
            .take(24)
            .collect()
    }

    #[test]
    fn screen_separates_interactome_edges() {
        let set = small_set();
        let refs: Vec<&ProteinEntry> = set.iter().collect();
        let mut ledger = Ledger::new();
        let report = ScreenConfig::default().run(&refs, StageCtx::for_ledger(&mut ledger));
        assert_eq!(report.pairs, refs.len() * (refs.len() - 1) / 2);
        assert_eq!(report.skipped, 0);
        assert!(report.recall > 0.6, "recall {}", report.recall);
        assert!(report.precision > 0.6, "precision {}", report.precision);
        assert!(iscore_separation(&report.calls) > 0.2);
        assert!(ledger.node_hours(Machine::Summit) > 0.0);
    }

    #[test]
    fn quadratic_cost_projection() {
        let small = projected_node_hours(1_000, 330, Preset::Genome);
        let big = projected_node_hours(10_000, 330, Preset::Genome);
        let ratio = big / small;
        assert!(
            (90.0..110.0).contains(&ratio),
            "quadratic scaling, got {ratio}"
        );
        // Screening even a small proteome dwarfs predicting it: the §5
        // "relevant to HPC" point.
        assert!(small > 10_000.0, "1k-protein screen = {small:.0} node-h");
    }

    #[test]
    fn deterministic() {
        let set = small_set();
        let refs: Vec<&ProteinEntry> = set.iter().collect();
        let a = ScreenConfig::default().run(&refs, StageCtx::for_ledger(&mut Ledger::new()));
        let b = ScreenConfig::default().run(&refs, StageCtx::for_ledger(&mut Ledger::new()));
        assert_eq!(a.recall, b.recall);
        for (x, y) in a.calls.iter().zip(&b.calls) {
            assert_eq!(x.iscore, y.iscore);
        }
    }
}
