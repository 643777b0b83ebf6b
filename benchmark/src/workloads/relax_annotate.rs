//! `relax_annotate` — §4.4–4.6: relaxation under both protocols, then
//! structure-based annotation.
//!
//! Predicted structures (built in set-up) go through
//! `relax_stage::Config::run` under the original AlphaFold loop *and*
//! the paper's single pass — Fig 4's comparison — and a seeded subset of
//! the relaxed models is searched against a `Pdb70` library. `relax` and
//! `structal` do nearly all the work here and under 5 % of `fold_real`,
//! so a minimizer or TM/Kabsch change shows here and predicts no change
//! there.

use super::{stratified_pick, Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use summitfold_hpc::Ledger;
use summitfold_inference::{Fidelity, InferenceEngine, ModelId, Preset};
use summitfold_msa::FeatureSet;
use summitfold_pipeline::stages::{relax_stage, Stage, StageCtx};
use summitfold_protein::proteome::{ProteinEntry, Proteome, Species};
use summitfold_protein::rng::{fnv1a, Xoshiro256};
use summitfold_protein::structure::Structure;
use summitfold_relax::protocol::{relax, Protocol};
use summitfold_relax::timing::Method;
use summitfold_structal::align::structural_align;
use summitfold_structal::kabsch::superpose;
use summitfold_structal::lddt::lddt;
use summitfold_structal::pdb70::{Hit, Pdb70, SearchConfig};
use summitfold_structal::tm::tm_score;

/// The workload marker type.
pub struct RelaxAnnotate;

/// Inputs of one run.
pub struct Inputs {
    entries: Vec<ProteinEntry>,
    structures: Vec<Structure>,
    /// The first `queries` entries are the family members that get
    /// searched.
    queries: usize,
    library: Pdb70,
    search: SearchConfig,
    af2: relax_stage::Config,
    single_pass: relax_stage::Config,
}

/// Seed of the library's decoy families: the library is the same under
/// every input seed except for the queries' own families.
const LIBRARY_SEED: u64 = 0x9db7_0a11;

/// One repeat's outputs.
pub struct Output {
    af2: relax_stage::Report,
    single_pass: relax_stage::Report,
    hits: Vec<Vec<Hit>>,
}

impl Workload for RelaxAnnotate {
    const NAME: &'static str = "relax_annotate";
    type Inputs = Inputs;
    type Prepared = ();
    type Output = Output;

    fn setup(seed: u64, size: Size, _scratch: &Scratch) -> Inputs {
        let proteome = Proteome::generate(Species::DVulgaris);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"relax_annotate"));
        let in_band =
            |e: &&ProteinEntry| (120..=300).contains(&e.sequence.len()) && e.msa_richness >= 0.55;
        // Queries: well-aligned family members, whose own family the
        // structure search must rank first.
        let members: Vec<&ProteinEntry> = proteome
            .proteins
            .iter()
            .filter(in_band)
            .filter(|e| e.family().is_some() && e.msa_richness >= 0.7)
            .collect();
        let query_entries =
            stratified_pick(&members, |e| e.sequence.len(), size.pick(8, 1), &mut rng);
        let pool: Vec<&ProteinEntry> = proteome
            .proteins
            .iter()
            .filter(in_band)
            .filter(|e| !query_entries.iter().any(|q| q.sequence.id == e.sequence.id))
            .collect();
        let n = size.pick(96, 5);
        let mut picked = query_entries.clone();
        picked.extend(stratified_pick(
            &pool,
            |e| e.sequence.len(),
            n - picked.len(),
            &mut rng,
        ));

        let engine = InferenceEngine::new(Preset::Genome, Fidelity::Geometric);
        let structures = picked
            .iter()
            .map(|e| {
                engine
                    .predict(e, &FeatureSet::synthetic(e), ModelId(1))
                    .expect("targets under 300 residues fit a standard node")
                    .structure
                    .expect("geometric fidelity attaches a structure")
            })
            .collect();
        let library = Pdb70::build(
            query_entries.iter().filter_map(|e| e.family()),
            size.pick(24, 4),
            LIBRARY_SEED,
        );
        Inputs {
            queries: query_entries.len(),
            entries: picked.into_iter().cloned().collect(),
            structures,
            library,
            // Half the default alignment budget per query, twice the
            // queries: the same work, less dependent on any one query.
            search: SearchConfig {
                max_align: 8,
                ..SearchConfig::default()
            },
            // Fig 4's two CPU methods on one node (one worker) each: the
            // batch makespan is the summed work of the protocol, not the
            // luck of which structure needed three rounds.
            af2: relax_stage::Config {
                protocol: Protocol::Af2Loop,
                method: Method::Af2Cpu,
                nodes: 1,
            },
            single_pass: relax_stage::Config {
                protocol: Protocol::OptimizedSinglePass,
                method: Method::OptimizedCpuAndes,
                nodes: 1,
            },
        }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        (2 * inputs.structures.len() + inputs.queries) as u64
    }

    fn prepare(_inputs: &Inputs, _scratch: &Scratch) {}

    fn run(inputs: &Inputs, (): ()) -> Output {
        let mut ledger = Ledger::new();
        let af2 = inputs
            .af2
            .run(&inputs.structures, StageCtx::for_ledger(&mut ledger));
        let single_pass = inputs
            .single_pass
            .run(&inputs.structures, StageCtx::for_ledger(&mut ledger));
        let hits = (0..inputs.queries)
            .map(|q| {
                inputs.library.search(
                    &single_pass.outcomes[q].structure,
                    &inputs.entries[q].sequence,
                    &inputs.search,
                )
            })
            .collect();
        Output {
            af2,
            single_pass,
            hits,
        }
    }

    fn check(inputs: &Inputs, out: &Output) -> Check {
        let mut check = Check::of(Self::tasks(inputs));
        for (name, report) in [("af2_loop", &out.af2), ("single_pass", &out.single_pass)] {
            for (before, o) in inputs.structures.iter().zip(&report.outcomes) {
                let tm = tm_score(&o.structure, before);
                check.require(o.final_violations.clashes == 0 && tm >= 0.95, || {
                    format!(
                        "{} under {name}: clashes {} tm-to-unrelaxed {tm}",
                        before.id, o.final_violations.clashes
                    )
                });
            }
        }
        for (q, hits) in out.hits.iter().enumerate() {
            let entry = &inputs.entries[q];
            let own = entry.family().map(|f| f.id);
            let top = hits
                .first()
                .map(|h| inputs.library.entries()[h.entry].family.id);
            check.require(own.is_some() && top == own, || {
                format!(
                    "{}: top pdb70 hit {top:?}, own family {own:?}",
                    entry.sequence.id
                )
            });
        }
        check
    }

    fn model_makespan_s(_inputs: &Inputs, out: &Output) -> f64 {
        out.af2.walltime_s + out.single_pass.walltime_s
    }

    fn traced(inputs: &Inputs, plain: &Output, _scratch: &Scratch, m: &mut Metrics) -> Check {
        let n = inputs.structures.len();
        // The stages as the timed phase calls them…
        let mut ledger = Ledger::new();
        in_span("pipeline.relax_stage.af2_loop", || {
            inputs
                .af2
                .run(&inputs.structures, StageCtx::for_ledger(&mut ledger))
        });
        in_span("pipeline.relax_stage.single_pass", || {
            inputs
                .single_pass
                .run(&inputs.structures, StageCtx::for_ledger(&mut ledger))
        });
        // …and the kernels inside them, called directly.
        let (mut iterations, mut rounds) = (0usize, 0usize);
        let mut check = Check::of(n as u64);
        for (s, staged) in inputs.structures.iter().zip(&plain.single_pass.outcomes) {
            let looped = in_span("relax.af2_loop", || relax(s, Protocol::Af2Loop));
            let single = in_span("relax.single_pass", || {
                relax(s, Protocol::OptimizedSinglePass)
            });
            rounds += looped.rounds;
            iterations += single.total_iterations;
            check.require(single.structure.ca == staged.structure.ca, || {
                format!("{}: direct relax differs from the stage's", s.id)
            });
            let relaxed = &single.structure;
            in_span("structal.tm_score", || {
                std::hint::black_box(tm_score(relaxed, s))
            });
            in_span("structal.lddt", || {
                std::hint::black_box(lddt(&relaxed.ca, &s.ca))
            });
            in_span("structal.kabsch", || {
                std::hint::black_box(superpose(&relaxed.ca, &s.ca))
            });
        }
        for q in 0..inputs.queries {
            let (model, seq) = (
                &plain.single_pass.outcomes[q].structure,
                &inputs.entries[q].sequence,
            );
            in_span("structal.pdb70.search", || {
                std::hint::black_box(inputs.library.search(model, seq, &inputs.search))
            });
            let own = &inputs.library.entries()[0];
            in_span("structal.align", || {
                std::hint::black_box(structural_align(model, seq, &own.structure, &own.sequence))
            });
        }

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let q = inputs.queries.max(1) as f64;
        m.set(
            "relax.single_pass.ms_per_structure",
            total("relax.single_pass") * 1e3 / n as f64,
        );
        m.set(
            "relax.af2_loop.ms_per_structure",
            total("relax.af2_loop") * 1e3 / n as f64,
        );
        m.set(
            "relax.single_pass.iterations_mean",
            iterations as f64 / n as f64,
        );
        m.set("relax.af2_loop.rounds_mean", rounds as f64 / n as f64);
        m.set(
            "relax.af2_loop.wasted_round_share",
            (rounds - n) as f64 / rounds as f64,
        );
        m.set(
            "structal.tm_score.us_per_pair",
            total("structal.tm_score") * 1e6 / n as f64,
        );
        m.set(
            "structal.lddt.us_per_pair",
            total("structal.lddt") * 1e6 / n as f64,
        );
        m.set(
            "structal.kabsch.ns_per_call",
            total("structal.kabsch") * 1e9 / n as f64,
        );
        m.set(
            "structal.align.ms_per_pair",
            total("structal.align") * 1e3 / q,
        );
        m.set(
            "structal.pdb70.ms_per_query",
            total("structal.pdb70.search") * 1e3 / q,
        );
        let stages =
            total("pipeline.relax_stage.af2_loop") + total("pipeline.relax_stage.single_pass");
        m.set(
            "pipeline.relax_stage.ms_per_structure",
            stages * 1e3 / (2 * n) as f64,
        );

        let relax_s = total("relax.af2_loop") + total("relax.single_pass");
        m.layer_time("relax", relax_s);
        m.layer_time("structal", total("structal.pdb70.search"));
        m.layer_time("pipeline", stages - relax_s);
        check
    }
}
