//! `strain_rerun` — the read path of the result store.
//!
//! Set-up fills a store with a *D. vulgaris* subset through
//! `run_proteome_campaign_with_store`. The timed phase resubmits a
//! seeded "new strain" of the same proteins: about 80 % unchanged (exact
//! `get` hits), 10 % point-mutated at 3 % (`near_lookup` hits) and 10 %
//! replaced by proteins of another species (miss → full near scan →
//! `put`). `Store::get` and `Store::near_lookup` dominate — the same
//! layer `service_cold` writes to, used the other way round.

use super::{copy_dir, Check, Metrics, Scratch, Size, Workload};
use crate::spans::{self, in_span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use summitfold_hpc::Ledger;
use summitfold_inference::Preset;
use summitfold_msa::kmer::KmerIndex;
use summitfold_obs::Recorder;
use summitfold_pipeline::artifacts;
use summitfold_pipeline::stages::{feature, inference, Stage, StageCtx};
use summitfold_pipeline::{run_proteome_campaign_with_store, CampaignConfig};
use summitfold_protein::proteome::{ProteinEntry, Proteome, Species};
use summitfold_protein::rng::{fnv1a, Xoshiro256};
use summitfold_protein::seq::Sequence;
use summitfold_store::{CacheSummary, Store, StoreKey};

/// Point-mutation rate of the near-duplicate tenth.
const MUTATION_RATE: f64 = 0.03;
/// Store stage and preset of the feature artifacts near look-ups scan.
const FEATURE_STAGE: &str = "feature_gen";
const FEATURE_PRESET: &str = "Reduced";

/// The workload marker type.
pub struct StrainRerun;

/// What the generator did to one protein of the stored strain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Unchanged,
    Mutated,
    Novel,
}

/// Inputs of one run.
pub struct Inputs {
    /// The prefilled store every repeat starts from a copy of.
    prefilled: PathBuf,
    /// The sequences the prefilled store holds feature artifacts for.
    stored: Vec<Sequence>,
    strain: Vec<ProteinEntry>,
    fates: Vec<Fate>,
    feature: feature::Config,
    inference: inference::Config,
}

/// One repeat's outputs.
pub struct Output {
    feature: feature::Report,
    inference: inference::Report,
}

impl Inputs {
    fn count(&self, fate: Fate) -> usize {
        self.fates.iter().filter(|&&f| f == fate).count()
    }

    fn resubmit(&self, store: Option<&Store>) -> Output {
        fn ctx<'a>(ledger: &'a mut Ledger, store: Option<&'a Store>) -> StageCtx<'a> {
            match store {
                Some(s) => StageCtx::for_ledger(ledger).store(s),
                None => StageCtx::for_ledger(ledger),
            }
        }
        let mut ledger = Ledger::new();
        let feature = in_span("pipeline.feature_stage", || {
            self.feature.run(&self.strain, ctx(&mut ledger, store))
        });
        let inference = in_span("pipeline.inference_stage", || {
            self.inference.run(
                inference::Input {
                    entries: &self.strain,
                    features: &feature.features,
                },
                ctx(&mut ledger, store),
            )
        });
        Output { feature, inference }
    }
}

impl Workload for StrainRerun {
    const NAME: &'static str = "strain_rerun";
    type Inputs = Inputs;
    type Prepared = Store;
    type Output = Output;

    fn setup(seed: u64, size: Size, scratch: &Scratch) -> Inputs {
        // `near_lookup` scans every stored sequence per call, so the
        // repeat's cost grows with the square of the store size; 128
        // sequences put it near one second.
        let campaign = CampaignConfig::paper_default(size.pick(0.04, 0.01));
        let prefilled = scratch.fresh("prefilled");
        {
            let store = Store::open(&prefilled).expect("empty store opens");
            let _ = run_proteome_campaign_with_store(Species::DVulgaris, &campaign, Some(&store));
        }
        // Reopen: the journal replay is part of what a rerun pays first.
        drop(Store::open(&prefilled).expect("prefilled store reopens"));

        let base = Proteome::generate_scaled(Species::DVulgaris, campaign.scale).proteins;
        // Donors sorted by length, so the protein that replaces the k-th
        // shortest of the strain is the k-th shortest donor and the
        // strain's length profile is the same under every seed.
        let mut donors = Proteome::generate_scaled(Species::RRubrum, campaign.scale).proteins;
        donors.sort_by_key(|e| e.sequence.len());
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"strain_rerun"));
        // Length-sorted blocks of ten: one protein per block mutates and
        // its mirror image in the block is replaced, so the missed work
        // is spread over the length range the same way under every seed.
        let mut by_len: Vec<usize> = (0..base.len()).collect();
        by_len.sort_by_key(|&i| base[i].sequence.len());
        let mut rank = vec![0usize; base.len()];
        for (r, &i) in by_len.iter().enumerate() {
            rank[i] = r;
        }
        let mut fates = vec![Fate::Unchanged; base.len()];
        // The longest tenth stays unchanged: one 1,500-residue protein
        // in or out of the missed set would move the work by a tenth.
        let changeable = &by_len[..by_len.len() - by_len.len() / 10];
        for block in changeable.chunks(10).filter(|b| b.len() >= 2) {
            let a = rng.below(block.len());
            let mirror = block.len() - 1 - a;
            let b = if mirror == a {
                (a + 1) % block.len()
            } else {
                mirror
            };
            fates[block[a]] = Fate::Mutated;
            fates[block[b]] = Fate::Novel;
        }
        let strain = base
            .iter()
            .zip(&fates)
            .enumerate()
            .map(|(i, (e, fate))| match fate {
                Fate::Unchanged => e.clone(),
                Fate::Mutated => {
                    // At 3 % a short protein can come back unchanged; a
                    // planted near-duplicate must differ somewhere.
                    let mut sequence = e.sequence.mutated(&e.sequence.id, MUTATION_RATE, &mut rng);
                    while sequence.residues == e.sequence.residues {
                        sequence = e.sequence.mutated(&e.sequence.id, MUTATION_RATE, &mut rng);
                    }
                    ProteinEntry {
                        sequence,
                        ..e.clone()
                    }
                }
                Fate::Novel => donors[rank[i].min(donors.len() - 1)].clone(),
            })
            .collect();
        Inputs {
            prefilled,
            stored: base.iter().map(|e| e.sequence.clone()).collect(),
            strain,
            fates,
            // A strain resubmission is a small job — four scans at a time
            // on one database replica, one Summit node — so its makespan
            // is set by the missed work, not by the single longest protein.
            feature: feature::Config {
                replicas: 1,
                concurrent_jobs: 4,
                ..feature::Config::paper_default()
            },
            inference: inference::Config {
                nodes: 1,
                rescue_on_high_mem: true,
                ..inference::Config::benchmark(Preset::Genome)
            },
        }
    }

    fn tasks(inputs: &Inputs) -> u64 {
        inputs.strain.len() as u64
    }

    fn prepare(inputs: &Inputs, scratch: &Scratch) -> Store {
        let dir = scratch.fresh("store");
        copy_dir(&inputs.prefilled, &dir);
        Store::open(dir).expect("copied store opens")
    }

    fn run(inputs: &Inputs, store: Store) -> Output {
        inputs.resubmit(Some(&store))
    }

    fn check(inputs: &Inputs, out: &Output) -> Check {
        let mut check = Check::of(Self::tasks(inputs));
        let (kept, mutated, novel) = (
            inputs.count(Fate::Unchanged),
            inputs.count(Fate::Mutated),
            inputs.count(Fate::Novel),
        );
        let planted_features = CacheSummary {
            hits: kept,
            near_hits: mutated,
            misses: novel,
        };
        let planted_inference = CacheSummary {
            hits: kept,
            near_hits: 0,
            misses: mutated + novel,
        };
        check.require(out.feature.cache == planted_features, || {
            format!(
                "feature cache {:?}, planted {planted_features:?}",
                out.feature.cache
            )
        });
        check.require(out.inference.cache == planted_inference, || {
            format!(
                "inference cache {:?}, planted {planted_inference:?}",
                out.inference.cache
            )
        });
        // AF_Cache's claim: what the cache served is what recomputation
        // yields, bit for bit.
        let cold = inputs.resubmit(None);
        // Every output bit of a target's five predictions, by entry index.
        let by_index = |r: &inference::Report| -> BTreeMap<usize, Vec<[u64; 3]>> {
            r.results
                .iter()
                .map(|(i, t)| {
                    let bits = t
                        .predictions
                        .iter()
                        .map(|p| {
                            [
                                p.ptms.to_bits(),
                                p.plddt_mean.to_bits(),
                                u64::from(p.recycles),
                            ]
                        })
                        .collect();
                    (*i, bits)
                })
                .collect()
        };
        let (warm_results, cold_results) = (by_index(&out.inference), by_index(&cold.inference));
        for (i, fate) in inputs.fates.iter().enumerate() {
            if *fate != Fate::Unchanged {
                continue;
            }
            let feature_bits = |f: &summitfold_msa::FeatureSet| {
                (
                    f.richness.to_bits(),
                    f.neff.to_bits(),
                    f.coverage.to_bits(),
                    f.has_templates,
                )
            };
            let same_features =
                feature_bits(&out.feature.features[i]) == feature_bits(&cold.feature.features[i]);
            check.require(
                same_features && warm_results.get(&i) == cold_results.get(&i),
                || {
                    format!(
                        "{}: cached result differs from recomputation",
                        inputs.strain[i].sequence.id
                    )
                },
            );
        }
        check
    }

    fn model_makespan_s(_inputs: &Inputs, out: &Output) -> f64 {
        out.feature.walltime_s + out.inference.walltime_s
    }

    fn traced(inputs: &Inputs, plain: &Output, scratch: &Scratch, m: &mut Metrics) -> Check {
        let store = Self::prepare(inputs, scratch);
        let out = inputs.resubmit(Some(&store));
        let mut check = Check::of(1);
        check.require(out.inference.cache == plain.inference.cache, || {
            "traced resubmission hit the cache differently".to_owned()
        });

        // The store calls the stages make, directly against a fresh copy.
        let store = Self::prepare(inputs, scratch);
        let rec = Recorder::disabled();
        let letters: Vec<String> = inputs
            .strain
            .iter()
            .map(|e| e.sequence.to_letters())
            .collect();
        let (mut gets, mut scans) = (0usize, 0usize);
        for ((entry, fate), letters) in inputs.strain.iter().zip(&inputs.fates).zip(&letters) {
            let key = StoreKey::derive(FEATURE_STAGE, FEATURE_PRESET, letters);
            let got = in_span("store.get", || store.get(key, rec));
            gets += 1;
            if got.is_some() {
                continue;
            }
            let near = in_span("store.near_lookup", || {
                store.near_lookup(FEATURE_STAGE, FEATURE_PRESET, &entry.sequence, rec)
            });
            scans += 1;
            check.attempted += 1;
            let ok = match (fate, &near) {
                (Fate::Mutated, Some((hit, _))) => hit.identity >= 0.9,
                (Fate::Novel, None) => true,
                _ => false,
            };
            check.require(ok, || {
                format!(
                    "{}: {fate:?} protein's near look-up gave identity {:?}",
                    entry.sequence.id,
                    near.as_ref().map(|(h, _)| h.identity)
                )
            });
        }
        let replay_dir = scratch.fresh("replay");
        copy_dir(&inputs.prefilled, &replay_dir);
        let reopened =
            in_span("store.open_replay", || Store::open(&replay_dir)).expect("copy opens");
        // What every near look-up rebuilds today: an index over all the
        // stored sequences of the stage.
        in_span("msa.kmer.build", || {
            std::hint::black_box(KmerIndex::build(&inputs.stored))
        });
        in_span("pipeline.artifacts.codec", || {
            for (f, (_, r)) in plain.feature.features.iter().zip(&plain.inference.results) {
                std::hint::black_box(artifacts::decode_feature_set(
                    &artifacts::encode_feature_set(f),
                ));
                std::hint::black_box(artifacts::decode_target_result(
                    &artifacts::encode_target_result(r),
                ));
            }
        });

        let t = spans::totals_so_far();
        let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        let lookups = (out.feature.cache.lookups() + out.inference.cache.lookups()) as f64;
        let share = |f: fn(&CacheSummary) -> usize| {
            (f(&out.feature.cache) + f(&out.inference.cache)) as f64 / lookups
        };
        let codecs = 2 * plain
            .inference
            .results
            .len()
            .min(plain.feature.features.len());
        m.set(
            "store.get.us_per_op",
            total("store.get") * 1e6 / gets as f64,
        );
        m.set(
            "store.near_lookup.ms_per_op",
            total("store.near_lookup") * 1e3 / scans as f64,
        );
        m.set(
            "store.near_lookup.scanned_per_op",
            inputs.stored.len() as f64,
        );
        m.set(
            "store.open_replay.us_per_entry",
            total("store.open_replay") * 1e6 / reopened.len() as f64,
        );
        m.set("store.hit_share", share(|c| c.hits));
        m.set("store.near_hit_share", share(|c| c.near_hits));
        m.set("store.miss_share", share(|c| c.misses));
        m.set("msa.kmer.index_build_ms", total("msa.kmer.build") * 1e3);
        m.set(
            "pipeline.artifacts.codec_ns_per_artifact",
            total("pipeline.artifacts.codec") * 1e9 / codecs as f64,
        );

        let stages = total("pipeline.feature_stage") + total("pipeline.inference_stage");
        let index_s = total("msa.kmer.build") * scans as f64;
        let store_s = total("store.get") + total("store.near_lookup");
        m.layer_time("msa", index_s);
        m.layer_time("store", store_s - index_s);
        m.layer_time("pipeline", stages - store_s);
        check
    }
}
