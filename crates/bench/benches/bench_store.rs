//! Criterion bench for the result store's near-duplicate path: how one
//! `Store::near_lookup` scales with the number of stored sequences, and
//! what keeping the resident k-mer index current costs per entry.
//!
//! The wall-clock benchmark's `strain_rerun` holds a fixed 128-entry
//! store; the three sizes here show what its single size cannot.

use summitfold_bench::microbench::{BenchmarkId, Criterion};
use summitfold_bench::{criterion_group, criterion_main};
use summitfold_msa::kmer::KmerIndex;
use summitfold_obs::Recorder;
use summitfold_protein::rng::Xoshiro256;
use summitfold_protein::seq::Sequence;
use summitfold_store::{Artifact, Store};

const STAGE: &str = "feature_gen";
const PRESET: &str = "reduced";

/// Unrelated proteins of 100–400 residues.
fn proteins(seed: u64, n: usize) -> Vec<Sequence> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|i| Sequence::random(&format!("s{i}"), 100 + rng.below(300), &mut rng))
        .collect()
}

fn bench_near_lookup(c: &mut Criterion) {
    let rec = Recorder::disabled();
    let mut group = c.benchmark_group("near_lookup");
    for n in [128usize, 1024, 8192] {
        let root =
            std::env::temp_dir().join(format!("summitfold-bench-store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).expect("scratch store opens");
        let stored = proteins(1, n);
        for seq in &stored {
            let artifact = Artifact::new(STAGE, PRESET, &seq.to_letters(), vec![]);
            store
                .put(&artifact, rec)
                .expect("scratch store takes the put");
        }
        let mut rng = Xoshiro256::seed_from_u64(2);
        // A novel protein: index and bound only, nothing left to align.
        let novel = Sequence::random("novel", 250, &mut rng);
        assert!(store.near_lookup(STAGE, PRESET, &novel, rec).is_none());
        group.bench_with_input(BenchmarkId::new("miss", n), &n, |b, _| {
            b.iter(|| store.near_lookup(STAGE, PRESET, &novel, rec).is_some());
        });
        // A 3 % point mutant of a stored protein: one alignment and one
        // blob read on top.
        let mutant = stored[n / 2].mutated("mutant", 0.03, &mut rng);
        assert!(store.near_lookup(STAGE, PRESET, &mutant, rec).is_some());
        group.bench_with_input(BenchmarkId::new("hit", n), &n, |b, _| {
            b.iter(|| store.near_lookup(STAGE, PRESET, &mutant, rec).is_some());
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }
    group.finish();
}

fn bench_index_maintenance(c: &mut Criterion) {
    let subjects = proteins(3, 1024);
    c.bench_function("kmer_insert_x1024", |b| {
        b.iter(|| {
            let mut index = KmerIndex::default();
            for seq in &subjects {
                index.insert(seq);
            }
            index.len()
        });
    });
    // A capped store's steady state: every entry evicted and re-put once,
    // each into the slot the eviction freed.
    let mut index = KmerIndex::build(&subjects);
    c.bench_function("kmer_remove_then_insert_x1024", |b| {
        b.iter(|| {
            for (slot, seq) in subjects.iter().enumerate() {
                index.remove(slot, seq);
                index.insert(seq);
            }
            index.len()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_near_lookup, bench_index_maintenance
}
criterion_main!(benches);
