//! Tier-1 contract of the content-addressed result store: key
//! determinism, insertion-order independence, 100 % warm-rerun hits
//! through the pipeline, identical cache counters on both executors,
//! and torn-write recovery.

use std::sync::Arc;
use summitfold::dataflow::real::ThreadExecutor;
use summitfold::dataflow::sim::VirtualExecutor;
use summitfold::dataflow::{Executor, TaskSpec};
use summitfold::hpc::service::{FoldingService, ServiceConfig, ServiceError, TenantSpec};
use summitfold::obs::json::parse_object;
use summitfold::obs::{Recorder, Trace};
use summitfold::pipeline::{run_proteome_campaign_with_store, CampaignConfig};
use summitfold::protein::proteome::Species;
use summitfold::protein::rng::Xoshiro256;
use summitfold::protein::seq::Sequence;
use summitfold::store::{Artifact, Store, StoreConfig, StoreKey};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-t1-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeded property: a key is a pure function of (stage, preset, content)
/// — stable across repeated derivation, derivation order, and distinct
/// on any field change.
#[test]
fn store_keys_are_deterministic_and_content_sensitive() {
    let mut rng = Xoshiro256::from_name("store-key-property");
    let mut seqs = Vec::new();
    for i in 0..64 {
        let len = 30 + (i * 7) % 200;
        seqs.push(Sequence::random(&format!("t{i}"), len, &mut rng));
    }
    let forward: Vec<StoreKey> = seqs
        .iter()
        .map(|s| StoreKey::derive("feature_gen", "reduced", s.to_letters().as_str()))
        .collect();
    // Same inputs, reversed derivation order: identical keys.
    let mut backward: Vec<StoreKey> = seqs
        .iter()
        .rev()
        .map(|s| StoreKey::derive("feature_gen", "reduced", s.to_letters().as_str()))
        .collect();
    backward.reverse();
    assert_eq!(forward, backward);
    // All distinct (random sequences), and sensitive to every field.
    for (i, s) in seqs.iter().enumerate() {
        let letters = s.to_letters();
        assert_eq!(
            forward[i],
            StoreKey::derive("feature_gen", "reduced", &letters)
        );
        assert_ne!(
            forward[i],
            StoreKey::derive("inference", "reduced", &letters)
        );
        assert_ne!(
            forward[i],
            StoreKey::derive("feature_gen", "full", &letters)
        );
    }
    let distinct: std::collections::BTreeSet<String> = forward.iter().map(|k| k.to_hex()).collect();
    assert_eq!(distinct.len(), seqs.len());
}

/// Near-duplicate lookup returns the same neighbor whatever order the
/// store was populated in.
#[test]
fn near_lookup_is_insertion_order_independent() {
    let mut rng = Xoshiro256::from_name("store-near-order");
    let base = Sequence::random("base", 120, &mut rng);
    let letters = base.to_letters();
    // Three mutated neighbors at different distances plus the query.
    let mutate = |letters: &str, every: usize| -> String {
        letters
            .chars()
            .enumerate()
            .map(|(i, c)| if i % every == every - 1 { 'A' } else { c })
            .collect()
    };
    let neighbors = [
        mutate(&letters, 11),
        mutate(&letters, 17),
        mutate(&letters, 23),
    ];
    let query = Sequence::parse("q", "", &mutate(&letters, 29)).expect("valid letters");
    let rec = Recorder::virtual_time();

    let mut picked = Vec::new();
    for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
        let dir = scratch(&format!("near-{}{}{}", order[0], order[1], order[2]));
        let store = Store::open(&dir).expect("writable scratch dir");
        for &i in &order {
            let a = Artifact::new("feature_gen", "reduced", &neighbors[i], vec![]);
            store.put(&a, &rec).expect("put succeeds");
        }
        let (near, art) = store
            .near_lookup("feature_gen", "reduced", &query, &rec)
            .expect("a neighbor above the identity floor");
        picked.push((near.key, near.identity.to_bits(), art.content));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(picked[0], picked[1]);
    assert_eq!(picked[1], picked[2]);
}

/// Resubmitting an identical campaign through the pipeline serves every
/// cacheable stage lookup from the store and reproduces the cold
/// report's quality numbers bit-for-bit.
#[test]
fn warm_campaign_rerun_hits_every_cacheable_stage() {
    let dir = scratch("campaign");
    let store = Store::open(&dir).expect("writable scratch dir");
    let cfg = CampaignConfig::paper_default(0.01);
    let cold = run_proteome_campaign_with_store(Species::PMercurii, &cfg, Some(&store));
    assert_eq!(cold.cache.hits, 0, "cold store starts empty");
    assert!(cold.cache.misses > 0);

    let warm = run_proteome_campaign_with_store(Species::PMercurii, &cfg, Some(&store));
    assert!(warm.cache.all_hit(), "warm rerun: {:?}", warm.cache);
    assert_eq!(warm.cache.lookups(), cold.cache.lookups());
    assert_eq!(warm.frac_plddt_gt70, cold.frac_plddt_gt70);
    assert_eq!(warm.frac_ptms_gt06, cold.frac_ptms_gt06);
    assert_eq!(warm.mean_top_recycles, cold.mean_top_recycles);
    let _ = std::fs::remove_dir_all(&dir);
}

fn service_pass<E: Executor>(tag: &str, exec: &E) -> std::collections::BTreeMap<String, f64> {
    let dir = scratch(tag);
    let store = Arc::new(Store::open(&dir).expect("writable scratch dir"));
    let specs: Vec<TaskSpec> = (0..24)
        .map(|i| TaskSpec::new(format!("t{i}"), 5.0 + i as f64))
        .collect();
    let mk = |rec: &Arc<Recorder>| {
        FoldingService::new(
            ServiceConfig {
                workers: 4,
                store: Some(Arc::clone(&store)),
                ..ServiceConfig::default()
            },
            vec![TenantSpec::new("alice", 1.0, 100.0).cached()],
            Arc::clone(rec),
        )
        .expect("valid tenants")
    };
    // Cold pass files everything; warm pass settles from cache.
    let rec_cold = Arc::new(Recorder::virtual_time());
    let cold = mk(&rec_cold);
    cold.submit("alice", "c0", 0.0, specs.clone())
        .expect("admitted");
    cold.run(exec).expect("drains clean");
    let rec_warm = Arc::new(Recorder::virtual_time());
    let warm = mk(&rec_warm);
    warm.submit("alice", "again", 0.0, specs).expect("admitted");
    warm.run(exec).expect("drains clean");
    let mut totals = Trace::from_events(rec_cold.events()).counter_totals();
    for (k, v) in Trace::from_events(rec_warm.events()).counter_totals() {
        *totals.entry(k).or_insert(0.0) += v;
    }
    let _ = std::fs::remove_dir_all(&dir);
    totals
        .into_iter()
        .filter(|(k, _)| k.starts_with("cache/") || k.starts_with("service/"))
        .collect()
}

/// The cache counters are recorded inside the store — both executors
/// drain through the same recording site, so a cold+warm service session
/// produces the identical counter totals on either backend.
#[test]
fn cache_counters_are_identical_on_both_executors() {
    let virt = service_pass("exec-virt", &VirtualExecutor::new(0.0));
    let real = service_pass("exec-real", &ThreadExecutor);
    assert_eq!(virt, real);
    assert_eq!(virt["cache/hit"], 24.0);
    assert_eq!(virt["cache/miss"], 24.0);
    assert_eq!(virt["cache/put"], 24.0);
    assert_eq!(virt["service/cache_settled_tasks"], 24.0);
}

/// A torn final journal line (killed mid-append) is dropped on reopen;
/// intact entries stay retrievable.
#[test]
fn torn_journal_tail_is_recovered_on_reopen() {
    let dir = scratch("torn");
    let rec = Recorder::virtual_time();
    {
        let store = Store::open(&dir).expect("writable scratch dir");
        for i in 0..3 {
            let a = Artifact::new("fold", "v1", &format!("content-{i}"), vec![]);
            store.put(&a, &rec).expect("put succeeds");
        }
    }
    // Simulate a torn append: garbage with no trailing newline.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("store.jsonl"))
        .expect("journal exists");
    f.write_all(b"{\"torn").expect("appendable");
    drop(f);

    let store = Store::open(&dir).expect("torn tail tolerated");
    assert_eq!(store.len(), 3);
    let key = Artifact::new("fold", "v1", "content-1", vec![]).key();
    assert!(store.get(key, &rec).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep's one file outside the store directory: the service WAL of
/// a small settled two-tenant session. With one byte flipped at every
/// offset in turn, `resume` never panics and returns either a typed
/// recovery error or a service that charged every task at most once,
/// with every undamaged `settle` line either replayed or counted.
fn sweep_service_wal(dir: &std::path::Path) {
    let cfg = || ServiceConfig {
        workers: 2,
        dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    };
    let tenants = || {
        vec![
            TenantSpec::new("alice", 2.0, 1.0),
            TenantSpec::new("bob", 1.0, 1.0),
        ]
    };
    let campaign = |n: usize, cost: f64| -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), cost))
            .collect()
    };
    let rec = Arc::new(Recorder::virtual_time());
    let svc = FoldingService::new(cfg(), tenants(), rec).expect("valid tenants");
    svc.submit("alice", "c0", 0.0, campaign(3, 7.0))
        .expect("admitted");
    svc.submit("bob", "c1", 1.0, campaign(2, 3.0))
        .expect("admitted");
    svc.run(&VirtualExecutor::new(0.0)).expect("drains clean");
    drop(svc);
    let wal = dir.join("service.jsonl");
    let bytes = std::fs::read(&wal).expect("the session kept a WAL");
    // Byte range of every settle line, widened by the newline on either
    // side: a flip there damages the line (merges or tears it).
    let mut settles: Vec<std::ops::RangeInclusive<usize>> = Vec::new();
    let mut start = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        if line.windows(8).any(|w| w == b"\"settle\"") {
            settles.push(start.saturating_sub(1)..=start + line.len() - 1);
        }
        start += line.len();
    }
    assert_eq!(settles.len(), 5);

    let mut typed_errors = 0usize;
    for off in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[off] ^= 0x01;
        std::fs::write(&wal, &flipped).expect("WAL writable");
        let rec = Arc::new(Recorder::virtual_time());
        let (svc, report) = match FoldingService::resume(cfg(), tenants(), rec) {
            Ok(resumed) => resumed,
            Err(
                ServiceError::RecoveryUnavailable { .. } | ServiceError::RecoveryMismatch { .. },
            ) => {
                typed_errors += 1;
                continue;
            }
            Err(other) => panic!("service.jsonl+{off}: untyped resume error {other}"),
        };
        let undamaged = settles.iter().filter(|r| !r.contains(&off)).count();
        assert!(
            report.replayed_settlements <= undamaged
                && report.replayed_settlements + report.wal_corrupt_lines >= undamaged,
            "service.jsonl+{off}: {undamaged} intact settle lines, {report:?}"
        );
        // The canonical trace: per tenant, the summary line's tallies
        // are exactly the sum of its task lines — nothing charged twice.
        let mut charged: std::collections::BTreeMap<String, (usize, f64)> = Default::default();
        for line in svc.settlement_trace().lines() {
            let obj = parse_object(line).expect("settlement trace is flat JSON");
            let tenant = obj["tenant"].as_str().expect("tenant name").to_owned();
            let tally = charged.entry(tenant).or_default();
            if obj.contains_key("task") {
                tally.0 += 1;
                tally.1 += obj["cost"].as_num().expect("task cost");
            } else {
                let completed = obj["completed"].as_num().expect("completed count");
                let hours = obj["charged_node_hours"].as_num().expect("charge");
                assert_eq!(completed, tally.0 as f64, "service.jsonl+{off}");
                assert!(
                    (hours * 3600.0 - tally.1).abs() < 1e-9,
                    "service.jsonl+{off}"
                );
            }
        }
        let settled: usize = charged.values().map(|t| t.0).sum();
        assert_eq!(settled, report.replayed_settlements, "service.jsonl+{off}");
    }
    assert!(typed_errors < bytes.len(), "most flips must still resume");
}

/// Corruption sweep property: flip one byte at every offset of every
/// store file (journal and blobs) in turn. On each reopen, every entry
/// is either served with its exact original bytes or deterministically
/// dropped/quarantined — never a panic, never wrong bytes. The service
/// WAL rides the same sweep ([`sweep_service_wal`]).
#[test]
fn single_byte_flip_at_every_offset_never_serves_wrong_bytes() {
    let dir = scratch("flip-sweep");
    let rec = Recorder::virtual_time();
    let artifacts: Vec<Artifact> = (0..3)
        .map(|i| {
            Artifact::new(
                "fold",
                "v1",
                &format!("flip-target-{i}"),
                vec![format!("payload-{i}"), "shared-line".to_owned()],
            )
        })
        .collect();
    {
        let store = Store::open(&dir).expect("writable scratch dir");
        for a in &artifacts {
            store.put(a, &rec).expect("put succeeds");
        }
    }
    // Snapshot every file the store wrote, as (relative path, bytes).
    let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = vec![(
        "store.jsonl".into(),
        std::fs::read(dir.join("store.jsonl")).expect("journal exists"),
    )];
    for entry in std::fs::read_dir(dir.join("objects")).expect("objects dir") {
        let entry = entry.expect("readable dir entry");
        files.push((
            std::path::Path::new("objects").join(entry.file_name()),
            std::fs::read(entry.path()).expect("blob readable"),
        ));
    }
    assert_eq!(files.len(), 1 + artifacts.len());

    let restore = |flip: Option<(&std::path::Path, usize)>| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("objects")).expect("recreate store layout");
        for (rel, bytes) in &files {
            let mut bytes = bytes.clone();
            if let Some((target, off)) = flip {
                if rel == target {
                    // XOR 0x01 keeps ASCII JSON valid UTF-8, so the
                    // sweep probes corruption detection, not codec
                    // errors (those get their own test below).
                    bytes[off] ^= 0x01;
                }
            }
            std::fs::write(dir.join(rel), bytes).expect("restore store file");
        }
    };

    let mut dropped = 0usize;
    for (rel, bytes) in &files {
        for off in 0..bytes.len() {
            restore(Some((rel, off)));
            let store = Store::open(&dir).expect("a flipped byte never fails the open");
            for a in &artifacts {
                match store.get(a.key(), &rec) {
                    Some(got) => {
                        assert_eq!(
                            (&got.stage, &got.preset, &got.content, &got.payload),
                            (&a.stage, &a.preset, &a.content, &a.payload),
                            "{}+{off}: served bytes must be the original bytes",
                            rel.display()
                        );
                    }
                    None => dropped += 1,
                }
            }
        }
    }
    assert!(dropped > 0, "the sweep must hit detectable corruption");
    sweep_service_wal(&dir.join("svc"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flip that produces invalid UTF-8 in the journal surfaces as a
/// typed I/O error from `open`, never a panic.
#[test]
fn non_utf8_journal_is_a_typed_open_error() {
    let dir = scratch("flip-utf8");
    let rec = Recorder::virtual_time();
    {
        let store = Store::open(&dir).expect("writable scratch dir");
        let a = Artifact::new("fold", "v1", "utf8-target", vec![]);
        store.put(&a, &rec).expect("put succeeds");
    }
    let journal = dir.join("store.jsonl");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    let mid = bytes.len() / 2;
    bytes[mid] |= 0x80;
    std::fs::write(&journal, &bytes).expect("journal writable");
    assert!(Store::open(&dir).is_err(), "invalid UTF-8 is a typed error");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A blob corrupted between campaign runs is quarantined transparently:
/// the warm rerun recomputes the lost entry and reproduces the cold
/// quality numbers bit-for-bit.
#[test]
fn corrupt_blob_degrades_to_recompute_with_identical_quality() {
    let dir = scratch("corrupt-campaign");
    let store = Store::open(&dir).expect("writable scratch dir");
    let cfg = CampaignConfig::paper_default(0.01);
    let cold = run_proteome_campaign_with_store(Species::PMercurii, &cfg, Some(&store));
    assert!(cold.cache.misses > 0);

    // Corrupt one stored blob in place (one flipped byte mid-line).
    let blob = std::fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .next()
        .expect("store holds blobs")
        .expect("readable dir entry")
        .path();
    let mut bytes = std::fs::read(&blob).expect("blob readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&blob, &bytes).expect("blob writable");

    let warm = run_proteome_campaign_with_store(Species::PMercurii, &cfg, Some(&store));
    assert!(
        !warm.cache.all_hit(),
        "the corrupt entry must degrade to a miss: {:?}",
        warm.cache
    );
    assert!(warm.cache.hits > 0, "intact entries still hit");
    assert_eq!(warm.cache.lookups(), cold.cache.lookups());
    assert_eq!(warm.frac_plddt_gt70, cold.frac_plddt_gt70);
    assert_eq!(warm.frac_ptms_gt06, cold.frac_ptms_gt06);
    assert_eq!(warm.mean_top_recycles, cold.mean_top_recycles);
    assert!(
        std::fs::read_dir(dir.join("corrupt"))
            .map(|mut d| d.next().is_some())
            .unwrap_or(false),
        "the corrupt blob is preserved for post-mortem in corrupt/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Capacity eviction drops the oldest entries, records them, and the
/// bound survives reopen.
#[test]
fn eviction_is_oldest_first_and_durable() {
    let dir = scratch("evict");
    let rec = Recorder::virtual_time();
    let cfg = StoreConfig {
        max_entries: Some(2),
    };
    {
        let store = Store::open_with(&dir, cfg).expect("writable scratch dir");
        for i in 0..4 {
            let a = Artifact::new("fold", "v1", &format!("content-{i}"), vec![]);
            store.put(&a, &rec).expect("put succeeds");
        }
        assert_eq!(store.len(), 2);
    }
    let store = Store::open_with(&dir, cfg).expect("reopens");
    assert_eq!(store.len(), 2);
    let oldest = Artifact::new("fold", "v1", "content-0", vec![]).key();
    let newest = Artifact::new("fold", "v1", "content-3", vec![]).key();
    assert!(!store.contains(oldest));
    assert!(store.contains(newest));
    let _ = std::fs::remove_dir_all(&dir);
}
