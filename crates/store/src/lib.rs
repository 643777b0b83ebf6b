#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Content-addressed artifact store for prediction campaigns.
//!
//! ROADMAP item 2 (the AF_Cache direction): every campaign today
//! recomputes MSAs, features, inference, and relaxation from scratch; a
//! persistent, content-keyed store lets resubmissions and overlapping
//! proteomes *hit the cache instead of the GPU model*. The store is
//! deliberately dumb about payloads — a cached artifact is an opaque
//! stack of JSONL lines that the producing stage wrote and only that
//! stage can parse — and smart about addressing:
//!
//! * **Keys** ([`StoreKey`]) are 128-bit hashes of
//!   `(stage, preset, canonical sequence content)`, so identical inputs
//!   collide onto the same artifact no matter which campaign, tenant, or
//!   executor produced them.
//! * **Layout**: one blob file per artifact under `objects/`, plus an
//!   append-only `store.jsonl` journal that *is* the index: a
//!   [`summitfold_dataflow::log::Log`] of `put` / `evict` / `quarantine`
//!   events, the in-memory index being the fold of one `apply` over
//!   them — at open over the recovered lines, afterwards over each batch
//!   once its append lands. The log's torn-tail rule (a final line
//!   without its `\n` is dropped from replay and truncated on disk)
//!   makes a kill mid-append cost at most that one event, which reads as
//!   a miss, and makes two opens of the same bytes agree.
//! * **Corruption resilience**: every journal line and blob header is
//!   *sealed* with an FNV-1a-64 checksum ([`ObjectWriter::finish_sealed`]
//!   in `summitfold-obs`), and blob headers carry a `psum` checksum over
//!   the payload lines. Reads verify before serving: a flipped bit
//!   anywhere quarantines the entry (moved to `corrupt/`, de-indexed,
//!   `cache/corrupt` counted once) and the lookup degrades to a miss, so
//!   a poisoned artifact is recomputed instead of fanning out across
//!   every warm campaign. [`Store::scrub`] runs the same verification as
//!   an offline repair pass — and additionally *adopts* valid orphan
//!   blobs left by a process killed between the blob rename and the
//!   journal append. Version-1 stores (pre-checksum) still open; their
//!   unsealed records are simply accepted unverified.
//! * **Fault injection**: [`Store::open_with_faults`] threads a
//!   [`summitfold_dataflow::chaos::IoFaults`] handle through the write
//!   paths (`store/blob`, `store/journal` operations), so crash tests
//!   can tear, corrupt, fail, or kill any chosen write deterministically
//!   on either executor. Every journal append (put, quarantine, scrub)
//!   is the one gated `Log::append`: a killed handle writes nothing.
//! * **Near-duplicate reuse** ([`Store::near_lookup`]): a miss for a
//!   sequence that is ≥ `near_identity` identical to a stored neighbor
//!   (checked with the same k-mer prefilter + banded Smith–Waterman the
//!   BFD clustering uses, via [`summitfold_msa::cluster`]) returns the
//!   neighbor's artifact at a recorded quality discount — the AF_Cache
//!   observation that a 99 %-identical sequence can reuse the clustered
//!   MSA neighborhood.
//! * **Counters**: every lookup outcome is recorded through the caller's
//!   [`Recorder`] under `cache/{hit,miss,near_hit,put,evicted}` — and
//!   *only here*, so the counter semantics cannot drift between call
//!   sites or executors (`scripts/check.sh` pins the literals to this
//!   file).
//!
//! # Concurrency and lock discipline
//!
//! The store is `Sync`: a single mutex serializes lookups and puts, and
//! journal/blob IO happens under that lock — every `Log::append` is
//! called with the index guard held, so events reach the file in the
//! order they reach the index. Appends are line-atomic so a killed
//! writer leaves an at-worst-torn-tail journal, and the store never
//! calls back into user code while holding its guard, so the guard
//! cannot participate in a lock cycle.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use summitfold_dataflow::chaos::{IoFaults, WriteOutcome};
use summitfold_dataflow::log::Log;
use summitfold_msa::cluster::neighborhood_identity;
use summitfold_msa::kmer::KmerIndex;
use summitfold_obs::json::{self, check_seal, fnv64, ObjectWriter, Seal};
use summitfold_obs::{lineage, Recorder};
use summitfold_protein::seq::Sequence;

mod key;

pub use key::StoreKey;

/// On-disk format version written into every blob header; readers reject
/// (miss) anything newer. Version 2 added sealed journal lines and blob
/// checksums; version-1 records are still read, unverified.
pub const FORMAT_VERSION: u64 = 2;

/// Configuration for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Capacity cap: inserting beyond it evicts the oldest artifacts
    /// (insertion order, `cache/evicted` counted per victim). `None`
    /// disables eviction.
    pub max_entries: Option<usize>,
    /// Identity threshold for [`Store::near_lookup`] (the BFD clustering
    /// uses 0.9 for "near-identical").
    pub near_identity: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            max_entries: None,
            near_identity: 0.9,
        }
    }
}

/// Errors opening or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// An injected fault (torn write, failed op, or kill) from the
    /// armed [`IoFaults`] schedule stopped the operation. Production
    /// stores (no faults armed) never see this.
    Injected {
        /// The faulted operation, e.g. `store/blob`.
        op: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "store io error at {}: {source}", path.display())
            }
            Self::Injected { op } => {
                write!(f, "injected fault stopped operation {op}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Injected { .. } => None,
        }
    }
}

/// One stored artifact: addressing metadata plus the producing stage's
/// opaque JSONL payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Producing stage id (e.g. `feature_gen`).
    pub stage: String,
    /// Preset token the stage computed under.
    pub preset: String,
    /// Canonical input content the key was derived from (for the
    /// pipeline stages: the target's residue letters, possibly with an
    /// upstream fingerprint appended after a `|`).
    pub content: String,
    /// Opaque payload lines, written and parsed only by the producing
    /// stage.
    pub payload: Vec<String>,
}

impl Artifact {
    /// Assemble an artifact and its content-derived key.
    #[must_use]
    pub fn new(stage: &str, preset: &str, content: &str, payload: Vec<String>) -> Self {
        Self {
            stage: stage.to_owned(),
            preset: preset.to_owned(),
            content: content.to_owned(),
            payload,
        }
    }

    /// The content address of this artifact.
    #[must_use]
    pub fn key(&self) -> StoreKey {
        StoreKey::derive(&self.stage, &self.preset, &self.content)
    }

    /// The canonical sequence letters inside [`content`](Self::content):
    /// everything before the first `|` (stages append non-sequence
    /// fingerprints after it).
    #[must_use]
    pub fn sequence_letters(&self) -> &str {
        self.content.split('|').next().unwrap_or("")
    }
}

/// A successful near-duplicate lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct NearHit {
    /// Key of the neighbor whose artifact is being reused.
    pub key: StoreKey,
    /// Aligned identity between the query and the neighbor (≥ the
    /// configured threshold).
    pub identity: f64,
    /// Modelled quality discount to apply when reusing the neighbor's
    /// artifact (see [`quality_discount`]).
    pub discount: f64,
}

/// Modelled quality discount for reusing a near-duplicate neighbor's
/// artifact: scales with the mismatch fraction, saturating at 1 (a 90 %
/// identical neighbor is reused at half credit, a 98 % identical one at
/// 90 % credit).
#[must_use]
pub fn quality_discount(identity: f64) -> f64 {
    ((1.0 - identity.clamp(0.0, 1.0)) * 5.0).clamp(0.0, 1.0)
}

/// Running cache outcome tally for one stage invocation, reported by the
/// pipeline stages so campaigns can see their hit rates without parsing
/// traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Exact content hits.
    pub hits: usize,
    /// Near-duplicate hits (reused at a quality discount).
    pub near_hits: usize,
    /// Misses (computed and, with a store attached, re-put).
    pub misses: usize,
}

impl CacheSummary {
    /// Total lookups performed.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.hits + self.near_hits + self.misses
    }

    /// Whether every lookup was served from the store (and at least one
    /// lookup happened).
    #[must_use]
    pub fn all_hit(&self) -> bool {
        self.lookups() > 0 && self.misses == 0
    }
}

/// Outcome of reading and verifying one blob file.
#[derive(Debug)]
enum BlobRead {
    /// Verified intact.
    Ok(Artifact),
    /// No blob file (evicted under us, or the journal lied).
    Missing,
    /// Truncated mid-write (a kill, not corruption): read as a miss.
    Torn,
    /// Fully written but fails parsing or a checksum: quarantine it.
    Corrupt,
    /// Written by a newer format version: leave it alone, read as miss.
    Newer,
}

#[derive(Debug, Clone)]
struct Meta {
    stage: String,
    preset: String,
    content: String,
    /// Insertion sequence number (journal order) driving eviction.
    seq: u64,
}

/// One `store.jsonl` event: `encode`/`decode` alone know the wire
/// format, [`State::apply`] alone changes the index.
#[derive(Debug)]
enum Event {
    /// `key` now names a blob written under `(stage, preset, content)`.
    Put {
        key: String,
        stage: String,
        preset: String,
        content: String,
    },
    /// `key` left the index (capacity eviction, or scrub found its blob
    /// torn or missing).
    Evict { key: String },
    /// `key` left the index because its blob failed verification; only
    /// the blob's destination (`corrupt/`) tells it from an eviction.
    Quarantine { key: String },
}

impl Event {
    fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        match self {
            Self::Put {
                key,
                stage,
                preset,
                content,
            } => {
                w.str_field("event", "put");
                w.str_field("key", key);
                w.str_field("stage", stage);
                w.str_field("preset", preset);
                w.str_field("content", content);
            }
            Self::Evict { key } => {
                w.str_field("event", "evict");
                w.str_field("key", key);
            }
            Self::Quarantine { key } => {
                w.str_field("event", "quarantine");
                w.str_field("key", key);
            }
        }
        w.finish_sealed()
    }

    /// `None` for a line that fails to parse, fails its seal, or is not
    /// a well-formed event: corruption costs that one event.
    fn decode(line: &str, seal: Seal) -> Option<Self> {
        let obj = json::parse_object(line).ok()?;
        // Seal policy: valid is trusted; broken means corrupted after
        // writing; none at all is a version-1 line, accepted unverified
        // unless it carries a `sum` field nothing can verify.
        match seal {
            Seal::Valid => {}
            Seal::Mismatch => return None,
            Seal::Absent if obj.contains_key("sum") => return None,
            Seal::Absent => {}
        }
        let field = |name: &str| obj.get(name)?.as_str().map(str::to_owned);
        let key = field("key")?;
        match obj.get("event")?.as_str()? {
            "put" => Some(Self::Put {
                key: StoreKey::from_hex(&key).map(|_| key)?,
                stage: field("stage")?,
                preset: field("preset")?,
                content: field("content")?,
            }),
            "evict" => Some(Self::Evict { key }),
            "quarantine" => Some(Self::Quarantine { key }),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    /// Key (hex) → metadata. BTreeMap so every derived iteration —
    /// near-duplicate candidate order included — is deterministic.
    entries: BTreeMap<String, Meta>,
    next_seq: u64,
    /// Fully-written journal lines that failed to parse or verify at
    /// open and were skipped (a bit flipped in the journal costs that
    /// line's event, never the whole store).
    skipped_lines: usize,
}

impl State {
    /// The one index transition — open replays recovered events through
    /// it; `put`, quarantine and `scrub` apply what they just appended.
    fn apply(&mut self, event: Event) {
        match event {
            Event::Put {
                key,
                stage,
                preset,
                content,
            } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.entries.insert(
                    key,
                    Meta {
                        stage,
                        preset,
                        content,
                        seq,
                    },
                );
            }
            Event::Evict { key } | Event::Quarantine { key } => {
                self.entries.remove(&key);
            }
        }
    }
}

/// A content-addressed, on-disk artifact store. See the [module
/// docs](self) for the layout and addressing scheme.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    cfg: StoreConfig,
    /// Gates the blob writes; the journal's appends are gated by `log`.
    faults: IoFaults,
    log: Log,
    state: Mutex<State>,
}

impl Store {
    /// Open (creating if needed) the store rooted at `root` with default
    /// configuration.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the root cannot be created or read. A
    /// damaged journal never fails the open: a torn final line is
    /// dropped and fully-written corrupt lines are skipped (see
    /// [`skipped_journal_lines`](Self::skipped_journal_lines)).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(root, StoreConfig::default())
    }

    /// [`open`](Self::open) with explicit configuration.
    ///
    /// # Errors
    /// As [`open`](Self::open).
    pub fn open_with(root: impl Into<PathBuf>, cfg: StoreConfig) -> Result<Self, StoreError> {
        Self::open_with_faults(root, cfg, IoFaults::none())
    }

    /// [`open_with`](Self::open_with) plus an armed fault-injection
    /// handle gating the store's writes (operations `store/blob` and
    /// `store/journal`). Production stores use [`IoFaults::none`] —
    /// the handle is free when unarmed.
    ///
    /// # Errors
    /// As [`open`](Self::open).
    pub fn open_with_faults(
        root: impl Into<PathBuf>,
        cfg: StoreConfig,
        faults: IoFaults,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        let objects = root.join("objects");
        fs::create_dir_all(&objects).map_err(|source| StoreError::Io {
            path: objects,
            source,
        })?;
        let journal_path = root.join("store.jsonl");
        let (log, recovered) = Log::open(journal_path.clone(), "store/journal", faults.clone())
            .map_err(|source| StoreError::Io {
                path: journal_path,
                source,
            })?;
        let mut state = State::default();
        for (line, seal) in recovered.lines() {
            match Event::decode(line, seal) {
                Some(event) => state.apply(event),
                None => state.skipped_lines += 1,
            }
        }
        Ok(Self {
            root,
            cfg,
            faults,
            log,
            state: Mutex::new(state),
        })
    }

    /// Append `events` to `store.jsonl` as one gated write.
    fn journal(&self, events: &[Event], rec: &Recorder) -> Result<(), StoreError> {
        let lines: Vec<String> = events.iter().map(Event::encode).collect();
        match self.log.append(&lines, rec) {
            Ok(WriteOutcome::Full) => Ok(()),
            // Torn or refused by the fault plane: for a put, the torn
            // tail is dropped at reopen and the already-renamed blob
            // becomes an orphan that scrub adopts.
            Ok(_) => Err(StoreError::Injected {
                op: "store/journal".to_string(),
            }),
            Err(source) => Err(StoreError::Io {
                path: self.log.path().to_path_buf(),
                source,
            }),
        }
    }

    /// Journal repair `events` best-effort, then apply them regardless
    /// (the de-index wins): a reopen re-discovers a lost one as a miss.
    fn repair(&self, state: &mut State, events: Vec<Event>, rec: &Recorder) {
        let _ = self.journal(&events, rec);
        events.into_iter().for_each(|e| state.apply(e));
    }

    /// Move `hex`'s blob aside to `corrupt/` for post-mortem.
    fn move_aside(&self, hex: &str) {
        let _ = fs::create_dir_all(self.root.join("corrupt"));
        let _ = fs::rename(self.blob_path(hex), self.corrupt_path(hex));
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic mid-section can at worst leave an index entry whose
        // blob is torn; both read as a miss.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of live artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store holds no artifacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Whether `key` is present (no counter recorded — use
    /// [`get`](Self::get) for counted lookups).
    #[must_use]
    pub fn contains(&self, key: StoreKey) -> bool {
        self.lock().entries.contains_key(&key.to_hex())
    }

    /// Fully-written journal lines skipped at open because they failed
    /// to parse or verify (each cost one event, never the store).
    #[must_use]
    pub fn skipped_journal_lines(&self) -> usize {
        self.lock().skipped_lines
    }

    fn blob_path(&self, hex: &str) -> PathBuf {
        self.root.join("objects").join(format!("{hex}.jsonl"))
    }

    fn corrupt_path(&self, hex: &str) -> PathBuf {
        self.root.join("corrupt").join(format!("{hex}.jsonl"))
    }

    /// FNV checksum over payload lines exactly as they sit in the blob
    /// (each line newline-terminated).
    fn payload_sum(payload: &[String]) -> u64 {
        let mut text = String::new();
        for line in payload {
            text.push_str(line);
            text.push('\n');
        }
        fnv64(&text)
    }

    /// Read and classify a blob without touching counters or the index.
    fn read_blob(&self, hex: &str) -> BlobRead {
        let text = match fs::read_to_string(self.blob_path(hex)) {
            Ok(text) => text,
            Err(_) => return BlobRead::Missing,
        };
        if !text.ends_with('\n') {
            return BlobRead::Torn; // killed mid-write: recompute, don't quarantine
        }
        let mut lines = text.lines();
        let Some(header_line) = lines.next() else {
            return BlobRead::Torn;
        };
        let Ok(header) = json::parse_object(header_line) else {
            return BlobRead::Corrupt;
        };
        let version = header
            .get("version")
            .and_then(json::Value::as_num)
            .map(|v| v as u64);
        // Seal before version: a flipped bit in the version digits must
        // read as corruption, not as a mysteriously newer format.
        let sealed = version.is_none_or(|v| v >= 2);
        match check_seal(header_line) {
            Seal::Valid => {}
            Seal::Mismatch => return BlobRead::Corrupt,
            // Only a version-1 header (the pre-checksum format) may lack
            // a seal; anything else without a verifiable one is corrupt.
            Seal::Absent if sealed || header.contains_key("sum") => return BlobRead::Corrupt,
            Seal::Absent => {}
        }
        if version.is_some_and(|v| v > FORMAT_VERSION) {
            return BlobRead::Newer;
        }
        let sealed = version.is_some_and(|v| v >= 2);
        let sfield = |key: &str| header.get(key).and_then(json::Value::as_str);
        if sfield("store") != Some("summitfold") || version.is_none() || sfield("key") != Some(hex)
        {
            return BlobRead::Corrupt;
        }
        let Some(expected) = header.get("lines").and_then(json::Value::as_num) else {
            return BlobRead::Corrupt;
        };
        let payload: Vec<String> = lines.map(ToOwned::to_owned).collect();
        if payload.len() < expected as usize {
            return BlobRead::Torn; // truncated mid-payload
        }
        if payload.len() > expected as usize {
            return BlobRead::Corrupt; // trailing garbage after the payload
        }
        if sealed {
            let want = format!("{:016x}", Self::payload_sum(&payload));
            if sfield("psum") != Some(want.as_str()) {
                return BlobRead::Corrupt;
            }
        }
        let (Some(stage), Some(preset), Some(content)) =
            (sfield("stage"), sfield("preset"), sfield("content"))
        else {
            return BlobRead::Corrupt;
        };
        BlobRead::Ok(Artifact {
            stage: stage.to_owned(),
            preset: preset.to_owned(),
            content: content.to_owned(),
            payload,
        })
    }

    /// De-index `hex` and move its blob aside to `corrupt/`, durably
    /// (a sealed `quarantine` journal event). Counts `cache/corrupt`
    /// exactly once per entry: a second caller finds it already gone.
    fn quarantine(&self, hex: &str, rec: &Recorder) {
        {
            let mut state = self.lock();
            if !state.entries.contains_key(hex) {
                return;
            }
            self.move_aside(hex);
            let key = hex.to_owned();
            self.repair(&mut state, vec![Event::Quarantine { key }], rec);
        }
        rec.add("cache/corrupt", 1.0);
    }

    /// Read `hex`'s blob for serving: the verified artifact, or `None` —
    /// after quarantining the entry if it failed verification.
    fn read_verified(&self, hex: &str, rec: &Recorder) -> Option<Artifact> {
        match self.read_blob(hex) {
            BlobRead::Ok(artifact) => Some(artifact),
            BlobRead::Corrupt => {
                self.quarantine(hex, rec);
                None
            }
            BlobRead::Missing | BlobRead::Torn | BlobRead::Newer => None,
        }
    }

    /// Counted exact lookup: `cache/hit` on success, `cache/miss`
    /// otherwise. A torn blob (killed mid-put) is just a miss; a blob
    /// that fails verification is quarantined (`cache/corrupt`, moved to
    /// `corrupt/`, de-indexed) and *also* reads as a miss, so callers
    /// transparently recompute and re-file.
    #[must_use]
    pub fn get(&self, key: StoreKey, rec: &Recorder) -> Option<Artifact> {
        let hex = key.to_hex();
        let indexed = self.lock().entries.contains_key(&hex);
        let artifact = indexed.then(|| self.read_verified(&hex, rec)).flatten();
        if artifact.is_some() {
            rec.add("cache/hit", 1.0);
        } else {
            rec.add("cache/miss", 1.0);
        }
        artifact
    }

    /// [`get`](Self::get), additionally stamping `task`'s journey with
    /// the lookup outcome (`lineage/cache_hit` or `lineage/cache_miss`)
    /// at the recorder's current clock reading.
    ///
    /// The counted lookup stays the single `cache/*` recording site;
    /// this wrapper only adds the causal breadcrumb that ties the
    /// outcome to a task id, which the aggregate counters cannot carry.
    /// Used by callers that know which task the key belongs to — the
    /// folding service's admission loop, task-labelled pipeline stages.
    #[must_use]
    pub fn get_for_task(&self, key: StoreKey, task: &str, rec: &Recorder) -> Option<Artifact> {
        let artifact = self.get(key, rec);
        let t = rec.now();
        if artifact.is_some() {
            lineage::cache_hit(rec, task, t);
        } else {
            lineage::cache_miss(rec, task, t);
        }
        artifact
    }

    /// Near-duplicate lookup after a miss: find the stored artifact of
    /// the same `(stage, preset)` whose sequence is most similar to
    /// `query` at ≥ the configured identity, using the k-mer prefilter +
    /// banded Smith–Waterman neighborhood check from the BFD clustering.
    ///
    /// The best candidate is chosen by `(identity desc, key asc)`, so the
    /// result is independent of insertion order. Records `cache/near_hit`
    /// (and observes the applied discount) on success; records nothing on
    /// failure — the preceding [`get`](Self::get) already counted the
    /// miss.
    #[must_use]
    pub fn near_lookup(
        &self,
        stage: &str,
        preset: &str,
        query: &Sequence,
        rec: &Recorder,
    ) -> Option<(NearHit, Artifact)> {
        let candidates: Vec<(String, Sequence)> = {
            let state = self.lock();
            state
                .entries
                .iter()
                .filter(|(_, m)| m.stage == stage && m.preset == preset)
                .filter_map(|(hex, m)| {
                    let letters = m.content.split('|').next().unwrap_or("");
                    Sequence::parse(hex, "", letters)
                        .ok()
                        .map(|s| (hex.clone(), s))
                })
                .collect()
        };
        if candidates.is_empty() {
            return None;
        }
        let seqs: Vec<Sequence> = candidates.iter().map(|(_, s)| s.clone()).collect();
        let index = KmerIndex::build(&seqs);
        let mut best: Option<(f64, &str)> = None;
        for (cand, _) in index.candidates(query, 4) {
            let (hex, seq) = &candidates[cand];
            let Some(identity) = neighborhood_identity(query, seq) else {
                continue;
            };
            if identity < self.cfg.near_identity {
                continue;
            }
            // Deterministic best regardless of candidate order:
            // highest identity, ties broken by smallest key.
            let better = match best {
                None => true,
                Some((bi, bh)) => identity > bi || (identity == bi && hex.as_str() < bh),
            };
            if better {
                best = Some((identity, hex));
            }
        }
        let (identity, hex) = best?;
        let artifact = self.read_verified(hex, rec)?;
        let near = NearHit {
            key: StoreKey::from_hex(hex)?,
            identity,
            discount: quality_discount(identity),
        };
        rec.add("cache/near_hit", 1.0);
        rec.observe("cache/near_hit_discount", near.discount);
        Some((near, artifact))
    }

    /// [`near_lookup`](Self::near_lookup), additionally stamping
    /// `task`'s journey with `lineage/cache_near_hit` when a neighbor
    /// is found (nothing on failure — the preceding exact lookup
    /// already stamped the miss).
    #[must_use]
    pub fn near_lookup_for_task(
        &self,
        stage: &str,
        preset: &str,
        query: &Sequence,
        task: &str,
        rec: &Recorder,
    ) -> Option<(NearHit, Artifact)> {
        let found = self.near_lookup(stage, preset, query, rec);
        if found.is_some() {
            lineage::cache_near_hit(rec, task, rec.now());
        }
        found
    }

    /// Insert (or overwrite) an artifact under its content-derived key.
    /// Records `cache/put`, plus `cache/evicted` per victim when the
    /// capacity cap is exceeded (oldest insertion first).
    ///
    /// Crash consistency is *enforced*, not just documented: the blob is
    /// written to a temporary file and renamed into place **before** the
    /// journal append that keys it, and the in-memory index mutates only
    /// after both writes land. A kill before the rename leaves an orphan
    /// `.tmp` ([`scrub`](Self::scrub) removes it); a kill between the
    /// rename and the journal append leaves a valid unkeyed blob
    /// (`scrub` adopts it); a kill mid-append leaves a torn journal tail
    /// (dropped at reopen). No ordering leaves a keyed-but-unreadable
    /// artifact.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the blob or journal cannot be written;
    /// [`StoreError::Injected`] when an armed fault fires.
    pub fn put(&self, artifact: &Artifact, rec: &Recorder) -> Result<StoreKey, StoreError> {
        let key = artifact.key();
        let hex = key.to_hex();

        // Serialize outside any lock.
        let mut header = ObjectWriter::new();
        header.str_field("store", "summitfold");
        header.int_field("version", FORMAT_VERSION);
        header.str_field("key", &hex);
        header.str_field("stage", &artifact.stage);
        header.str_field("preset", &artifact.preset);
        header.str_field("content", &artifact.content);
        header.int_field("lines", artifact.payload.len() as u64);
        header.str_field(
            "psum",
            &format!("{:016x}", Self::payload_sum(&artifact.payload)),
        );
        let mut blob = header.finish_sealed();
        blob.push('\n');
        for line in &artifact.payload {
            blob.push_str(line);
            blob.push('\n');
        }

        let mut state = self.lock();
        let io = |path: &Path, source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        let injected = |op: &str| StoreError::Injected { op: op.to_string() };

        // Plan eviction victims (oldest insertions beyond the cap)
        // without touching the index yet: memory mutates only after the
        // disk writes succeed.
        let will_insert = !state.entries.contains_key(&hex);
        let mut victims: Vec<String> = Vec::new();
        if let Some(cap) = self.cfg.max_entries {
            let mut size = state.entries.len() + usize::from(will_insert);
            let mut pool: Vec<(u64, String)> = state
                .entries
                .iter()
                .filter(|(h, _)| h.as_str() != hex)
                .map(|(h, m)| (m.seq, h.clone()))
                .collect();
            pool.sort();
            let mut oldest = pool.into_iter();
            while size > cap.max(1) {
                let Some((_, victim)) = oldest.next() else {
                    break;
                };
                victims.push(victim);
                size -= 1;
            }
        }

        // Blob first: tmp write + rename, gated by the fault plane.
        let tmp = self.blob_path(&format!("{hex}.tmp"));
        let dest = self.blob_path(&hex);
        let mut blob_bytes = blob.into_bytes();
        match self.faults.on_write("store/blob", &mut blob_bytes, rec) {
            WriteOutcome::Full => {
                fs::write(&tmp, &blob_bytes).map_err(|e| io(&tmp, e))?;
                fs::rename(&tmp, &dest).map_err(|e| io(&dest, e))?;
            }
            WriteOutcome::Torn(k) => {
                // Killed mid-tmp-write: the orphan .tmp is all that
                // lands — never a keyed artifact.
                let _ = fs::write(&tmp, &blob_bytes[..k]);
                return Err(injected("store/blob"));
            }
            WriteOutcome::Fail => return Err(injected("store/blob")),
        }

        // Journal second — the append is what keys the blob — and the
        // index only after both writes landed.
        let mut events = vec![Event::Put {
            key: hex,
            stage: artifact.stage.clone(),
            preset: artifact.preset.clone(),
            content: artifact.content.clone(),
        }];
        events.extend(victims.iter().map(|v| Event::Evict { key: v.clone() }));
        self.journal(&events, rec)?;
        events.into_iter().for_each(|e| state.apply(e));
        let evicted = victims.len();
        for victim in &victims {
            let _ = fs::remove_file(self.blob_path(victim));
        }
        drop(state);

        rec.add("cache/put", 1.0);
        if evicted > 0 {
            rec.add("cache/evicted", evicted as f64);
        }
        Ok(key)
    }

    /// Offline verification and repair pass over the whole store.
    ///
    /// * verifies every indexed blob, quarantining corrupt ones
    ///   (`cache/corrupt`, same path as a failed [`get`](Self::get)) and
    ///   de-indexing torn or missing ones;
    /// * removes orphan `.tmp` files from puts killed before the rename;
    /// * *adopts* valid orphan blobs whose journal append was lost (a
    ///   kill between the blob rename and the append): they are keyed
    ///   back into the index with a fresh sealed `put` line, so the
    ///   completed work is not recomputed.
    ///
    /// Idempotent: a second scrub of an undisturbed store reports all
    /// zeros (except `checked`).
    pub fn scrub(&self, rec: &Recorder) -> ScrubReport {
        let mut report = ScrubReport::default();
        {
            let mut state = self.lock();
            let mut events: Vec<Event> = Vec::new();

            // Pass 1: verify every indexed entry.
            for hex in state.entries.keys() {
                report.checked += 1;
                match self.read_blob(hex) {
                    BlobRead::Ok(_) | BlobRead::Newer => {}
                    BlobRead::Corrupt => {
                        self.move_aside(hex);
                        events.push(Event::Quarantine { key: hex.clone() });
                        report.quarantined += 1;
                    }
                    BlobRead::Missing | BlobRead::Torn => {
                        let _ = fs::remove_file(self.blob_path(hex));
                        events.push(Event::Evict { key: hex.clone() });
                        report.torn_dropped += 1;
                    }
                }
            }

            // Pass 2: sweep the objects directory for tmp leftovers and
            // unkeyed blobs (deterministic order). Pass 1 removed or
            // moved every blob it de-indexes, so none of them resurface.
            let mut names: Vec<String> = fs::read_dir(self.root.join("objects"))
                .ok()
                .into_iter()
                .flatten()
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .collect();
            names.sort();
            for name in names {
                if name.ends_with(".tmp.jsonl") {
                    let _ = fs::remove_file(self.root.join("objects").join(&name));
                    report.tmp_removed += 1;
                    continue;
                }
                let Some(hex) = name.strip_suffix(".jsonl") else {
                    continue;
                };
                if StoreKey::from_hex(hex).is_none() || state.entries.contains_key(hex) {
                    continue;
                }
                match self.read_blob(hex) {
                    BlobRead::Ok(artifact) if artifact.key().to_hex() == hex => {
                        events.push(Event::Put {
                            key: hex.to_owned(),
                            stage: artifact.stage,
                            preset: artifact.preset,
                            content: artifact.content,
                        });
                        report.adopted += 1;
                    }
                    BlobRead::Newer => {}
                    // An orphan that fails verification was never keyed
                    // and never served: move it aside uncounted.
                    _ => self.move_aside(hex),
                }
            }
            self.repair(&mut state, events, rec);
        }
        // Counters after the guard drops, one per quarantined entry —
        // the same cadence as the read path.
        for _ in 0..report.quarantined {
            rec.add("cache/corrupt", 1.0);
        }
        report
    }
}

/// What [`Store::scrub`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Indexed entries verified.
    pub checked: usize,
    /// Indexed entries quarantined (failed verification).
    pub quarantined: usize,
    /// Indexed entries dropped because the blob was torn or missing.
    pub torn_dropped: usize,
    /// Orphan `.tmp` files removed (puts killed before the rename).
    pub tmp_removed: usize,
    /// Valid orphan blobs adopted back into the index (puts killed
    /// between the blob rename and the journal append).
    pub adopted: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use summitfold_obs::Trace;
    use summitfold_protein::rng::Xoshiro256;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_root(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "summitfold-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn counter(rec: &Recorder, name: &str) -> f64 {
        Trace::from_events(rec.events())
            .counter_totals()
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    fn art(stage: &str, content: &str) -> Artifact {
        Artifact::new(
            stage,
            "p",
            content,
            vec![format!("{{\"x\":\"{content}\"}}")],
        )
    }

    #[test]
    fn put_get_round_trip_with_counters() {
        let root = scratch_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let rec = Recorder::virtual_time();
        let a = art("feature_gen", "ACDEF");
        assert!(store.get(a.key(), &rec).is_none());
        store.put(&a, &rec).unwrap();
        assert!(store.contains(a.key()));
        assert_eq!(store.get(a.key(), &rec).as_ref(), Some(&a));
        assert_eq!(counter(&rec, "cache/miss"), 1.0);
        assert_eq!(counter(&rec, "cache/hit"), 1.0);
        assert_eq!(counter(&rec, "cache/put"), 1.0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_recovers_the_index() {
        let root = scratch_root("reopen");
        let rec = Recorder::virtual_time();
        let a = art("inference", "MKVL");
        {
            let store = Store::open(&root).unwrap();
            store.put(&a, &rec).unwrap();
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(a.key(), &rec).as_ref(), Some(&a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_journal_tail_reads_as_a_miss() {
        let root = scratch_root("torn-journal");
        let rec = Recorder::virtual_time();
        let a = art("feature_gen", "ACDEF");
        let b = art("feature_gen", "MKVLY");
        {
            let store = Store::open(&root).unwrap();
            store.put(&a, &rec).unwrap();
            store.put(&b, &rec).unwrap();
        }
        // Kill mid-append: chop the journal anywhere inside its final
        // line — the last cut leaves the line complete but for its
        // newline, which is still not a record. Whatever the cut, two
        // opens in a row build the index of a journal that simply ends
        // after the first put, and that is what is left on disk.
        let journal = root.join("store.jsonl");
        let text = fs::read_to_string(&journal).unwrap();
        let first_line = &text[..=text.find('\n').unwrap()];
        for cut in first_line.len() + 1..text.len() {
            fs::write(&journal, &text[..cut]).unwrap();
            for open in ["first", "second"] {
                let store = Store::open(&root).unwrap();
                assert_eq!(store.len(), 1, "{open} open, cut {cut}: torn put dropped");
                assert_eq!(store.skipped_journal_lines(), 0, "torn is not corrupt");
                assert!(store.get(a.key(), &rec).is_some());
                assert!(store.get(b.key(), &rec).is_none(), "{open} open, cut {cut}");
                assert_eq!(fs::read_to_string(&journal).unwrap(), first_line);
            }
        }
        // Re-putting the lost artifact heals the store.
        let store = Store::open(&root).unwrap();
        store.put(&b, &rec).unwrap();
        assert!(store.get(b.key(), &rec).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_blob_reads_as_a_miss() {
        let root = scratch_root("torn-blob");
        let rec = Recorder::virtual_time();
        let a = art("relaxation", "ACDEFGHIK");
        let store = Store::open(&root).unwrap();
        store.put(&a, &rec).unwrap();
        let blob = root.join("objects").join(format!("{}.jsonl", a.key()));
        let text = fs::read_to_string(&blob).unwrap();
        fs::write(&blob, &text[..text.len() - 4]).unwrap();
        assert!(store.get(a.key(), &rec).is_none(), "torn payload is a miss");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fully_written_garbage_journal_lines_are_skipped_not_fatal() {
        let root = scratch_root("garbage");
        let rec = Recorder::virtual_time();
        let a = art("feature_gen", "ACDEF");
        {
            let store = Store::open(&root).unwrap();
            store.put(&a, &rec).unwrap();
        }
        // Corrupt the journal: prepend a garbage line and append a
        // fully-written (newline-terminated) bit-flipped copy of a line.
        let journal = root.join("store.jsonl");
        let text = fs::read_to_string(&journal).unwrap();
        let mut flipped = text.trim_end().to_string().into_bytes();
        flipped[10] ^= 0x08;
        let mut rebuilt = String::from("not json\n");
        rebuilt.push_str(&text);
        rebuilt.push_str(&String::from_utf8(flipped).unwrap());
        rebuilt.push('\n');
        fs::write(&journal, rebuilt).unwrap();

        let store = Store::open(&root).expect("damaged journal still opens");
        assert_eq!(store.skipped_journal_lines(), 2, "garbage + flipped line");
        assert_eq!(store.len(), 1, "the intact put survived");
        assert_eq!(store.get(a.key(), &rec).as_ref(), Some(&a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn journals_written_before_the_log_primitive_open_with_the_same_index() {
        // Literal lines as the previous implementation wrote them: a
        // version-1 (unsealed) put, then sealed put / evict / quarantine
        // lines — and what this build writes must be those same bytes.
        let key = |content: &str| StoreKey::derive("feature_gen", "p", content).to_hex();
        let (k1, k2, k3) = (key("ACDEF"), key("MKVLY"), key("WWWWW"));
        let sealed = |body: String| {
            let sum = fnv64(&format!("{{{body}}}"));
            format!("{{{body},\"sum\":\"{sum:016x}\"}}\n")
        };
        let put = |k: &str, content: &str| {
            format!(
                "\"event\":\"put\",\"key\":\"{k}\",\"stage\":\"feature_gen\",\
                 \"preset\":\"p\",\"content\":\"{content}\""
            )
        };
        let fixture = [
            format!("{{{}}}\n", put(&k1, "ACDEF")),
            sealed(put(&k2, "MKVLY")),
            sealed(put(&k3, "WWWWW")),
            sealed(format!("\"event\":\"evict\",\"key\":\"{k2}\"")),
            sealed(format!("\"event\":\"quarantine\",\"key\":\"{k3}\"")),
        ];
        let root = scratch_root("head-format");
        fs::create_dir_all(root.join("objects")).unwrap();
        fs::write(root.join("store.jsonl"), fixture.concat()).unwrap();
        let store = Store::open(&root).unwrap();
        assert_eq!(store.skipped_journal_lines(), 0);
        assert_eq!(
            store.len(),
            1,
            "k2 evicted, k3 quarantined, the v1 put live"
        );
        assert!(store.contains(StoreKey::from_hex(&k1).unwrap()));
        // And back: the encoder reproduces the sealed fixture lines.
        let events = [
            Event::Put {
                key: k2.clone(),
                stage: "feature_gen".into(),
                preset: "p".into(),
                content: "MKVLY".into(),
            },
            Event::Evict { key: k2 },
            Event::Quarantine { key: k3 },
        ];
        for (event, want) in events.iter().zip([&fixture[1], &fixture[3], &fixture[4]]) {
            assert_eq!(format!("{}\n", event.encode()), *want);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_blob_is_quarantined_once_and_reads_as_miss() {
        let root = scratch_root("quarantine");
        let rec = Recorder::virtual_time();
        let a = art("inference", "MKVLY");
        let store = Store::open(&root).unwrap();
        store.put(&a, &rec).unwrap();
        // Flip one bit inside the payload.
        let hex = a.key().to_hex();
        let blob = root.join("objects").join(format!("{hex}.jsonl"));
        let mut bytes = fs::read(&blob).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        fs::write(&blob, &bytes).unwrap();

        assert!(store.get(a.key(), &rec).is_none(), "corrupt reads as miss");
        assert_eq!(counter(&rec, "cache/corrupt"), 1.0);
        assert!(!store.contains(a.key()), "quarantine de-indexes");
        assert!(
            root.join("corrupt").join(format!("{hex}.jsonl")).exists(),
            "blob moved aside, not destroyed"
        );
        // Second lookup: plain miss, no double count.
        assert!(store.get(a.key(), &rec).is_none());
        assert_eq!(counter(&rec, "cache/corrupt"), 1.0);
        // Quarantine is durable across reopen.
        drop(store);
        let store = Store::open(&root).unwrap();
        assert!(!store.contains(a.key()));
        // Recompute-and-refile heals the entry.
        store.put(&a, &rec).unwrap();
        assert_eq!(store.get(a.key(), &rec).as_ref(), Some(&a));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_blob_tear_leaves_no_keyed_artifact() {
        use summitfold_dataflow::chaos::{FaultPlan, IoFault};
        let root = scratch_root("fault-blob");
        let rec = Recorder::virtual_time();
        let faults = FaultPlan::new()
            .io(IoFault::torn("store/blob", 0, 12))
            .arm();
        let store = Store::open_with_faults(&root, StoreConfig::default(), faults.clone()).unwrap();
        let a = art("feature_gen", "ACDEF");
        match store.put(&a, &rec) {
            Err(StoreError::Injected { op }) => assert_eq!(op, "store/blob"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(faults.is_killed());
        assert!(!store.contains(a.key()));
        // Reopen as the next process would: only an orphan .tmp exists;
        // scrub removes it and adopts nothing.
        drop(store);
        let store = Store::open(&root).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.get(a.key(), &rec).is_none(), "never keyed");
        let report = store.scrub(&rec);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.adopted, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn kill_between_blob_and_journal_is_adopted_by_scrub() {
        use summitfold_dataflow::chaos::{FaultPlan, IoFault};
        let root = scratch_root("fault-journal");
        let rec = Recorder::virtual_time();
        let faults = FaultPlan::new()
            .io(IoFault::torn("store/journal", 1, 7))
            .arm();
        let store = Store::open_with_faults(&root, StoreConfig::default(), faults).unwrap();
        let a = art("feature_gen", "ACDEF");
        let b = art("feature_gen", "MKVLY");
        store.put(&a, &rec).unwrap();
        match store.put(&b, &rec) {
            Err(StoreError::Injected { op }) => assert_eq!(op, "store/journal"),
            other => panic!("unexpected {other:?}"),
        }
        drop(store);

        // Next process: the torn journal tail is dropped, so b's blob is
        // a valid orphan. It reads as a miss until scrub adopts it.
        let store = Store::open(&root).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.get(b.key(), &rec).is_none());
        let report = store.scrub(&rec);
        assert_eq!(report.adopted, 1, "completed blob re-keyed");
        assert_eq!(report.quarantined, 0);
        assert_eq!(store.get(b.key(), &rec).as_ref(), Some(&b));
        // Adoption is durable and scrub is idempotent.
        drop(store);
        let store = Store::open(&root).unwrap();
        assert_eq!(store.get(b.key(), &rec).as_ref(), Some(&b));
        let again = store.scrub(&rec);
        assert_eq!(
            again,
            ScrubReport {
                checked: 2,
                ..ScrubReport::default()
            }
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_killed_handle_journals_nothing_not_even_a_quarantine() {
        use summitfold_dataflow::chaos::{FaultPlan, IoFault};
        let root = scratch_root("fault-dead");
        let rec = Recorder::virtual_time();
        let faults = FaultPlan::new().io(IoFault::kill("store/blob", 1)).arm();
        let store = Store::open_with_faults(&root, StoreConfig::default(), faults.clone()).unwrap();
        let a = art("feature_gen", "ACDEF");
        store.put(&a, &rec).unwrap();
        match store.put(&art("feature_gen", "MKVLY"), &rec) {
            Err(StoreError::Injected { op }) => assert_eq!(op, "store/blob"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(faults.is_killed());
        let journal = root.join("store.jsonl");
        let at_the_kill = fs::read(&journal).unwrap();
        // Corrupt a's blob: the dead process still degrades the lookup
        // to a counted miss in memory, but writes nothing — neither
        // from the read path nor from scrub.
        let blob = root.join("objects").join(format!("{}.jsonl", a.key()));
        let mut bytes = fs::read(&blob).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        fs::write(&blob, &bytes).unwrap();
        assert!(store.get(a.key(), &rec).is_none());
        assert_eq!(counter(&rec, "cache/miss"), 1.0);
        assert_eq!(counter(&rec, "cache/corrupt"), 1.0);
        assert!(!store.contains(a.key()), "the in-memory de-index wins");
        let _ = store.scrub(&rec);
        assert_eq!(fs::read(&journal).unwrap(), at_the_kill);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scrub_quarantines_corrupt_and_drops_torn_entries() {
        let root = scratch_root("scrub");
        let rec = Recorder::virtual_time();
        let store = Store::open(&root).unwrap();
        let good = art("feature_gen", "AAAA");
        let bad = art("feature_gen", "CCCC");
        let torn = art("feature_gen", "DDDD");
        for a in [&good, &bad, &torn] {
            store.put(a, &rec).unwrap();
        }
        // Corrupt `bad` (flip a payload bit) and tear `torn`.
        let flip = root
            .join("objects")
            .join(format!("{}.jsonl", bad.key().to_hex()));
        let mut bytes = fs::read(&flip).unwrap();
        let at = bytes.len() - 4;
        bytes[at] ^= 0x01;
        fs::write(&flip, bytes).unwrap();
        let tear = root
            .join("objects")
            .join(format!("{}.jsonl", torn.key().to_hex()));
        let text = fs::read_to_string(&tear).unwrap();
        fs::write(&tear, &text[..text.len() - 3]).unwrap();

        let report = store.scrub(&rec);
        assert_eq!(report.checked, 3);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.torn_dropped, 1);
        assert_eq!(counter(&rec, "cache/corrupt"), 1.0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(good.key(), &rec).as_ref(), Some(&good));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_is_oldest_first_and_counted() {
        let root = scratch_root("evict");
        let rec = Recorder::virtual_time();
        let store = Store::open_with(
            &root,
            StoreConfig {
                max_entries: Some(2),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let arts = [
            art("feature_gen", "AAAA"),
            art("feature_gen", "CCCC"),
            art("feature_gen", "DDDD"),
        ];
        for a in &arts {
            store.put(a, &rec).unwrap();
        }
        assert_eq!(store.len(), 2);
        assert!(!store.contains(arts[0].key()), "oldest evicted");
        assert!(store.contains(arts[2].key()));
        assert_eq!(counter(&rec, "cache/evicted"), 1.0);
        // Eviction survives reopen (journal records it).
        drop(store);
        let store = Store::open(&root).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.contains(arts[0].key()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn near_lookup_finds_the_best_neighbor_order_independently() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let base = Sequence::random("b", 160, &mut rng);
        let near = base.mutated("n", 0.02, &mut rng); // ~98% identical
        let nearer = base.mutated("m", 0.005, &mut rng); // ~99.5% identical
        let far = Sequence::random("f", 160, &mut rng);
        let rec = Recorder::virtual_time();

        let mut results = Vec::new();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let root = scratch_root("near");
            let store = Store::open(&root).unwrap();
            let pool = [&near, &nearer, &far];
            for &i in &order {
                let s = pool[i];
                store
                    .put(
                        &Artifact::new("feature_gen", "p", &s.to_letters(), vec![]),
                        &rec,
                    )
                    .unwrap();
            }
            let hit = store.near_lookup("feature_gen", "p", &base, &rec);
            let (nh, artifact) = hit.expect("a ≥90% neighbor exists");
            assert_eq!(artifact.sequence_letters(), nearer.to_letters());
            assert!(nh.identity > 0.98);
            assert!(nh.discount < 0.2);
            results.push(nh);
            let _ = fs::remove_dir_all(&root);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(counter(&rec, "cache/near_hit"), 3.0);
    }

    #[test]
    fn near_lookup_respects_stage_preset_and_threshold() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let base = Sequence::random("b", 150, &mut rng);
        let hom = base.mutated("h", 0.3, &mut rng); // ~70% identity
        let rec = Recorder::virtual_time();
        let root = scratch_root("near-neg");
        let store = Store::open(&root).unwrap();
        store
            .put(
                &Artifact::new("feature_gen", "p", &hom.to_letters(), vec![]),
                &rec,
            )
            .unwrap();
        assert!(
            store.near_lookup("feature_gen", "p", &base, &rec).is_none(),
            "70% identity is below the 90% threshold"
        );
        store
            .put(
                &Artifact::new("inference", "p", &base.to_letters(), vec![]),
                &rec,
            )
            .unwrap();
        assert!(
            store.near_lookup("feature_gen", "p", &base, &rec).is_none(),
            "stage must match"
        );
        assert_eq!(counter(&rec, "cache/near_hit"), 0.0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn discount_model_shape() {
        assert_eq!(quality_discount(1.0), 0.0);
        assert!((quality_discount(0.98) - 0.1).abs() < 1e-9);
        assert!((quality_discount(0.9) - 0.5).abs() < 1e-9);
        assert_eq!(quality_discount(0.5), 1.0);
    }
}
