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
//!   sequence that is ≥ 90 % identical to a stored neighbor
//!   returns the neighbor's artifact at a recorded quality discount — the
//!   AF_Cache observation that a 99 %-identical sequence can reuse the
//!   clustered MSA neighborhood. The search is the BFD clustering's
//!   ([`summitfold_msa::cluster`]), **index → bound → align**:
//!   - *index*: one resident [`KmerIndex`] per `(stage, preset)` — a
//!     slot and a parsed [`Sequence`] per entry — folded from the live
//!     entries the first time the pair is near-looked-up and from then
//!     on maintained by the same single `apply` that maintains the key
//!     index (insert on `put`, remove on `evict` / `quarantine`). A
//!     store that is never near-looked-up never builds one. Its
//!     `candidates(query, 4)` prefilter still passes most unrelated
//!     proteins;
//!   - *bound*: [`min_shared_kmers`](summitfold_msa::cluster::min_shared_kmers)
//!     is an exact lower bound on the k-mers a pair must share to be
//!     reported at ≥ 90 % identity. Smith–Waterman's traceback is a
//!     diagonal walk, so an accepted pair's `c ≥ 0.8·shorter` columns
//!     are one contiguous diagonal run with ≤ `(1 − τ)·c` mismatches,
//!     each spoiling ≤ 3 of its `c − 2` windows: the pair shares at
//!     least `(3τ − 2)·0.8·shorter − 2 − repeated` distinct query
//!     k-mers (`repeated` = query windows minus distinct query words).
//!     A candidate below that is dropped unaligned; the bound would not
//!     survive a traceback that walks through gaps;
//!   - *align*: banded Smith–Waterman judges the few survivors and
//!     stays the only judge of identity. The result is bit-identical to
//!     aligning every stored sequence.
//! * **Counters**: every lookup outcome is recorded through the caller's
//!   [`Recorder`] under `cache/{hit,miss,near_hit,put,evicted}` — and
//!   *only here*, so the counter semantics cannot drift between call
//!   sites or executors (sfcheck's metric-ownership rule maps the
//!   `cache/` prefix to this file).
//!
//! # Concurrency and lock discipline
//!
//! The store is `Sync`: a single mutex guards the key index and the
//! resident near indexes. Exact lookups take it for the index probe
//! only; puts hold it across their journal/blob IO — every `Log::append`
//! is called with the guard held, so events reach the file in the order
//! they reach the index. A near-duplicate lookup holds it for *index*
//! and *bound* — microseconds — clones the survivors, and releases it:
//! no Smith–Waterman alignment ever runs under the store's mutex, so a
//! slow lookup cannot stall a put and concurrent lookups align in
//! parallel. (A survivor evicted in that window reads as a miss at the
//! final blob read, exactly as an entry evicted between an exact probe
//! and its read does.) Appends are line-atomic so a killed writer leaves
//! an at-worst-torn-tail journal, and the store never calls back into
//! user code while holding its guard, so the guard cannot participate in
//! a lock cycle.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use summitfold_dataflow::chaos::{IoFaults, WriteOutcome};
use summitfold_dataflow::log::Log;
use summitfold_msa::cluster::{neighbor_candidates, neighborhood_identity};
use summitfold_msa::kmer::KmerIndex;
use summitfold_obs::json::{self, check_seal, fnv64_chunks, ObjectWriter, Seal};
use summitfold_obs::{lineage, Recorder};
use summitfold_protein::seq::Sequence;

mod key;

pub use key::StoreKey;

/// On-disk format version written into every blob header; readers reject
/// (miss) anything newer. Version 2 added sealed journal lines and blob
/// checksums; version-1 records are still read, unverified.
pub const FORMAT_VERSION: u64 = 2;

/// Identity threshold for [`Store::near_lookup`]: the BFD clustering's
/// 0.9 for "near-identical".
const NEAR_IDENTITY: f64 = 0.9;

/// Configuration for a [`Store`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {
    /// Capacity cap: inserting beyond it evicts the oldest artifacts
    /// (insertion order, `cache/evicted` counted per victim). `None`
    /// disables eviction.
    pub max_entries: Option<usize>,
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
        sequence_letters(&self.content)
    }
}

/// The sequence part of an artifact's `content`: everything before the
/// first `|`.
fn sequence_letters(content: &str) -> &str {
    content.split('|').next().unwrap_or("")
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
        let field = |name: &str| obj.str(name).ok().map(str::to_owned);
        let key = field("key")?;
        match obj.str("event").ok()? {
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

/// The resident near-duplicate index of one `(stage, preset)`: a k-mer
/// index over the entries' sequences plus, per slot, the parsed sequence
/// the slot was filled from.
#[derive(Debug)]
struct NearIndex {
    stage: String,
    preset: String,
    kmers: KmerIndex,
    /// `subjects[slot]`, its `id` the entry's hex key.
    subjects: Vec<Option<Sequence>>,
    /// Hex key → slot. Entries whose content is not a residue string
    /// have neither.
    slot_of: BTreeMap<String, usize>,
}

impl NearIndex {
    fn insert(&mut self, hex: &str, content: &str) {
        let Ok(seq) = Sequence::parse(hex, "", sequence_letters(content)) else {
            return;
        };
        let slot = self.kmers.insert(&seq);
        if slot == self.subjects.len() {
            self.subjects.push(None);
        }
        self.subjects[slot] = Some(seq);
        self.slot_of.insert(hex.to_owned(), slot);
    }

    fn remove(&mut self, hex: &str) {
        let Some(slot) = self.slot_of.remove(hex) else {
            return;
        };
        if let Some(seq) = self.subjects[slot].take() {
            self.kmers.remove(slot, &seq);
        }
    }

    /// The stored sequences that can still be `query`'s neighbour at
    /// ≥ `identity` — index, then bound; aligning them is the caller's.
    fn survivors(&self, query: &Sequence, identity: f64) -> Vec<Sequence> {
        let subject = |slot: usize| self.subjects[slot].as_ref();
        let len = |slot| subject(slot).map_or(0, Sequence::len);
        neighbor_candidates(&self.kmers, query, identity, len)
            .into_iter()
            .filter_map(|slot| subject(slot).cloned())
            .collect()
    }
}

#[derive(Debug, Default)]
struct State {
    /// Key (hex) → metadata. BTreeMap so every derived iteration is
    /// deterministic.
    entries: BTreeMap<String, Meta>,
    next_seq: u64,
    /// Fully-written journal lines that failed to parse or verify at
    /// open and were skipped (a bit flipped in the journal costs that
    /// line's event, never the whole store).
    skipped_lines: usize,
    /// One resident index per `(stage, preset)` that has been
    /// near-looked-up; a pair never asked about has none and costs
    /// [`apply`](Self::apply) nothing.
    near: Vec<NearIndex>,
}

impl State {
    /// The one index transition — open replays recovered events through
    /// it; `put`, quarantine and `scrub` apply what they just appended.
    /// Whatever the event, the key's previous entry is gone first, from
    /// `entries` and from its resident near index alike.
    fn apply(&mut self, event: Event) {
        let (Event::Put { key, .. } | Event::Evict { key } | Event::Quarantine { key }) = &event;
        if let Some(old) = self.entries.remove(key) {
            if let Some(at) = self.near_position(&old.stage, &old.preset) {
                self.near[at].remove(key);
            }
        }
        if let Event::Put {
            key,
            stage,
            preset,
            content,
        } = event
        {
            if let Some(at) = self.near_position(&stage, &preset) {
                self.near[at].insert(&key, &content);
            }
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
    }

    fn near_position(&self, stage: &str, preset: &str) -> Option<usize> {
        self.near
            .iter()
            .position(|n| n.stage == stage && n.preset == preset)
    }

    /// The resident index of `(stage, preset)`, folded from the live
    /// entries the first time the pair is asked about and kept current
    /// by [`apply`](Self::apply) from then on.
    fn near_index(&mut self, stage: &str, preset: &str) -> &NearIndex {
        let at = self.near_position(stage, preset).unwrap_or_else(|| {
            let mut near = NearIndex {
                stage: stage.to_owned(),
                preset: preset.to_owned(),
                kmers: KmerIndex::default(),
                subjects: Vec::new(),
                slot_of: BTreeMap::new(),
            };
            for (hex, m) in &self.entries {
                if m.stage == stage && m.preset == preset {
                    near.insert(hex, &m.content);
                }
            }
            self.near.push(near);
            self.near.len() - 1
        });
        &self.near[at]
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
        fnv64_chunks(payload.iter().flat_map(|line| [line.as_str(), "\n"]))
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
        // Never a cast: a `version` or `lines` of 2.5 is corruption.
        let Ok(version) = header.uint::<u64>("version") else {
            return BlobRead::Corrupt;
        };
        // Seal before version: a flipped bit in the version digits must
        // read as corruption, not as a mysteriously newer format.
        let sealed = version >= 2;
        match check_seal(header_line) {
            Seal::Valid => {}
            Seal::Mismatch => return BlobRead::Corrupt,
            // Only a version-1 header (the pre-checksum format) may lack
            // a seal; anything else without a verifiable one is corrupt.
            Seal::Absent if sealed || header.contains_key("sum") => return BlobRead::Corrupt,
            Seal::Absent => {}
        }
        if version > FORMAT_VERSION {
            return BlobRead::Newer;
        }
        let sfield = |key: &str| header.str(key).ok();
        if sfield("store") != Some("summitfold") || sfield("key") != Some(hex) {
            return BlobRead::Corrupt;
        }
        let Ok(expected) = header.uint::<usize>("lines") else {
            return BlobRead::Corrupt;
        };
        let payload: Vec<String> = lines.map(ToOwned::to_owned).collect();
        if payload.len() < expected {
            return BlobRead::Torn; // truncated mid-payload
        }
        if payload.len() > expected {
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

    /// The locked half of [`near_lookup`](Self::near_lookup): index →
    /// bound over the resident index of `(stage, preset)`, then clones of
    /// the few sequences left standing. The guard drops on return, so no
    /// alignment ever runs under it.
    fn near_survivors(&self, stage: &str, preset: &str, query: &Sequence) -> Vec<Sequence> {
        self.lock()
            .near_index(stage, preset)
            .survivors(query, NEAR_IDENTITY)
    }

    /// Near-duplicate lookup after a miss: find the stored artifact of
    /// the same `(stage, preset)` whose sequence is most similar to
    /// `query` at ≥ 90 % identity — index → bound → align, the
    /// neighbour search of the BFD clustering
    /// ([`summitfold_msa::cluster`]), with only the first two steps under
    /// the store's lock.
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
        let survivors = self.near_survivors(stage, preset, query);
        // Highest identity, ties broken by smallest key: the same answer
        // whatever order the survivors come in.
        let (identity, hex) = survivors
            .iter()
            .filter_map(|seq| Some((neighborhood_identity(query, seq)?, seq.id.as_str())))
            .filter(|&(identity, _)| identity >= NEAR_IDENTITY)
            .min_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(b.1)))?;
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
        // disk writes succeed. A put that fits plans nothing.
        let mut victims: Vec<String> = Vec::new();
        if let Some(cap) = self.cfg.max_entries {
            let size = state.entries.len() + usize::from(!state.entries.contains_key(&hex));
            let excess = size.saturating_sub(cap.max(1));
            if excess > 0 {
                let mut pool: Vec<(u64, &String)> = state
                    .entries
                    .iter()
                    .filter(|(h, _)| h.as_str() != hex)
                    .map(|(h, m)| (m.seq, h))
                    .collect();
                pool.sort();
                victims.extend(pool.into_iter().take(excess).map(|(_, h)| h.clone()));
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
    use json::fnv64;
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
    fn blob_headers_written_before_the_borrowed_decoder_read_as_before() {
        // Literal blobs: a version-1 header (unsealed, no `psum`), the
        // current version-2 header, and a sealed version-3 header from a
        // newer build.
        let a = art("feature_gen", "ACDEF");
        let hex = a.key().to_hex();
        let payload = "{\"x\":\"ACDEF\"}\n";
        let head = |version: u64| {
            format!(
                "\"store\":\"summitfold\",\"version\":{version},\"key\":\"{hex}\",\
                 \"stage\":\"feature_gen\",\"preset\":\"p\",\"content\":\"ACDEF\",\"lines\":1"
            )
        };
        let sealed = |body: String| {
            let body = format!("{body},\"psum\":\"{:016x}\"", fnv64(payload));
            let sum = fnv64(&format!("{{{body}}}"));
            format!("{{{body},\"sum\":\"{sum:016x}\"}}\n{payload}")
        };
        let root = scratch_root("head-blobs");
        let store = Store::open(&root).unwrap();
        let rec = Recorder::virtual_time();
        let blob = root.join("objects").join(format!("{hex}.jsonl"));
        fs::create_dir_all(root.join("objects")).unwrap();
        fs::write(&blob, format!("{{{}}}\n{payload}", head(1))).unwrap();
        assert!(matches!(store.read_blob(&hex), BlobRead::Ok(ref got) if *got == a));
        fs::write(&blob, sealed(head(2))).unwrap();
        assert!(matches!(store.read_blob(&hex), BlobRead::Ok(ref got) if *got == a));
        // What this build writes is that version-2 blob, byte for byte.
        let _ = fs::remove_file(&blob);
        store.put(&a, &rec).unwrap();
        assert_eq!(fs::read_to_string(&blob).unwrap(), sealed(head(2)));
        fs::write(&blob, sealed(head(3))).unwrap();
        assert!(matches!(store.read_blob(&hex), BlobRead::Newer));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_non_integer_version_or_line_count_is_corrupt_not_cast() {
        let a = Artifact::new("feature_gen", "p", "ACDEF", vec!["{}".into(), "{}".into()]);
        let hex = a.key().to_hex();
        let payload = "{}\n{}\n";
        let blob_with = |version: &str, lines: &str| {
            let body = format!(
                "\"store\":\"summitfold\",\"version\":{version},\"key\":\"{hex}\",\
                 \"stage\":\"feature_gen\",\"preset\":\"p\",\"content\":\"ACDEF\",\
                 \"lines\":{lines},\"psum\":\"{:016x}\"",
                fnv64(payload)
            );
            let sum = fnv64(&format!("{{{body}}}"));
            format!("{{{body},\"sum\":\"{sum:016x}\"}}\n{payload}")
        };
        let root = scratch_root("uint-header");
        let store = Store::open(&root).unwrap();
        let blob = root.join("objects").join(format!("{hex}.jsonl"));
        fs::create_dir_all(root.join("objects")).unwrap();
        fs::write(&blob, blob_with("2", "2")).unwrap();
        assert!(matches!(store.read_blob(&hex), BlobRead::Ok(ref got) if *got == a));
        // A cast would read 2.5 lines as 2 and 2.5 as version 2.
        for (version, lines) in [("2", "2.5"), ("2.5", "2"), ("2", "-2"), ("2", "1e30")] {
            fs::write(&blob, blob_with(version, lines)).unwrap();
            let read = store.read_blob(&hex);
            assert!(
                matches!(read, BlobRead::Corrupt),
                "{version}/{lines}: {read:?}"
            );
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

    /// The lookup as it was before the resident index, verbatim: parse
    /// every stored sequence of the pair, build a fresh k-mer index, align
    /// every prefilter candidate, keep the best by `(identity desc, key
    /// asc)`. The reference every differential test below compares to.
    fn brute_force_near(
        store: &Store,
        stage: &str,
        preset: &str,
        query: &Sequence,
    ) -> Option<(String, f64)> {
        let candidates: Vec<(String, Sequence)> = store
            .lock()
            .entries
            .iter()
            .filter(|(_, m)| m.stage == stage && m.preset == preset)
            .filter_map(|(hex, m)| {
                Sequence::parse(hex, "", sequence_letters(&m.content))
                    .ok()
                    .map(|s| (hex.clone(), s))
            })
            .collect();
        let seqs: Vec<Sequence> = candidates.iter().map(|(_, s)| s.clone()).collect();
        let mut best: Option<(String, f64)> = None;
        for (cand, _) in KmerIndex::build(&seqs).candidates(query, 4) {
            let (hex, seq) = &candidates[cand];
            let Some(identity) = neighborhood_identity(query, seq) else {
                continue;
            };
            if identity < NEAR_IDENTITY {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bh, bi)) => identity > *bi || (identity == *bi && hex < bh),
            };
            if better {
                best = Some((hex.clone(), identity));
            }
        }
        best
    }

    /// `near_lookup` against the scan: same key, same identity bits, same
    /// artifact — or both nothing (also when the best neighbour's blob no
    /// longer verifies, which the scan's caller found out the same way).
    fn assert_near_equals_scan(store: &Store, stage: &str, preset: &str, query: &Sequence) -> bool {
        let rec = Recorder::disabled();
        let want = brute_force_near(store, stage, preset, query).and_then(|(hex, identity)| {
            match store.read_blob(&hex) {
                BlobRead::Ok(artifact) => Some((hex, identity.to_bits(), artifact)),
                _ => None,
            }
        });
        let got = store
            .near_lookup(stage, preset, query, rec)
            .map(|(hit, artifact)| (hit.key.to_hex(), hit.identity.to_bits(), artifact));
        assert_eq!(got, want, "query {}", query.to_letters());
        got.is_some()
    }

    #[test]
    fn near_lookup_equals_the_brute_force_scan_under_random_store_histories() {
        const STAGE: &str = "feature_gen";
        for seed in 0..4u64 {
            let mut rng = Xoshiro256::seed_from_u64(20 + seed);
            // Families of near-duplicates, so lookups find several
            // neighbours at different (and sometimes equal) identities.
            let bases: Vec<Sequence> = (0..10)
                .map(|f| Sequence::random(&format!("f{f}"), 12 + rng.below(180), &mut rng))
                .collect();
            let member = |rng: &mut Xoshiro256| {
                let rates = [0.0, 0.01, 0.03, 0.06, 0.12];
                bases[rng.below(bases.len())].mutated("m", rates[rng.below(rates.len())], rng)
            };
            let cfg = StoreConfig {
                max_entries: Some(24),
            };
            let root = scratch_root("near-history");
            let rec = Recorder::disabled();
            let mut store = Store::open_with(&root, cfg).unwrap();
            let mut found = 0usize;
            let blob_of = |store: &Store, rng: &mut Xoshiro256| {
                let state = store.lock();
                let nth = rng.below(state.entries.len().max(1));
                state
                    .entries
                    .keys()
                    .nth(nth)
                    .map(|hex| store.blob_path(hex))
            };
            for step in 0..120 {
                match rng.below(12) {
                    // Put — a fresh member, an overwrite, or (the service's
                    // kind of content) something that is not a sequence —
                    // evicting at the cap.
                    0..=6 => {
                        let content = match rng.below(8) {
                            0 => format!("tenant-{step}|task|{step}"),
                            1 => format!("{}|fingerprint-{step}", member(&mut rng).to_letters()),
                            _ => member(&mut rng).to_letters(),
                        };
                        let preset = ["p", "q"][rng.below(2)];
                        let payload = vec![format!("{{\"step\":{step}}}")];
                        let artifact = Artifact::new(STAGE, preset, &content, payload);
                        store.put(&artifact, rec).unwrap();
                    }
                    // Flip a payload bit: quarantined by whoever reads it
                    // first — a `get`, a scrub, or the near look-up itself.
                    7 => {
                        if let Some(blob) = blob_of(&store, &mut rng) {
                            let mut bytes = fs::read(&blob).unwrap();
                            let at = bytes.len() - 3;
                            bytes[at] ^= 0x04;
                            fs::write(&blob, bytes).unwrap();
                        }
                    }
                    // Tear a blob: a miss until scrub drops the entry.
                    8 => {
                        if let Some(blob) = blob_of(&store, &mut rng) {
                            let text = fs::read_to_string(&blob).unwrap();
                            fs::write(&blob, &text[..text.len() - 2]).unwrap();
                        }
                    }
                    9 => {
                        let keys: Vec<String> = store.lock().entries.keys().cloned().collect();
                        for hex in keys.iter().filter(|_| rng.below(4) == 0) {
                            let _ = store.get(StoreKey::from_hex(hex).unwrap(), rec);
                        }
                    }
                    10 => {
                        store.scrub(rec);
                    }
                    _ => {
                        drop(store);
                        store = Store::open_with(&root, cfg).unwrap();
                    }
                }
                assert!(store.len() <= 24);
                for _ in 0..3 {
                    let query = member(&mut rng);
                    let preset = ["p", "q"][rng.below(2)];
                    found += usize::from(assert_near_equals_scan(&store, STAGE, preset, &query));
                }
            }
            assert!(
                found >= 100,
                "seed {seed}: only {found} of 360 look-ups hit"
            );
            // The resident indexes hold exactly the live, parseable entries.
            let state = store.lock();
            for near in &state.near {
                let live = state.entries.iter().filter(|(hex, m)| {
                    (m.stage == near.stage && m.preset == near.preset)
                        && near.slot_of.contains_key(*hex)
                });
                assert_eq!(live.count(), near.slot_of.len());
                assert_eq!(near.kmers.len(), near.slot_of.len());
                assert!(near.kmers.slots() <= 25, "{} slots", near.kmers.slots());
            }
            drop(state);
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// A store of `n` unrelated sequences (lengths 100–400) under
    /// `feature_gen`/`p`, then `planted` on top, newest.
    fn random_store(tag: &str, cfg: StoreConfig, n: usize, planted: &Sequence) -> (PathBuf, Store) {
        let root = scratch_root(tag);
        let store = Store::open_with(&root, cfg).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(31);
        let rec = Recorder::disabled();
        for i in 0..n {
            let seq = Sequence::random(&format!("r{i}"), 100 + rng.below(300), &mut rng);
            let artifact = Artifact::new("feature_gen", "p", &seq.to_letters(), vec![]);
            store.put(&artifact, rec).unwrap();
        }
        let artifact = Artifact::new("feature_gen", "p", &planted.to_letters(), vec![]);
        store.put(&artifact, rec).unwrap();
        (root, store)
    }

    #[test]
    fn only_true_neighbours_reach_the_alignment() {
        // The complexity guard, on the survivor list rather than on wall
        // time: of 257 stored sequences, the prefilter alone would send
        // most to Smith–Waterman; the bound sends a handful.
        let mut rng = Xoshiro256::seed_from_u64(30);
        let query = Sequence::random("q", 250, &mut rng);
        let neighbour = query.mutated("n", 0.03, &mut rng);
        let (root, store) = random_store("guard", StoreConfig::default(), 256, &neighbour);
        let prefiltered = {
            let mut state = store.lock();
            state
                .near_index("feature_gen", "p")
                .kmers
                .candidates(&query, 4)
                .len()
        };
        assert!(prefiltered > 128, "prefilter alone passes {prefiltered}");
        let survivors = store.near_survivors("feature_gen", "p", &query);
        assert!(survivors.len() <= 3, "{} survivors", survivors.len());
        assert!(survivors.iter().any(|s| s.residues == neighbour.residues));
        // A protein with no neighbour in the store aligns against nothing.
        let novel = Sequence::random("x", 250, &mut rng);
        assert!(store.near_survivors("feature_gen", "p", &novel).len() <= 1);
        assert!(assert_near_equals_scan(&store, "feature_gen", "p", &query));
        assert!(!assert_near_equals_scan(&store, "feature_gen", "p", &novel));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn near_lookup_runs_beside_put_and_eviction() {
        let mut rng = Xoshiro256::seed_from_u64(32);
        let query = Sequence::random("q", 200, &mut rng);
        let neighbour = query.mutated("n", 0.04, &mut rng);
        // Cap 48 over 32 + 1 + 40 puts: the writer's evictions take the
        // oldest random entries, never the planted (33rd) one.
        let cfg = StoreConfig {
            max_entries: Some(48),
        };
        let (root, store) = random_store("two-threads", cfg, 32, &neighbour);
        let rec = Recorder::disabled();
        let planted = store.near_lookup("feature_gen", "p", &query, rec).unwrap();
        assert_eq!(planted.1.sequence_letters(), neighbour.to_letters());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = Xoshiro256::seed_from_u64(33);
                start.wait();
                for i in 0..40 {
                    let seq = Sequence::random(&format!("w{i}"), 100 + rng.below(300), &mut rng);
                    let artifact = Artifact::new("feature_gen", "p", &seq.to_letters(), vec![]);
                    store.put(&artifact, rec).unwrap();
                }
            });
            start.wait();
            for _ in 0..40 {
                let found = store.near_lookup("feature_gen", "p", &query, rec);
                assert_eq!(found.as_ref(), Some(&planted));
            }
        });
        assert_eq!(store.len(), 48);
        assert!(assert_near_equals_scan(&store, "feature_gen", "p", &query));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streamed_payload_sum_is_the_digest_of_the_blob_bytes() {
        let payload = vec!["{\"a\":1}".to_owned(), String::new(), "x".to_owned()];
        assert_eq!(Store::payload_sum(&payload), fnv64("{\"a\":1}\n\nx\n"));
        assert_eq!(Store::payload_sum(&[]), fnv64(""));
    }

    #[test]
    fn discount_model_shape() {
        assert_eq!(quality_discount(1.0), 0.0);
        assert!((quality_discount(0.98) - 0.1).abs() < 1e-9);
        assert!((quality_discount(0.9) - 0.5).abs() < 1e-9);
        assert_eq!(quality_discount(0.5), 1.0);
    }
}
