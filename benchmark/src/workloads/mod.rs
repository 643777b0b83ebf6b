//! The six workloads and the small vocabulary they share.
//!
//! Every workload is a closed loop driven by one generator (this
//! process): the next repeat starts only after the previous one
//! completed. The seed selects target subsets and mutation draws; the
//! product code receives only the generated inputs.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use summitfold_protein::rng::Xoshiro256;

pub mod campaign_virtual;
pub mod fold_real;
pub mod relax_annotate;
pub mod service_cold;
pub mod strain_rerun;
pub mod trace_lens;

/// Input size: the measured size, or a seconds-scale size for
/// `cargo test` and for probing the layers a traced workload does not
/// exercise itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size every published number is measured at.
    Full,
    /// All six workloads in a few seconds.
    Smoke,
}

impl Size {
    /// `full` or `smoke`, whichever this size is.
    #[must_use]
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Self::Full => full,
            Self::Smoke => smoke,
        }
    }
}

/// Outcome of a workload's correctness check over one repeat.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Tasks looked at.
    pub attempted: u64,
    /// Tasks that errored or whose output failed the check.
    pub failed: u64,
    /// What failed (first few), for the human-readable report.
    pub notes: Vec<String>,
}

impl Check {
    /// A check over `attempted` tasks, none failed yet.
    #[must_use]
    pub fn of(attempted: u64) -> Self {
        Self {
            attempted,
            ..Self::default()
        }
    }

    /// Count one failed task unless `ok`.
    pub fn require(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, note());
        }
    }

    /// Count `n` failed tasks.
    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Fold another check into this one.
    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Per-layer results of one traced run: metric values keyed by catalog
/// name, plus the seconds of the workload's own path attributed to each
/// layer (the source of the self-time share table).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    layer_s: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name = value`. The name must be in the catalog: a typo
    /// here would silently drop a metric from every report.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::catalog::per_layer(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Attribute `seconds` of the workload's own path to `layer`. Whole
    /// product calls that contain other layers are charged only what is
    /// left after the separately replayed inner calls (self time).
    pub fn layer_time(&mut self, layer: &'static str, seconds: f64) {
        *self.layer_s.entry(layer).or_default() += seconds.max(0.0);
    }

    /// Self-time share per layer, as fractions summing to 1.
    #[must_use]
    pub fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let sum: f64 = self.layer_s.values().sum();
        self.layer_s
            .iter()
            .map(|(k, v)| (*k, if sum > 0.0 { v / sum } else { 0.0 }))
            .collect()
    }

    /// The value recorded for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Add every metric of `other` that this set does not have yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.values {
            self.values.entry(k).or_insert(*v);
        }
    }
}

/// Scratch space inside the checkout for stores, WALs and journals.
/// Every [`Scratch::fresh`] directory is new and empty; the whole tree
/// is removed when the value drops.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: Cell<usize>,
}

impl Scratch {
    /// A scratch root under `out_dir`, unique to this process.
    ///
    /// # Panics
    /// If the directory cannot be created: nothing can run without it.
    #[must_use]
    pub fn new(out_dir: &Path, tag: &str) -> Self {
        let root = out_dir
            .join("scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory is creatable inside the checkout");
        Self {
            root,
            next: Cell::new(0),
        }
    }

    /// Where this scratch space lives.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A new, empty directory.
    ///
    /// # Panics
    /// If the directory cannot be created.
    #[must_use]
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("scratch subdirectory is creatable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size in bytes of the regular files under `dir` (computed, for
/// the bytes-written metrics).
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a directory tree (regular files and directories only).
///
/// # Panics
/// On any I/O error: the copy prepares a repeat's input.
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy target is creatable");
    for e in std::fs::read_dir(from)
        .expect("copy source is readable")
        .flatten()
    {
        let dest = to.join(e.file_name());
        if e.path().is_dir() {
            copy_dir(&e.path(), &dest);
        } else {
            std::fs::copy(e.path(), &dest).expect("file copies");
        }
    }
}

/// Pick `k` of `items`, one from each of `k` equal strata of the list
/// sorted by `weight`, neighbouring strata taking mirrored positions (one
/// draws `u`, the next `1 - u`). Stratifying and mirroring keep the
/// summed weight (sequence length, hence work) nearly constant from seed
/// to seed while the seed still decides which targets run.
pub fn stratified_pick<T: Copy>(
    items: &[T],
    weight: impl Fn(&T) -> usize,
    k: usize,
    rng: &mut Xoshiro256,
) -> Vec<T> {
    let mut sorted: Vec<T> = items.to_vec();
    sorted.sort_by_key(|t| weight(t));
    let k = k.min(sorted.len());
    let mut u = 0.0;
    (0..k)
        .map(|s| {
            let lo = s * sorted.len() / k;
            let hi = (s + 1) * sorted.len() / k;
            u = if s % 2 == 0 { rng.uniform() } else { 1.0 - u };
            let offset = ((u * (hi - lo) as f64) as usize).min(hi - lo - 1);
            sorted[lo + offset]
        })
        .collect()
}

/// One benchmark workload. `setup` is timed as `setup_s`; `prepare` and
/// `check` run outside the timed phase; `run` *is* the timed phase.
pub trait Workload {
    /// Name as the catalog and `BENCHMARK.json` spell it.
    const NAME: &'static str;
    /// Everything the timed phase reads.
    type Inputs;
    /// Per-repeat state built outside the timed phase (fresh
    /// directories, opened stores).
    type Prepared;
    /// What the timed phase produced, kept for checking.
    type Output;

    /// Generate the inputs from the seed.
    fn setup(seed: u64, size: Size, scratch: &Scratch) -> Self::Inputs;
    /// Tasks one repeat processes.
    fn tasks(inputs: &Self::Inputs) -> u64;
    /// Build one repeat's private state.
    fn prepare(inputs: &Self::Inputs, scratch: &Scratch) -> Self::Prepared;
    /// The timed phase.
    fn run(inputs: &Self::Inputs, prepared: Self::Prepared) -> Self::Output;
    /// Check one repeat's outputs.
    fn check(inputs: &Self::Inputs, output: &Self::Output) -> Check;
    /// The model-ledger makespan of the campaign this repeat simulated.
    fn model_makespan_s(inputs: &Self::Inputs, output: &Self::Output) -> f64;
    /// The traced replay: the same inputs decomposed into per-layer
    /// public calls under [`crate::spans`], filling `metrics`. `plain`
    /// is an untraced repeat's output on the same inputs.
    fn traced(
        inputs: &Self::Inputs,
        plain: &Self::Output,
        scratch: &Scratch,
        metrics: &mut Metrics,
    ) -> Check;
}
