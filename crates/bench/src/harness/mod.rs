//! Experiment harnesses — one module per artifact in the paper's
//! evaluation section (see DESIGN.md's experiment index).

pub mod ablation;
pub mod annotate;
pub mod complexes;
pub mod featgen;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod headline;
pub mod profile;
pub mod recovery;
pub mod recycles;
pub mod relaxscale;
pub mod sdivinum;
pub mod store;
pub mod table1;
pub mod violations;

use crate::report::Report;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use summitfold_protein::proteome::{Origin, ProteinEntry, Proteome, Species};
use summitfold_protein::rng::Xoshiro256;
use summitfold_protein::seq::Sequence;

/// An experiment: its `repro` name and the run that writes its report.
pub type Experiment = (&'static str, fn(&Ctx) -> Report);

/// Every experiment, in `repro all` order.
pub const EXPERIMENTS: [Experiment; 20] = [
    ("headline", |c| headline::run(c).1),
    ("table1", |c| table1::run(c).1),
    ("fig2", |c| fig2::run(c).1),
    ("fig3", |c| fig3::run(c).1),
    ("fig4", |c| fig4::run(c).1),
    ("featgen", |c| featgen::run(c).1),
    ("recycles", |c| recycles::run(c).1),
    ("sdivinum", |c| sdivinum::run(c).1),
    ("store", |c| store::run(c).1),
    ("recovery", |c| recovery::run(c).1),
    ("profile", |c| profile::run(c).1),
    ("violations", |c| violations::run(c).1),
    ("relaxscale", |c| relaxscale::run(c).1),
    ("annotate", |c| annotate::run(c).1),
    ("complexes", |c| complexes::run(c).1),
    ("ablation-ordering", |c| ablation::run_ordering(c).1),
    ("ablation-replicas", |c| ablation::run_replicas(c).1),
    ("ablation-protocol", |c| ablation::run_protocol(c).1),
    ("ablation-gpu-msa", |c| ablation::run_gpu_msa_whatif(c).1),
    ("ablation-staging", |c| ablation::run_staging(c).1),
];

/// Harness context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Subsample heavy experiments (≈ 10×) and note the scaling in the
    /// report.
    pub quick: bool,
}

impl Ctx {
    /// Scale a sample size down in quick mode.
    #[must_use]
    pub fn sample(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(20).min(full)
        } else {
            full
        }
    }
}

/// A fresh scratch directory under the system temp dir, unique per call
/// so runs of one harness in one process (both sizes under test) never
/// share it.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sf-bench-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The Table 1 benchmark set: the "hypothetical" subset of the full
/// *D. vulgaris* proteome (§4.2 uses 559 sequences, 29–1266 AA, mean 202).
#[must_use]
pub fn benchmark_set() -> Vec<ProteinEntry> {
    Proteome::generate(Species::DVulgaris)
        .proteins
        .into_iter()
        .filter(|e| e.hypothetical)
        .collect()
}

/// A CASP14-like target set: standalone orphan targets with the length
/// spread of CASP14 regular targets, plus one T1080-like large target
/// (the paper's 4.5-hour AF2-relaxation outlier was T1080).
#[must_use]
pub fn casp14_set(targets: usize) -> Vec<ProteinEntry> {
    let mut rng = Xoshiro256::from_name("casp14-set");
    let mut out = Vec::with_capacity(targets);
    for k in 0..targets {
        // CASP14 regular-target lengths ranged ~ 70–700; make the last
        // target the T1080-like outlier.
        let len = if k == targets - 1 {
            1500
        } else {
            (rng.gamma(2.5, 110.0).round() as usize).clamp(70, 700)
        };
        let id = format!("T{:04}", 1024 + k);
        let sequence = Sequence::random(&id, len, &mut rng);
        let msa_richness = rng.normal(0.7, 0.15).clamp(0.2, 1.0);
        out.push(ProteinEntry {
            sequence,
            hypothetical: false,
            origin: Origin::Orphan,
            msa_richness,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_set_matches_paper_shape() {
        let set = benchmark_set();
        assert!(
            (set.len() as i64 - 559).abs() < 70,
            "benchmark size {}",
            set.len()
        );
        let mean = set.iter().map(|e| e.sequence.len() as f64).sum::<f64>() / set.len() as f64;
        assert!((mean - 202.0).abs() < 25.0, "mean length {mean}");
    }

    #[test]
    fn casp14_set_has_outlier() {
        let set = casp14_set(19);
        assert_eq!(set.len(), 19);
        assert_eq!(set.last().unwrap().sequence.len(), 1500);
        assert!(set[..18].iter().all(|e| e.sequence.len() <= 700));
    }

    #[test]
    fn quick_mode_subsamples() {
        let ctx = Ctx { quick: true };
        assert_eq!(ctx.sample(3205), 320);
        assert_eq!(ctx.sample(50), 20);
        let full = Ctx { quick: false };
        assert_eq!(full.sample(3205), 3205);
    }
}
