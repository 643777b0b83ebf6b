//! Synthetic pdb70 library and the APoc-style structure search.
//!
//! The real pdb70 clusters the Protein Data Bank at 70 % sequence identity
//! and serves two roles in the paper: template source for feature
//! generation, and — in §4.6 — the annotated reference set that predicted
//! structures are aligned against to transfer function onto "hypothetical"
//! proteins. The synthetic library holds fold-family representatives (see
//! [`summitfold_protein::family`]) carrying annotations, plus decoy
//! families, and supports a two-stage search: a cheap descriptor prefilter
//! (length window + radius-of-gyration) followed by full structural
//! alignment of the surviving candidates.

use crate::align::{structural_align, Alignment};
use summitfold_protein::family::Family;
use summitfold_protein::geom::radius_of_gyration;
use summitfold_protein::rng::{fnv1a, Xoshiro256};
use summitfold_protein::seq::Sequence;
use summitfold_protein::structure::Structure;

/// One library entry: a family representative with its annotation.
#[derive(Debug, Clone)]
pub struct Pdb70Entry {
    /// The fold family this entry represents.
    pub family: Family,
    /// Representative structure.
    pub structure: Structure,
    /// Representative sequence.
    pub sequence: Sequence,
    /// Functional annotation transferred to matching queries.
    pub annotation: String,
    /// Cached radius of gyration (prefilter descriptor).
    rg: f64,
}

/// The searchable library.
#[derive(Debug, Clone)]
pub struct Pdb70 {
    entries: Vec<Pdb70Entry>,
}

/// A search hit.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Index into the library.
    pub entry: usize,
    /// Alignment details (TM-score normalized by query length, aligned
    /// pairs, sequence identity).
    pub alignment: Alignment,
    /// Annotation of the matched entry.
    pub annotation: String,
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Candidate length must lie in `[len/ratio, len*ratio]`.
    pub length_ratio: f64,
    /// Maximum candidates that survive the prefilter (ranked by
    /// descriptor distance) and receive a full alignment.
    pub max_align: usize,
    /// Number of hits to return.
    pub top_k: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            length_ratio: 1.6,
            max_align: 16,
            top_k: 5,
        }
    }
}

impl Pdb70 {
    /// Build a library from explicit families plus `decoys` synthetic
    /// decoy families (deterministic for a given seed).
    #[must_use]
    pub fn build(families: impl IntoIterator<Item = Family>, decoys: usize, seed: u64) -> Self {
        let mut entries = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for fam in families {
            if seen.insert((fam.id, fam.len)) {
                entries.push(Self::entry_of(fam));
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(seed ^ fnv1a(b"pdb70-decoys"));
        for k in 0..decoys {
            let len = (rng.gamma(2.2, 140.0).round() as usize).clamp(40, 1400);
            let fam = Family::new(2_000_000 + k as u64, len);
            if seen.insert((fam.id, fam.len)) {
                entries.push(Self::entry_of(fam));
            }
        }
        Self { entries }
    }

    fn entry_of(family: Family) -> Pdb70Entry {
        let structure = family.representative();
        let rg = radius_of_gyration(&structure.ca);
        Pdb70Entry {
            family,
            sequence: family.base_sequence(),
            annotation: family.annotation(),
            structure,
            rg,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Library entries (borrowed).
    #[must_use]
    pub fn entries(&self) -> &[Pdb70Entry] {
        &self.entries
    }

    /// Search the library for structural matches to a query, returning up
    /// to `cfg.top_k` hits sorted by descending TM-score.
    #[must_use]
    pub fn search(&self, query: &Structure, query_seq: &Sequence, cfg: &SearchConfig) -> Vec<Hit> {
        self.search_with(query, query_seq, cfg, structural_align)
    }

    /// [`Pdb70::search`] with the aligner as a parameter, so tests can
    /// run the same prefilter and ranking over a reference aligner.
    fn search_with(
        &self,
        query: &Structure,
        query_seq: &Sequence,
        cfg: &SearchConfig,
        align: fn(&Structure, &Sequence, &Structure, &Sequence) -> Alignment,
    ) -> Vec<Hit> {
        let n = query.len();
        if n == 0 || self.entries.is_empty() {
            return Vec::new();
        }
        let qrg = radius_of_gyration(&query.ca);
        // Prefilter: length window, ranked by a combined descriptor
        // distance (relative length difference + relative Rg difference).
        let mut candidates: Vec<(usize, f64)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let m = e.structure.len() as f64;
                let nn = n as f64;
                m >= nn / cfg.length_ratio && m <= nn * cfg.length_ratio
            })
            .map(|(idx, e)| {
                let dlen = (e.structure.len() as f64 - n as f64).abs() / n as f64;
                let drg = (e.rg - qrg).abs() / qrg.max(1e-9);
                (idx, dlen + drg)
            })
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        candidates.truncate(cfg.max_align);

        let mut hits: Vec<Hit> = candidates
            .into_iter()
            .map(|(idx, _)| {
                let e = &self.entries[idx];
                let alignment = align(query, query_seq, &e.structure, &e.sequence);
                Hit {
                    entry: idx,
                    alignment,
                    annotation: e.annotation.clone(),
                }
            })
            .collect();
        hits.sort_by(|a, b| b.alignment.tm_query.total_cmp(&a.alignment.tm_query));
        hits.truncate(cfg.top_k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library_with(fams: &[Family]) -> Pdb70 {
        Pdb70::build(fams.iter().copied(), 30, 7)
    }

    #[test]
    fn search_matches_the_reference_aligner_hit_for_hit() {
        let fams = [
            Family::new(31, 140),
            Family::new(32, 210),
            Family::new(33, 320),
        ];
        let lib = library_with(&fams);
        let mut queries: Vec<(Structure, Sequence)> = fams
            .iter()
            .enumerate()
            .map(|(k, f)| {
                (
                    f.member_fold(k as u64, 1.0 + k as f64),
                    f.member_sequence(k as u64, 0.8, "q"),
                )
            })
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(21);
        let orphan = Sequence::random("orphan", 260, &mut rng);
        queries.push((summitfold_protein::fold::ground_truth(&orphan), orphan));
        let cfg = SearchConfig::default();
        let mut compared = 0;
        for (k, (fold, seq)) in queries.iter().enumerate() {
            let got = lib.search(fold, seq, &cfg);
            let want = lib.search_with(fold, seq, &cfg, crate::align::reference::structural_align);
            assert_eq!(got.len(), want.len(), "query {k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.entry, w.entry, "query {k}");
                assert_eq!(g.annotation, w.annotation, "query {k}");
                let (ga, wa) = (&g.alignment, &w.alignment);
                assert_eq!(ga.tm_query.to_bits(), wa.tm_query.to_bits(), "query {k}");
                assert_eq!(ga.rmsd.to_bits(), wa.rmsd.to_bits(), "query {k}");
                assert_eq!(
                    ga.seq_identity.to_bits(),
                    wa.seq_identity.to_bits(),
                    "query {k}"
                );
                assert_eq!(ga.pairs, wa.pairs, "query {k}");
                compared += 1;
            }
        }
        assert!(compared >= 3 * queries.len(), "{compared} hits compared");
    }

    #[test]
    fn build_deduplicates_and_counts() {
        let f = Family::new(1, 100);
        let lib = Pdb70::build([f, f], 10, 1);
        assert_eq!(lib.len(), 11);
    }

    #[test]
    fn deterministic_build() {
        let a = Pdb70::build([], 20, 3);
        let b = Pdb70::build([], 20, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.structure.ca, y.structure.ca);
        }
    }

    #[test]
    fn finds_own_family_for_member_query() {
        let fam = Family::new(42, 180);
        let lib = library_with(&[fam]);
        let member_fold = fam.member_fold(5, 1.5);
        let member_seq = fam.member_sequence(5, 0.85, "q");
        let hits = lib.search(&member_fold, &member_seq, &SearchConfig::default());
        assert!(!hits.is_empty());
        let top = &hits[0];
        assert_eq!(
            lib.entries()[top.entry].family,
            fam,
            "top hit is the member's family"
        );
        assert!(
            top.alignment.tm_query > 0.55,
            "tm {}",
            top.alignment.tm_query
        );
        assert!(
            top.alignment.seq_identity < 0.3,
            "identity {}",
            top.alignment.seq_identity
        );
        assert_eq!(top.annotation, fam.annotation());
    }

    #[test]
    fn orphan_query_scores_below_fold_threshold() {
        let lib = library_with(&[]);
        let mut rng = summitfold_protein::rng::Xoshiro256::seed_from_u64(11);
        let seq = Sequence::random("orphan", 200, &mut rng);
        let fold = summitfold_protein::fold::ground_truth(&seq);
        let hits = lib.search(&fold, &seq, &SearchConfig::default());
        if let Some(top) = hits.first() {
            assert!(
                top.alignment.tm_query < 0.55,
                "tm {}",
                top.alignment.tm_query
            );
        }
    }

    #[test]
    fn empty_query_or_library() {
        let lib = Pdb70::build([], 0, 1);
        assert!(lib.is_empty());
        let seq = Sequence::parse("e", "", "ACD").unwrap();
        let fold = summitfold_protein::fold::ground_truth(&seq);
        assert!(lib.search(&fold, &seq, &SearchConfig::default()).is_empty());
    }

    #[test]
    fn hits_sorted_by_tm() {
        let fams = [
            Family::new(1, 120),
            Family::new(2, 120),
            Family::new(3, 130),
        ];
        let lib = library_with(&fams);
        let member_fold = fams[0].member_fold(9, 1.0);
        let member_seq = fams[0].member_sequence(9, 0.5, "q");
        let hits = lib.search(&member_fold, &member_seq, &SearchConfig::default());
        for w in hits.windows(2) {
            assert!(w[0].alignment.tm_query >= w[1].alignment.tm_query);
        }
    }

    #[test]
    fn length_prefilter_respected() {
        let fams = [Family::new(1, 100), Family::new(2, 800)];
        let lib = Pdb70::build(fams, 0, 1);
        let q = fams[0].representative();
        let qs = fams[0].base_sequence();
        let hits = lib.search(&q, &qs, &SearchConfig::default());
        // The 800-residue entry is outside the 1.6× window of a
        // 100-residue query and must not be aligned at all.
        assert!(hits
            .iter()
            .all(|h| lib.entries()[h.entry].structure.len() == 100));
    }
}
