//! Greedy sequence clustering — the BFD deduplication that produces the
//! reduced database set.
//!
//! §3.2.1: the reduced set "is obtained by removing identical and
//! near-identical sequences in the largest of the sub-datasets, the BFD",
//! and DeepMind's benchmarks showed it performs indistinguishably from the
//! full set. This module implements the standard greedy
//! longest-first clustering (the CD-HIT/MMseqs idiom): sequences are
//! visited longest-first; each either joins the first existing cluster
//! whose representative is ≥ `identity` similar, or founds a new
//! cluster. The representatives form the reduced database.
//!
//! A neighbour search is index → bound → align: the k-mer prefilter
//! names candidates, [`min_shared_kmers`] discards those whose shared
//! k-mer count proves they cannot reach the threshold, and banded
//! Smith–Waterman ([`neighborhood_identity`]) judges the rest. The
//! result store's near-duplicate lookup runs the same three steps
//! through [`neighbor_candidates`].

use crate::kmer::{repeated_windows, KmerIndex, K};
use crate::sw::smith_waterman;
use summitfold_protein::seq::Sequence;

/// Clustering outcome.
#[derive(Debug)]
pub struct Clustering {
    /// Indices (into the input) of cluster representatives.
    pub representatives: Vec<usize>,
    /// For each input sequence, the index of its representative.
    pub assignment: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.representatives.len()
    }

    /// Reduction ratio `clusters / inputs` (1.0 = nothing merged).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.assignment.is_empty() {
            return 1.0;
        }
        self.representatives.len() as f64 / self.assignment.len() as f64
    }

    /// Extract the representative sequences (the reduced database).
    #[must_use]
    pub fn reduced_db(&self, input: &[Sequence]) -> Vec<Sequence> {
        self.representatives
            .iter()
            .map(|&i| input[i].clone())
            .collect()
    }
}

/// Greedy cluster `input` at the given identity threshold (e.g. 0.9 for
/// the paper's near-identical deduplication).
#[must_use]
pub fn greedy_cluster(input: &[Sequence], identity: f64) -> Clustering {
    // sfcheck::allow(panic-hygiene, caller contract; identity is a fraction by definition)
    assert!(
        (0.0..=1.0).contains(&identity),
        "identity threshold in [0,1]"
    );
    let n = input.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        input[b]
            .len()
            .cmp(&input[a].len())
            .then_with(|| input[a].id.cmp(&input[b].id))
    });

    // Representatives are indexed as they are founded and never removed,
    // so representative `rid` sits in index slot `rid`.
    let mut reps: Vec<usize> = Vec::new();
    let mut assignment = vec![usize::MAX; n];
    let mut index = KmerIndex::default();

    for &i in &order {
        let seq = &input[i];
        let found = neighbor_candidates(&index, seq, identity, |rid| input[reps[rid]].len())
            .into_iter()
            .find(|&rid| is_similar(seq, &input[reps[rid]], identity));
        match found {
            Some(rid) => assignment[i] = reps[rid],
            None => {
                assignment[i] = i;
                reps.push(i);
                index.insert(seq);
            }
        }
    }
    Clustering {
        representatives: reps,
        assignment,
    }
}

/// Share of the shorter sequence the alignment must cover (the CD-HIT
/// coverage criterion, simplified).
const MIN_COVERAGE: f64 = 0.8;

/// Fewest distinct k-mers any neighbour search asks a candidate to share
/// with the query before it is aligned at all.
const MIN_SHARED: usize = 4;

/// Neighborhood identity between two sequences: the banded
/// Smith–Waterman aligned identity, reported only when the alignment
/// covers ≥ 80 % of the shorter sequence. `None` means the pair does not
/// share a clusterable neighborhood at all — the same judgement
/// [`greedy_cluster`] uses, and the one the result store's
/// near-duplicate lookup reuses so "cacheable neighbor" and "clusterable
/// neighbor" can never drift apart.
#[must_use]
pub fn neighborhood_identity(a: &Sequence, b: &Sequence) -> Option<f64> {
    let aln = smith_waterman(a, b, Some(16));
    let shorter = a.len().min(b.len()).max(1);
    if (aln.columns as f64) / shorter as f64 >= MIN_COVERAGE {
        Some(aln.identity())
    } else {
        None
    }
}

/// Exact lower bound on the distinct query k-mers a subject shares when
/// [`neighborhood_identity`] reports the pair at ≥ `identity`:
/// `shorter` is the shorter of the two lengths and `repeated` the
/// query's [`repeated_windows`].
///
/// [`smith_waterman`]'s traceback is a pure diagonal walk, so the `c`
/// aligned columns are one contiguous run on one diagonal. An accepted
/// pair has `c ≥ 0.8·shorter` and at most `(1 − identity)·c` mismatched
/// columns. The run holds `c − (K−1)` k-mer windows and a mismatch spoils
/// at most `K` of them, which leaves `(K·identity − (K−1))·c − (K−1)`
/// windows where query and subject spell the same word — increasing in
/// `c` whenever it is positive, hence smallest at `c = 0.8·shorter`.
/// Those windows are query windows; at most `repeated` of them repeat a
/// word another one already contributed. For `K = 3`:
/// `(3·identity − 2)·0.8·shorter − 2 − repeated`.
///
/// The bound only ever says "cannot reach `identity`": Smith–Waterman
/// stays the judge of every pair at or above it. It holds for *this*
/// traceback — one that walked through gaps would spread the columns
/// over several diagonals and break the contiguity the count rests on.
#[must_use]
pub fn min_shared_kmers(identity: f64, shorter: usize, repeated: usize) -> usize {
    let k = K as f64;
    let per_column = k * identity - (k - 1.0);
    if per_column <= 0.0 {
        return 0;
    }
    let shared = per_column * MIN_COVERAGE * shorter as f64 - (k - 1.0) - repeated as f64;
    // The true count is an integer at or above the real-valued bound;
    // the slack keeps f64 rounding (here and in the two comparisons of
    // `neighborhood_identity`) from ever lifting the ceiling a step.
    (shared - 1e-6).ceil().max(0.0) as usize
}

/// Slots of `index` that can still be a neighbour of `query` at
/// ≥ `identity`, in [`KmerIndex::candidates`] order: the k-mer prefilter,
/// then [`min_shared_kmers`] per candidate (`subject_len` maps a slot to
/// its subject's length). Every pair this drops is one
/// [`neighborhood_identity`] would report below `identity`, or not at
/// all — or one the prefilter never let through.
#[must_use]
pub fn neighbor_candidates(
    index: &KmerIndex,
    query: &Sequence,
    identity: f64,
    subject_len: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let repeated = repeated_windows(query);
    index
        .candidates(query, MIN_SHARED)
        .into_iter()
        .filter(|&(slot, shared)| {
            let shorter = query.len().min(subject_len(slot));
            shared >= min_shared_kmers(identity, shorter, repeated)
        })
        .map(|(slot, _)| slot)
        .collect()
}

/// Identity check used by clustering: a shared neighborhood at ≥ the
/// given aligned identity.
fn is_similar(a: &Sequence, b: &Sequence, identity: f64) -> bool {
    neighborhood_identity(a, b).is_some_and(|id| id >= identity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_protein::rng::Xoshiro256;

    #[test]
    fn exact_duplicates_collapse() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let base = Sequence::random("b", 150, &mut rng);
        let mut db = vec![base.clone()];
        for k in 0..5 {
            let mut dup = base.clone();
            dup.id = format!("dup{k}");
            db.push(dup);
        }
        let c = greedy_cluster(&db, 0.9);
        assert_eq!(c.num_clusters(), 1);
        let rep = c.representatives[0];
        assert!(c.assignment.iter().all(|&a| a == rep));
    }

    #[test]
    fn near_duplicates_collapse_at_90() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let base = Sequence::random("b", 200, &mut rng);
        let mut db = vec![base.clone()];
        for k in 0..4 {
            db.push(base.mutated(&format!("near{k}"), 0.03, &mut rng));
        }
        let c = greedy_cluster(&db, 0.9);
        assert_eq!(c.num_clusters(), 1, "97% identical sequences must merge");
    }

    #[test]
    fn distinct_sequences_stay_separate() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let db: Vec<Sequence> = (0..10)
            .map(|i| Sequence::random(&format!("s{i}"), 150, &mut rng))
            .collect();
        let c = greedy_cluster(&db, 0.9);
        assert_eq!(c.num_clusters(), 10);
    }

    #[test]
    fn moderate_homologs_not_merged_at_90() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let base = Sequence::random("b", 200, &mut rng);
        let hom = base.mutated("h", 0.3, &mut rng); // 70% identity
        let c = greedy_cluster(&[base, hom], 0.9);
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn reduced_db_matches_representatives() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let base = Sequence::random("b", 120, &mut rng);
        let db = vec![
            base.clone(),
            base.mutated("n", 0.02, &mut rng),
            Sequence::random("x", 120, &mut rng),
        ];
        let c = greedy_cluster(&db, 0.9);
        let reduced = c.reduced_db(&db);
        assert_eq!(reduced.len(), c.num_clusters());
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn reduction_ratio_on_redundant_synthetic_bfd() {
        // Mirrors the full-BFD construction: each homolog accompanied by
        // 3 near-identical copies → expected reduction ≈ 1/4.
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut db = Vec::new();
        for f in 0..8 {
            let base = Sequence::random(&format!("f{f}"), 150, &mut rng);
            db.push(base.clone());
            for d in 0..3 {
                db.push(base.mutated(&format!("f{f}d{d}"), 0.02, &mut rng));
            }
        }
        let c = greedy_cluster(&db, 0.9);
        assert_eq!(c.num_clusters(), 8, "one cluster per family");
        assert!((c.reduction() - 0.25).abs() < 1e-9);
    }

    /// A sequence over a tiny alphabet or a short repeated motif: many
    /// repeated k-mer windows, the case the `repeated` term exists for.
    fn low_complexity(len: usize, rng: &mut Xoshiro256) -> Sequence {
        let motif = Sequence::random("m", 1 + rng.below(6), rng).residues;
        let noise = rng.below(3) == 0;
        let residues = (0..len)
            .map(|i| {
                if noise && rng.below(10) == 0 {
                    motif[rng.below(motif.len())]
                } else {
                    motif[i % motif.len()]
                }
            })
            .collect();
        Sequence {
            id: "low".into(),
            description: String::new(),
            residues,
        }
    }

    /// A relative of `query`: point-mutated, then possibly truncated to a
    /// window and possibly embedded between random flanks.
    fn relative(query: &Sequence, rng: &mut Xoshiro256) -> Sequence {
        let rates = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6];
        let mut residues = query
            .mutated("s", rates[rng.below(rates.len())], rng)
            .residues;
        if rng.below(3) == 0 {
            let keep = 1 + rng.below(residues.len());
            let from = rng.below(residues.len() - keep + 1);
            residues = residues[from..from + keep].to_vec();
        }
        if rng.below(3) == 0 {
            let mut flanked = Sequence::random("l", rng.below(40), rng).residues;
            flanked.extend(residues);
            flanked.extend(Sequence::random("r", rng.below(40), rng).residues);
            residues = flanked;
        }
        Sequence {
            id: "s".into(),
            description: String::new(),
            residues,
        }
    }

    #[test]
    fn bound_never_prunes_a_pair_the_alignment_accepts() {
        let thresholds = [0.5, 0.7, 0.9, 0.97];
        let mut accepted = [0usize; 4];
        let mut binding = [0usize; 4];
        let mut rng = Xoshiro256::seed_from_u64(14);
        for case in 0..4000 {
            // Lengths 1–400, the short end over-represented: that is
            // where the −(K−1) and rounding terms decide.
            let len = 1 + rng.below(if case % 4 == 0 { 24 } else { 400 });
            let base = if case % 3 == 0 {
                low_complexity(len, &mut rng)
            } else {
                Sequence::random("q", len, &mut rng)
            };
            let other = relative(&base, &mut rng);
            let (query, subject) = if rng.below(2) == 0 {
                (base, other)
            } else {
                (other, base)
            };
            let Some(identity) = neighborhood_identity(&query, &subject) else {
                continue;
            };
            let shared =
                KmerIndex::build(std::slice::from_ref(&subject)).candidates(&query, 0)[0].1;
            let shorter = query.len().min(subject.len());
            let repeated = repeated_windows(&query);
            for (t, &threshold) in thresholds.iter().enumerate() {
                if identity < threshold {
                    continue;
                }
                accepted[t] += 1;
                let bound = min_shared_kmers(threshold, shorter, repeated);
                binding[t] += usize::from(bound > MIN_SHARED);
                assert!(
                    shared >= bound,
                    "case {case}: accepted at {identity} ≥ {threshold} with {shared} shared \
                     k-mers, bound {bound} (lengths {}/{}, {repeated} repeated)",
                    query.len(),
                    subject.len()
                );
            }
        }
        for t in 0..thresholds.len() {
            assert!(
                accepted[t] >= 200,
                "τ {}: {} accepted",
                thresholds[t],
                accepted[t]
            );
        }
        // Below τ = 2/3 the bound is vacuous by construction; above, it
        // must be the binding constraint on real pairs.
        assert_eq!(binding[0], 0);
        assert!(binding[1..].iter().all(|&b| b >= 100), "{binding:?}");
    }

    #[test]
    fn bound_is_the_documented_closed_form() {
        // (3τ − 2)·0.8·shorter − 2 − repeated, rounded up, floored at 0.
        assert_eq!(min_shared_kmers(0.9, 100, 0), 54);
        assert_eq!(min_shared_kmers(0.9, 100, 10), 44);
        assert_eq!(min_shared_kmers(1.0, 10, 0), 6);
        assert_eq!(min_shared_kmers(0.9, 3, 0), 0);
        assert_eq!(min_shared_kmers(0.5, 400, 0), 0);
        assert_eq!(min_shared_kmers(0.9, 100, 1000), 0);
    }

    /// `greedy_cluster` with the prefilter alone: every candidate aligned.
    fn unpruned_cluster(input: &[Sequence], identity: f64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..input.len()).collect();
        order.sort_by(|&a, &b| {
            (input[b].len().cmp(&input[a].len())).then_with(|| input[a].id.cmp(&input[b].id))
        });
        let mut reps: Vec<usize> = Vec::new();
        let mut assignment = vec![usize::MAX; input.len()];
        for &i in &order {
            let rep_seqs: Vec<Sequence> = reps.iter().map(|&r| input[r].clone()).collect();
            let found = KmerIndex::build(&rep_seqs)
                .candidates(&input[i], MIN_SHARED)
                .into_iter()
                .find(|&(rid, _)| is_similar(&input[i], &rep_seqs[rid], identity));
            match found {
                Some((rid, _)) => assignment[i] = reps[rid],
                None => {
                    assignment[i] = i;
                    reps.push(i);
                }
            }
        }
        assignment
    }

    #[test]
    fn pruned_clustering_equals_the_unpruned_reference() {
        for seed in 0..6 {
            let mut rng = Xoshiro256::seed_from_u64(100 + seed);
            let mut db = Vec::new();
            for f in 0..12 {
                let len = 20 + rng.below(220);
                let base = if f % 4 == 0 {
                    low_complexity(len, &mut rng)
                } else {
                    Sequence::random(&format!("f{f}"), len, &mut rng)
                };
                for d in 0..4 {
                    let mut member = relative(&base, &mut rng);
                    member.id = format!("f{f}d{d}");
                    db.push(member);
                }
                db.push(base);
            }
            for identity in [0.5, 0.7, 0.9, 0.97] {
                let c = greedy_cluster(&db, identity);
                assert_eq!(
                    c.assignment,
                    unpruned_cluster(&db, identity),
                    "seed {seed}, identity {identity}"
                );
            }
        }
    }

    #[test]
    fn empty_input() {
        let c = greedy_cluster(&[], 0.9);
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.reduction(), 1.0);
    }
}
