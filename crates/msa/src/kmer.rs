//! K-mer prefilter index over a sequence database.
//!
//! HMMER and HH-suite never Smith–Waterman the whole database: fast
//! word-match filters discard the vast majority of subjects first. The
//! synthetic pipeline does the same with a classic k-mer inverted index
//! (k = 3 over the 20-letter alphabet): a subject becomes a candidate when
//! it shares at least `min_hits` distinct query k-mers.

use summitfold_protein::seq::Sequence;

/// Word length. 20³ = 8000 possible words — selective enough for the
/// short-ish synthetic sequences while cheap to index.
pub const K: usize = 3;

/// Inverted index from k-mer code to subject ids.
///
/// Subjects live in *slots*: [`insert`](Self::insert) reuses a slot
/// that [`remove`](Self::remove) freed before it opens a new one, so an
/// index under put/evict churn never holds more slots than its peak
/// number of live subjects. [`build`](Self::build) is the fold of
/// `insert` over a slice, which makes a subject's slot its position.
#[derive(Debug)]
pub struct KmerIndex {
    /// `postings[code]` = sorted list of slots whose subject contains it.
    postings: Vec<Vec<u32>>,
    /// `live[slot]`: whether the slot currently holds a subject.
    live: Vec<bool>,
    /// Freed slots, reused last-freed-first.
    free: Vec<u32>,
}

/// Encode a window of K residues as an integer code.
#[inline]
fn encode(window: &[summitfold_protein::aa::AminoAcid]) -> usize {
    window.iter().fold(0usize, |acc, aa| acc * 20 + aa.index())
}

/// K-mer windows of `seq` beyond the first occurrence of their word:
/// windows minus distinct codes. [`KmerIndex::candidates`] counts
/// distinct query words, so this is how far the count can fall short of
/// the number of matching *windows* (see
/// [`min_shared_kmers`](crate::cluster::min_shared_kmers)).
#[must_use]
pub fn repeated_windows(seq: &Sequence) -> usize {
    let mut codes: Vec<usize> = seq.residues.windows(K).map(encode).collect();
    let windows = codes.len();
    codes.sort_unstable();
    codes.dedup();
    windows - codes.len()
}

impl Default for KmerIndex {
    fn default() -> Self {
        Self {
            postings: vec![Vec::new(); 20usize.pow(K as u32)],
            live: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl KmerIndex {
    /// Build the index over a set of subject sequences; subject `i`
    /// lands in slot `i`.
    #[must_use]
    pub fn build(subjects: &[Sequence]) -> Self {
        let mut index = Self::default();
        for seq in subjects {
            index.insert(seq);
        }
        index
    }

    /// Index `seq` and return its slot.
    pub fn insert(&mut self, seq: &Sequence) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.live.push(false);
            // sfcheck::allow(panic-hygiene, index capacity is u32; a >4-billion-sequence database is out of scope)
            u32::try_from(self.live.len() - 1).expect("too many subjects")
        });
        self.live[slot as usize] = true;
        // A fresh slot is the largest id ever issued, so it appends; a
        // reused one finds its sorted place. Either way each (kmer,
        // subject) pair is recorded once.
        let fresh = slot as usize + 1 == self.live.len();
        for window in seq.residues.windows(K) {
            let posting = &mut self.postings[encode(window)];
            if fresh {
                if posting.last() != Some(&slot) {
                    posting.push(slot);
                }
            } else if let Err(at) = posting.binary_search(&slot) {
                posting.insert(at, slot);
            }
        }
        slot as usize
    }

    /// Drop the subject in `slot`; `seq` must be the sequence it was
    /// inserted with. The slot becomes free for the next insert.
    pub fn remove(&mut self, slot: usize, seq: &Sequence) {
        if !self.live.get(slot).copied().unwrap_or(false) {
            return;
        }
        self.live[slot] = false;
        let id = slot as u32;
        for window in seq.residues.windows(K) {
            let posting = &mut self.postings[encode(window)];
            // A repeated word finds its entry already gone.
            if let Ok(at) = posting.binary_search(&id) {
                posting.remove(at);
            }
        }
        self.free.push(id);
    }

    /// Number of indexed subjects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// True when no subjects are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots handed out so far, free ones included: the index's memory
    /// footprint in subjects.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.live.len()
    }

    /// Subjects sharing at least `min_hits` distinct query k-mers, with
    /// their hit counts, sorted by descending count (ties broken by
    /// ascending subject id).
    ///
    /// Candidate order is bit-for-bit deterministic: counts accumulate in
    /// a dense per-subject array (no hash-iteration order anywhere), the
    /// sweep visits subjects in ascending id order, and the final sort
    /// key `(count desc, subject id asc)` is total. Equal-count ties can
    /// therefore never reshuffle between runs — the property the seeded
    /// regression test below pins down.
    #[must_use]
    pub fn candidates(&self, query: &Sequence, min_hits: usize) -> Vec<(usize, usize)> {
        let mut counts: Vec<usize> = vec![0; self.live.len()];
        // Distinct query k-mers only: repeated words shouldn't multiply
        // evidence. The code space is small (20^K), so a dense bitmap
        // replaces the old HashSet.
        let mut seen = vec![false; self.postings.len()];
        for window in query.residues.windows(K) {
            let code = encode(window);
            if seen[code] {
                continue;
            }
            seen[code] = true;
            for &sid in &self.postings[code] {
                counts[sid as usize] += 1;
            }
        }
        let mut out: Vec<(usize, usize)> = counts
            .into_iter()
            .enumerate()
            .filter(|&(sid, c)| c >= min_hits && self.live[sid])
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_protein::rng::Xoshiro256;

    fn db(seed: u64, n: usize, len: usize) -> Vec<Sequence> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|i| Sequence::random(&format!("s{i}"), len, &mut rng))
            .collect()
    }

    #[test]
    fn finds_self() {
        let subjects = db(1, 20, 150);
        let index = KmerIndex::build(&subjects);
        let cands = index.candidates(&subjects[7], 10);
        assert_eq!(cands[0].0, 7, "self should be top candidate");
    }

    #[test]
    fn homolog_outranks_random() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let query = Sequence::random("q", 200, &mut rng);
        let homolog = query.mutated("h", 0.25, &mut rng);
        let mut subjects = db(3, 50, 200);
        subjects.push(homolog);
        let index = KmerIndex::build(&subjects);
        let cands = index.candidates(&query, 3);
        assert!(!cands.is_empty());
        assert_eq!(cands[0].0, 50, "homolog must rank first");
    }

    #[test]
    fn prefilter_discards_most_of_database() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let query = Sequence::random("q", 150, &mut rng);
        let subjects = db(5, 200, 150);
        let index = KmerIndex::build(&subjects);
        // Random 150-mers share few 3-mers-by-position; require a real
        // signal.
        let cands = index.candidates(&query, 12);
        assert!(
            cands.len() < subjects.len() / 4,
            "prefilter kept {} of {}",
            cands.len(),
            subjects.len()
        );
    }

    #[test]
    fn distant_homolog_survives_prefilter() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let query = Sequence::random("q", 300, &mut rng);
        let distant = query.mutated("d", 0.6, &mut rng); // 40% identity
        let mut subjects = db(7, 100, 300);
        subjects.push(distant);
        let index = KmerIndex::build(&subjects);
        let cands = index.candidates(&query, 8);
        assert!(
            cands.iter().any(|&(sid, _)| sid == 100),
            "distant homolog lost"
        );
    }

    #[test]
    fn empty_query_and_index() {
        let index = KmerIndex::build(&[]);
        assert!(index.is_empty());
        let q = Sequence::parse("q", "", "AC").unwrap(); // shorter than K
        assert!(index.candidates(&q, 1).is_empty());
    }

    #[test]
    fn candidate_order_is_deterministic_across_runs() {
        // Regression for the pre-BTree/dense-array implementation, where
        // equal-count ties inherited HashMap iteration order: build the
        // same seeded database repeatedly (fresh allocations each time,
        // so any address-sensitive hashing would reshuffle) and require
        // the identical candidate vector every run.
        let mut reference: Option<Vec<(usize, usize)>> = None;
        for _ in 0..5 {
            let subjects = db(42, 60, 90);
            let index = KmerIndex::build(&subjects);
            let query = subjects[11].clone();
            let cands = index.candidates(&query, 1);
            // Equal-count ties must be ordered by ascending subject id.
            for w in cands.windows(2) {
                assert!(
                    w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "tie-break violated: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            match &reference {
                None => reference = Some(cands),
                Some(r) => assert_eq!(r, &cands, "candidate order changed between runs"),
            }
        }
    }

    #[test]
    fn random_insert_remove_matches_build_over_the_live_set() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let pool = db(10, 40, 60);
        let mut index = KmerIndex::default();
        // slot → position in `pool`, as the caller of insert/remove tracks it.
        let mut slots: Vec<Option<usize>> = Vec::new();
        for step in 0..400 {
            let occupied: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
            if !occupied.is_empty() && rng.below(3) == 0 {
                let slot = occupied[rng.below(occupied.len())];
                let which = slots[slot].take().unwrap();
                index.remove(slot, &pool[which]);
            } else {
                let which = rng.below(pool.len());
                let slot = index.insert(&pool[which]);
                if slot == slots.len() {
                    slots.push(None);
                }
                assert!(
                    slots[slot].is_none(),
                    "step {step}: slot {slot} handed out twice"
                );
                slots[slot] = Some(which);
            }
            // The reference: a fresh build over the live subjects in slot
            // order, so reference id = rank of the slot among live ones.
            let live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
            let subjects: Vec<Sequence> = live
                .iter()
                .map(|&s| pool[slots[s].unwrap()].clone())
                .collect();
            let reference = KmerIndex::build(&subjects);
            assert_eq!(index.len(), reference.len());
            let query = &pool[rng.below(pool.len())];
            for min_hits in [0, 1, 4] {
                let got = index.candidates(query, min_hits);
                let want: Vec<(usize, usize)> = reference
                    .candidates(query, min_hits)
                    .into_iter()
                    .map(|(rank, count)| (live[rank], count))
                    .collect();
                assert_eq!(got, want, "step {step}, min_hits {min_hits}");
            }
        }
        // Postings stayed sorted and duplicate-free throughout.
        for posting in &index.postings {
            assert!(posting.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn churn_reuses_slots_instead_of_growing() {
        // A capped store's life: 16 live subjects, each put evicting the
        // oldest, 500 times over.
        let pool = db(11, 64, 80);
        let mut index = KmerIndex::default();
        let mut window: std::collections::VecDeque<(usize, usize)> = (0..16)
            .map(|which| (index.insert(&pool[which]), which))
            .collect();
        for step in 0..500 {
            let which = (16 + step) % pool.len();
            window.push_back((index.insert(&pool[which]), which));
            let (slot, old) = window.pop_front().unwrap();
            index.remove(slot, &pool[old]);
            assert_eq!(index.len(), 16);
            assert!(index.slots() <= 17, "step {step}: {} slots", index.slots());
        }
        let entries: usize = index.postings.iter().map(Vec::len).sum();
        let live: usize = window
            .iter()
            .map(|&(_, which)| pool[which].len() - repeated_windows(&pool[which]) - (K - 1))
            .sum();
        assert_eq!(entries, live, "postings hold the live subjects only");
    }

    #[test]
    fn repeated_windows_counts_beyond_first_occurrence() {
        let seq = |s: &str| Sequence::parse("s", "", s).unwrap();
        assert_eq!(repeated_windows(&seq("ACDEFGH")), 0);
        assert_eq!(repeated_windows(&seq("AAAAAA")), 3, "4 windows, 1 word");
        assert_eq!(repeated_windows(&seq("ACACACA")), 3, "ACA CAC ACA CAC ACA");
        assert_eq!(repeated_windows(&seq("AC")), 0, "shorter than K");
    }

    #[test]
    fn counts_sorted_descending() {
        let subjects = db(8, 30, 120);
        let index = KmerIndex::build(&subjects);
        let cands = index.candidates(&subjects[0], 1);
        for w in cands.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
