//! Sequence-independent structural alignment (TM-align-style).
//!
//! §4.6 of the paper aligns predicted structures against the pdb70 library
//! with APoc's global module, which reports a TM-score for the best
//! structural correspondence between two *different* proteins. This module
//! implements the core of that class of algorithms:
//!
//! 1. **seeding** — gapless threadings of the query onto the template at a
//!    range of offsets provide initial residue correspondences;
//! 2. **iterative refinement** — superpose on the current correspondence,
//!    score all query×template residue pairs by spatial proximity
//!    (`1/(1+d²/d0²)`), realign with Needleman–Wunsch (order-preserving,
//!    affine-free gap penalty), and repeat until the alignment fixes;
//! 3. **scoring** — TM-score normalized by query length over the final
//!    correspondence, plus sequence identity across aligned pairs (the
//!    quantity the paper uses to show matches are sequence-invisible).
//!
//! **Cost.** Every refinement round is one n×m DP, so the DP is the whole
//! cost of a pdb70 search. It sweeps anti-diagonals: the cells of one
//! anti-diagonal depend only on the two before it, so the proximity scores
//! and the recurrence of a diagonal are element-wise loops over three
//! rolling diagonal buffers, and only a `u8` traceback is kept per cell.
//! One `Workspace` per call holds every buffer for all seeds and rounds,
//! and an exact memo ends a refinement that reaches a correspondence the
//! call has already refined (see `refine` for why the result cannot
//! change). Outputs are bit-identical to a row-major, memo-free DP.

use crate::kabsch::superpose;
use crate::tm::tm_d0;
use std::collections::BTreeMap;
use summitfold_protein::geom::Vec3;
use summitfold_protein::seq::Sequence;
use summitfold_protein::structure::Structure;

/// Result of a structural alignment of a query onto a template.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// TM-score normalized by the query length.
    pub tm_query: f64,
    /// Aligned residue pairs `(query_index, template_index)`, ascending.
    pub pairs: Vec<(usize, usize)>,
    /// Fraction of aligned pairs with identical residues, in `[0, 1]`.
    pub seq_identity: f64,
    /// RMSD over the aligned pairs after the final superposition (Å).
    pub rmsd: f64,
}

impl Alignment {
    fn none() -> Self {
        Self {
            tm_query: 0.0,
            pairs: Vec::new(),
            seq_identity: 0.0,
            rmsd: 0.0,
        }
    }
}

/// Gap penalty for the alignment DP (in score units of the proximity
/// matrix, whose entries lie in `(0, 1]`). TM-align uses −0.6.
const GAP_PENALTY: f64 = 0.6;

/// Superpose → realign rounds one seed gets at most.
const ROUNDS: usize = 6;

/// Align `query` onto `template` structurally; residue identities are used
/// only for the reported `seq_identity`, never for the alignment itself.
#[must_use]
pub fn structural_align(
    query: &Structure,
    query_seq: &Sequence,
    template: &Structure,
    template_seq: &Sequence,
) -> Alignment {
    // sfcheck::allow(panic-hygiene, caller contract; structural alignment of nothing is undefined)
    assert!(
        !query.is_empty() && !template.is_empty(),
        "cannot align empty structures"
    );
    let mut ws = Workspace::new(query.len(), &template.ca);
    align_with(&mut ws, query, query_seq, template, template_seq)
}

fn align_with(
    ws: &mut Workspace,
    query: &Structure,
    query_seq: &Sequence,
    template: &Structure,
    template_seq: &Sequence,
) -> Alignment {
    let n = query.len();
    let m = template.len();
    let d0 = tm_d0(n);
    let mut best = Alignment::none();

    // Gapless threading seeds: offsets that give at least `min_overlap`.
    let min_overlap = 12.min(n.min(m));
    let lo = -(m as i64) + min_overlap as i64;
    let hi = n as i64 - min_overlap as i64;
    let span = (hi - lo).max(1);
    let step = (span / 8).max(1);
    let mut offset = lo;
    while offset <= hi {
        let pairs: Vec<(usize, usize)> = (0..n)
            .filter_map(|i| {
                let j = i as i64 - offset;
                (j >= 0 && (j as usize) < m).then_some((i, j as usize))
            })
            .collect();
        if pairs.len() >= min_overlap {
            let cand = refine(ws, query, template, pairs, d0);
            if cand.tm_query > best.tm_query {
                best = cand;
            }
        }
        offset += step;
    }

    // Sequence identity over the winning correspondence.
    if !best.pairs.is_empty() {
        let same = best
            .pairs
            .iter()
            .filter(|&&(i, j)| query_seq.residues[i] == template_seq.residues[j])
            .count();
        best.seq_identity = same as f64 / best.pairs.len() as f64;
    }
    best
}

/// Iteratively refine a correspondence; returns the best alignment found.
///
/// **Memo exactness.** Within one call the query, template and `d0` are
/// fixed, so a round is a pure function of its correspondence `P`: the
/// superposition, the TM-score, the `len < 3` and fixpoint exits and the
/// next correspondence all follow from `P`. Suppose `P` reaches round `t`
/// after it was already refined at round `s ≤ t` (by this seed or an
/// earlier one). The rounds `t, t+1, …` that would follow replay rounds
/// `s, s+1, …`, which had at least as many rounds left, so every state
/// they would score has been scored before, with the same bits — or was
/// itself cut by this memo, and the argument repeats for that earlier
/// state. A re-scored copy can never win: `best.tm_query` only grows (both
/// here and in the seed loop) and both compare with strict `>`, so when a
/// copy comes round again the best it faces, locally or across seeds, is
/// already at least the original's score. If the copies would have won
/// this seed's local best, the seed loop rejects that local best anyway;
/// the kept prefix's best is the same state otherwise. So stopping at the
/// first revisited state changes neither the returned alignment nor the
/// call's winner.
fn refine(
    ws: &mut Workspace,
    query: &Structure,
    template: &Structure,
    mut pairs: Vec<(usize, usize)>,
    d0: f64,
) -> Alignment {
    let n = query.len();
    let mut best = Alignment::none();
    for round in 0..ROUNDS {
        if pairs.len() < 3 {
            break;
        }
        if ws.memo.get(&pairs).is_some_and(|&seen| seen <= round) {
            #[cfg(test)]
            {
                ws.memo_stops += 1;
            }
            break;
        }
        ws.memo.insert(pairs.clone(), round);

        ws.mob.clear();
        ws.mob.extend(pairs.iter().map(|&(i, _)| query.ca[i]));
        ws.refp.clear();
        ws.refp.extend(pairs.iter().map(|&(_, j)| template.ca[j]));
        let sup = superpose(&ws.mob, &ws.refp);
        ws.q.clear();
        ws.q.extend(query.ca.iter().map(|&p| sup.transform(p)));
        let q = &ws.q;

        // TM-score (query-normalized) of the current correspondence.
        let tm: f64 = pairs
            .iter()
            .map(|&(i, j)| 1.0 / (1.0 + q[i].dist_sq(template.ca[j]) / (d0 * d0)))
            .sum::<f64>()
            / n as f64;
        if tm > best.tm_query {
            best = Alignment {
                tm_query: tm,
                pairs: pairs.clone(),
                seq_identity: 0.0,
                rmsd: sup.rmsd,
            };
        }

        // Re-align with DP on the proximity score matrix.
        let next = dp_align(ws, d0);
        if next == pairs {
            break;
        }
        pairs = next;
    }
    best
}

/// Scratch state of one [`structural_align`] call: the DP buffers every
/// seed and refinement round reuses, and the memo of refined
/// correspondences.
struct Workspace {
    /// Template Cα split by axis and reversed (`tx[m - j]` is residue
    /// `j - 1`), so walking an anti-diagonal down the query walks the
    /// template forwards.
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    /// The superposed query, as points and split by axis.
    q: Vec<Vec3>,
    qx: Vec<f64>,
    qy: Vec<f64>,
    qz: Vec<f64>,
    /// Superposition inputs of the current correspondence.
    mob: Vec<Vec3>,
    refp: Vec<Vec3>,
    /// Proximity scores of the current anti-diagonal.
    score: Vec<f64>,
    /// Three rolling anti-diagonals of DP values, indexed by query row.
    diags: [Vec<f64>; 3],
    /// `edge[k]`: value of a border cell `k` gaps from the origin.
    edge: Vec<f64>,
    /// Traceback, anti-diagonal-major: cell `(i, j)` lives at
    /// `offset[i + j] + i - (i + j).saturating_sub(m)`. 0 = diag, 1 = up
    /// (gap in template), 2 = left; the borders are written once here.
    tb: Vec<u8>,
    offset: Vec<usize>,
    /// Correspondence → earliest round it was refined at, this call.
    memo: BTreeMap<Vec<(usize, usize)>, usize>,
    /// Refinements the memo cut short.
    #[cfg(test)]
    memo_stops: usize,
}

impl Workspace {
    fn new(n: usize, template: &[Vec3]) -> Self {
        let m = template.len();
        let reversed = |axis: fn(&Vec3) -> f64| template.iter().rev().map(axis).collect();
        let mut edge = vec![0.0f64; n.max(m) + 1];
        for k in 1..edge.len() {
            edge[k] = edge[k - 1] - GAP_PENALTY;
        }
        let mut offset = Vec::with_capacity(n + m + 2);
        let mut cells = 0;
        for d in 0..=n + m {
            offset.push(cells);
            cells += n.min(d) - d.saturating_sub(m) + 1;
        }
        offset.push(cells);
        let mut ws = Self {
            tx: reversed(|p| p.x),
            ty: reversed(|p| p.y),
            tz: reversed(|p| p.z),
            q: Vec::with_capacity(n),
            qx: Vec::with_capacity(n),
            qy: Vec::with_capacity(n),
            qz: Vec::with_capacity(n),
            mob: Vec::new(),
            refp: Vec::new(),
            score: vec![0.0; n],
            diags: [vec![0.0; n + 1], vec![0.0; n + 1], vec![0.0; n + 1]],
            edge,
            tb: vec![0; cells],
            offset,
            memo: BTreeMap::new(),
            #[cfg(test)]
            memo_stops: 0,
        };
        for i in 1..=n {
            let at = ws.tb_index(i, 0);
            ws.tb[at] = 1;
        }
        for j in 1..=m {
            let at = ws.tb_index(0, j);
            ws.tb[at] = 2;
        }
        ws
    }

    #[inline]
    fn tb_index(&self, i: usize, j: usize) -> usize {
        let d = i + j;
        self.offset[d] + i - d.saturating_sub(self.tx.len())
    }
}

/// Global alignment (Needleman–Wunsch) of the superposed query in
/// `ws.q` onto the template, on the proximity score matrix
/// `s[i][j] = 1/(1+d²/d0²) − ε` with linear gap penalty. The ε offset
/// discourages aligning far-apart residues just because scores are
/// positive.
///
/// The matrix is swept by anti-diagonals `d = i + j` (1-based DP
/// indices): cell `(i, j)` reads `(i−1, j−1)` from diagonal `d−2` and
/// `(i−1, j)`, `(i, j−1)` from `d−1`, so each diagonal is an element-wise
/// pass over query rows. Every cell evaluates the same expressions as the
/// row-major fill it replaced, so values, ties and traceback are the same.
fn dp_align(ws: &mut Workspace, d0: f64) -> Vec<(usize, usize)> {
    let n = ws.q.len();
    let m = ws.tx.len();
    let d0sq = d0 * d0;
    ws.qx.clear();
    ws.qx.extend(ws.q.iter().map(|p| p.x));
    ws.qy.clear();
    ws.qy.extend(ws.q.iter().map(|p| p.y));
    ws.qz.clear();
    ws.qz.extend(ws.q.iter().map(|p| p.z));

    let Workspace {
        tx,
        ty,
        tz,
        qx,
        qy,
        qz,
        score,
        diags,
        edge,
        tb,
        offset,
        ..
    } = ws;
    let [a, b, c] = diags;
    let (mut before, mut prev, mut cur) = (a, b, c);
    for d in 0..=n + m {
        if d <= m {
            cur[0] = edge[d];
        }
        if d <= n {
            cur[d] = edge[d];
        }
        // Interior rows of this diagonal: 1 ≤ i ≤ n and 1 ≤ j = d − i ≤ m.
        let lo = d.saturating_sub(m).max(1);
        let hi = n.min(d.saturating_sub(1));
        if lo <= hi {
            let len = hi - lo + 1;
            // Template residue j − 1 = d − i − 1 sits at reversed index
            // m − d + i, which grows with i.
            let t0 = m + lo - d;
            let (qx, qy, qz) = (
                &qx[lo - 1..][..len],
                &qy[lo - 1..][..len],
                &qz[lo - 1..][..len],
            );
            let (tx, ty, tz) = (&tx[t0..][..len], &ty[t0..][..len], &tz[t0..][..len]);
            let s = &mut score[..len];
            for k in 0..len {
                let dx = qx[k] - tx[k];
                let dy = qy[k] - ty[k];
                let dz = qz[k] - tz[k];
                let d2 = dx * dx + dy * dy + dz * dz;
                s[k] = 1.0 / (1.0 + d2 / d0sq) - 0.17;
            }
            let diag_in = &before[lo - 1..][..len];
            let up_in = &prev[lo - 1..][..len];
            let left_in = &prev[lo..][..len];
            let out = &mut cur[lo..][..len];
            let start = offset[d] + lo - d.saturating_sub(m);
            let dirs = &mut tb[start..][..len];
            for k in 0..len {
                let diag = diag_in[k] + s[k];
                let up = up_in[k] - GAP_PENALTY;
                let left = left_in[k] - GAP_PENALTY;
                // Same choice as `diag >= up && diag >= left → diag, else
                // up >= left → up, else left`. If `diag >= up`, both pick
                // diag iff `diag >= left`; otherwise `up >= left` fails
                // too (`up ≤ diag`, and `left` is above `diag` or NaN),
                // so both pick left. If not, both pick up iff
                // `up >= left`, else left. No `f64::max`: its NaN and
                // signed-zero rules differ from these comparisons.
                let (du, du_dir) = if diag >= up { (diag, 0) } else { (up, 1) };
                let keep = du >= left;
                out[k] = if keep { du } else { left };
                dirs[k] = if keep { du_dir } else { 2 };
            }
        }
        (before, prev, cur) = (prev, cur, before);
    }

    // Traceback.
    let mut pairs = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match ws.tb[ws.tb_index(i, j)] {
            0 if i > 0 && j > 0 => {
                pairs.push((i - 1, j - 1));
                i -= 1;
                j -= 1;
            }
            1 if i > 0 => i -= 1,
            _ => j -= 1,
        }
    }
    pairs.reverse();
    pairs
}

/// The row-major, memo-free aligner the anti-diagonal sweep replaced,
/// kept verbatim as the differential reference (minus the empty-input
/// assert, which the callers under test already satisfy).
#[cfg(test)]
pub(crate) mod reference {
    use super::{Alignment, GAP_PENALTY};
    use crate::kabsch::superpose;
    use crate::tm::tm_d0;
    use summitfold_protein::geom::Vec3;
    use summitfold_protein::seq::Sequence;
    use summitfold_protein::structure::Structure;

    pub(crate) fn structural_align(
        query: &Structure,
        query_seq: &Sequence,
        template: &Structure,
        template_seq: &Sequence,
    ) -> Alignment {
        let n = query.len();
        let m = template.len();
        let d0 = tm_d0(n);
        let mut best = Alignment::none();
        let min_overlap = 12.min(n.min(m));
        let lo = -(m as i64) + min_overlap as i64;
        let hi = n as i64 - min_overlap as i64;
        let span = (hi - lo).max(1);
        let step = (span / 8).max(1);
        let mut offset = lo;
        while offset <= hi {
            let pairs: Vec<(usize, usize)> = (0..n)
                .filter_map(|i| {
                    let j = i as i64 - offset;
                    (j >= 0 && (j as usize) < m).then_some((i, j as usize))
                })
                .collect();
            if pairs.len() >= min_overlap {
                let cand = refine(query, template, pairs, d0);
                if cand.tm_query > best.tm_query {
                    best = cand;
                }
            }
            offset += step;
        }
        if !best.pairs.is_empty() {
            let same = best
                .pairs
                .iter()
                .filter(|&&(i, j)| query_seq.residues[i] == template_seq.residues[j])
                .count();
            best.seq_identity = same as f64 / best.pairs.len() as f64;
        }
        best
    }

    fn refine(
        query: &Structure,
        template: &Structure,
        mut pairs: Vec<(usize, usize)>,
        d0: f64,
    ) -> Alignment {
        let n = query.len();
        let mut best = Alignment::none();
        for _ in 0..6 {
            if pairs.len() < 3 {
                break;
            }
            let mob: Vec<Vec3> = pairs.iter().map(|&(i, _)| query.ca[i]).collect();
            let refp: Vec<Vec3> = pairs.iter().map(|&(_, j)| template.ca[j]).collect();
            let sup = superpose(&mob, &refp);
            let q: Vec<Vec3> = query.ca.iter().map(|&p| sup.transform(p)).collect();
            let tm: f64 = pairs
                .iter()
                .map(|&(i, j)| 1.0 / (1.0 + q[i].dist_sq(template.ca[j]) / (d0 * d0)))
                .sum::<f64>()
                / n as f64;
            if tm > best.tm_query {
                best = Alignment {
                    tm_query: tm,
                    pairs: pairs.clone(),
                    seq_identity: 0.0,
                    rmsd: sup.rmsd,
                };
            }
            let next = dp_align(&q, &template.ca, d0);
            if next == pairs {
                break;
            }
            pairs = next;
        }
        best
    }

    pub(super) fn dp_align(query: &[Vec3], template: &[Vec3], d0: f64) -> Vec<(usize, usize)> {
        let n = query.len();
        let m = template.len();
        let d0sq = d0 * d0;
        let mut s = vec![0.0f64; n * m];
        for i in 0..n {
            for j in 0..m {
                s[i * m + j] = 1.0 / (1.0 + query[i].dist_sq(template[j]) / d0sq) - 0.17;
            }
        }
        let mut dp = vec![0.0f64; (n + 1) * (m + 1)];
        let mut tb = vec![0u8; (n + 1) * (m + 1)];
        let w = m + 1;
        for i in 1..=n {
            dp[i * w] = dp[(i - 1) * w] - GAP_PENALTY;
            tb[i * w] = 1;
        }
        for j in 1..=m {
            dp[j] = dp[j - 1] - GAP_PENALTY;
            tb[j] = 2;
        }
        for i in 1..=n {
            for j in 1..=m {
                let diag = dp[(i - 1) * w + (j - 1)] + s[(i - 1) * m + (j - 1)];
                let up = dp[(i - 1) * w + j] - GAP_PENALTY;
                let left = dp[i * w + (j - 1)] - GAP_PENALTY;
                let (val, dir) = if diag >= up && diag >= left {
                    (diag, 0)
                } else if up >= left {
                    (up, 1)
                } else {
                    (left, 2)
                };
                dp[i * w + j] = val;
                tb[i * w + j] = dir;
            }
        }
        let mut pairs = Vec::new();
        let (mut i, mut j) = (n, m);
        while i > 0 || j > 0 {
            match tb[i * w + j] {
                0 if i > 0 && j > 0 => {
                    pairs.push((i - 1, j - 1));
                    i -= 1;
                    j -= 1;
                }
                1 if i > 0 => i -= 1,
                _ => j -= 1,
            }
        }
        pairs.reverse();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdb70::Pdb70;
    use summitfold_protein::family::Family;
    use summitfold_protein::fold;
    use summitfold_protein::geom::Mat3;
    use summitfold_protein::rng::Xoshiro256;

    /// A structure with its sequence.
    type Chain = (Structure, Sequence);

    fn fam(id: u64, len: usize) -> Chain {
        let f = Family::new(id, len);
        (f.representative(), f.base_sequence())
    }

    fn assert_same(got: &Alignment, want: &Alignment, case: &str) {
        assert_eq!(
            got.tm_query.to_bits(),
            want.tm_query.to_bits(),
            "{case}: tm"
        );
        assert_eq!(got.rmsd.to_bits(), want.rmsd.to_bits(), "{case}: rmsd");
        assert_eq!(
            got.seq_identity.to_bits(),
            want.seq_identity.to_bits(),
            "{case}: identity"
        );
        assert_eq!(got.pairs, want.pairs, "{case}: pairs");
    }

    /// `s` with every Cα displaced by seeded noise of the given size.
    fn jittered(s: &Structure, sd: f64, rng: &mut Xoshiro256) -> Structure {
        let mut out = s.clone();
        for p in &mut out.ca {
            *p += Vec3::new(
                rng.normal(0.0, sd),
                rng.normal(0.0, sd),
                rng.normal(0.0, sd),
            );
        }
        out
    }

    /// `head` followed by `tail` shifted far away: a domain embedded in a
    /// longer chain.
    fn embedded(head: &Chain, tail: &Chain) -> Chain {
        let shift = Vec3::new(60.0, 0.0, 0.0);
        let (h, t) = (&head.0, &tail.0);
        let mut res = h.residues.clone();
        res.extend(t.residues.iter().copied());
        let mut ca = h.ca.clone();
        ca.extend(t.ca.iter().map(|&p| p + shift));
        let mut sc = h.sidechain.clone();
        sc.extend(t.sidechain.iter().map(|&p| p + shift));
        let letters = head.1.to_letters() + &tail.1.to_letters();
        (
            Structure::new("embedded", res, ca, sc),
            Sequence::parse("embedded", "", &letters).unwrap(),
        )
    }

    #[test]
    fn matches_the_row_major_memo_free_reference() {
        let mut rng = Xoshiro256::seed_from_u64(0xa11e);
        let mut cases: Vec<(String, Chain, Chain)> = Vec::new();
        // Family members against their representative, n ≠ m included.
        for k in 0..10u64 {
            let len = 40 + rng.below(260);
            let f = Family::new(100 + k, len);
            let member = (
                f.member_fold(k, rng.range(0.5, 3.0)),
                f.member_sequence(k, rng.range(0.3, 0.9), "m"),
            );
            cases.push((
                format!("member {k}"),
                member,
                (f.representative(), f.base_sequence()),
            ));
        }
        // Unrelated folds of different lengths, both ways round.
        for k in 0..6u64 {
            let a = fam(200 + k, 30 + rng.below(200));
            let b = fam(300 + k, 30 + rng.below(200));
            cases.push((format!("unrelated {k}"), a.clone(), b.clone()));
            cases.push((format!("unrelated {k} swapped"), b, a));
        }
        // Chains shorter than the 12-residue seed overlap, down to one residue.
        for len in [1, 2, 3, 5, 8, 11] {
            let short = fam(400 + len as u64, len);
            let long = fam(500 + len as u64, 60);
            cases.push((format!("short {len} vs 60"), short.clone(), long.clone()));
            cases.push((format!("60 vs short {len}"), long, short.clone()));
            let noisy = (jittered(&short.0, 0.8, &mut rng), short.1.clone());
            cases.push((format!("short {len} self"), noisy, short));
        }
        // Embedded domains and rigidly moved, jittered copies.
        for k in 0..3u64 {
            let small = fam(600 + k, 60 + rng.below(80));
            let pad = fam(700 + k, 30 + rng.below(80));
            let big = embedded(&small, &pad);
            cases.push((format!("embedded {k}"), small.clone(), big.clone()));
            cases.push((format!("embedded {k} reversed roles"), big, small.clone()));
            let r = Mat3::rotation(Vec3::new(0.3, 1.0, -0.5), rng.range(0.0, 3.0));
            let mut moved = jittered(&small.0, 1.0, &mut rng);
            for p in &mut moved.ca {
                *p = r.apply(*p) + Vec3::new(-20.0, 8.0, 3.0);
            }
            cases.push((format!("moved {k}"), (moved, small.1.clone()), small));
        }
        // The longest pdb70 decoys (up to 1,400 residues) against deformed
        // copies of themselves and of each other.
        let lib = Pdb70::build([], 40, 5);
        let mut decoys: Vec<_> = lib.entries().iter().collect();
        decoys.sort_by_key(|e| std::cmp::Reverse(e.structure.len()));
        let (big, next) = (decoys[0], decoys[1]);
        assert!(
            big.structure.len() > 700,
            "longest decoy {}",
            big.structure.len()
        );
        let deformed = (
            big.family.member_fold(1, 2.0),
            big.family.member_sequence(1, 0.6, "d"),
        );
        let template = (big.structure.clone(), big.sequence.clone());
        let other = (next.structure.clone(), next.sequence.clone());
        cases.push(("decoy deformed".into(), deformed.clone(), template));
        cases.push(("decoy vs decoy".into(), deformed, other));

        for (case, (qs, qq), (ts, tq)) in &cases {
            let got = structural_align(qs, qq, ts, tq);
            let want = reference::structural_align(qs, qq, ts, tq);
            assert_same(&got, &want, case);
        }
    }

    #[test]
    fn dp_matches_the_reference_on_exact_ties() {
        // Points on a coarse lattice repeat the same few distances, so
        // many cells score bit-identically and the three-way choice meets
        // exact ties between diag, up and left.
        let mut rng = Xoshiro256::seed_from_u64(0x71e5);
        let mut lattice = |len: usize| -> Vec<Vec3> {
            (0..len)
                .map(|_| Vec3::new(rng.below(3) as f64 * 2.0, rng.below(2) as f64 * 2.0, 0.0))
                .collect()
        };
        for case in 0..300 {
            let (n, m) = (1 + case % 23, 1 + case * 7 % 31);
            let (query, template) = (lattice(n), lattice(m));
            let d0 = [0.5, 1.0, 2.0, 3.5][case % 4];
            let mut ws = Workspace::new(n, &template);
            ws.q.clone_from(&query);
            assert_eq!(
                dp_align(&mut ws, d0),
                reference::dp_align(&query, &template, d0),
                "case {case}: {n}×{m}, d0 {d0}"
            );
        }
    }

    #[test]
    fn memo_skips_a_refinement_on_a_family_member() {
        let f = Family::new(3, 160);
        let (rep, rep_seq) = (f.representative(), f.base_sequence());
        let member = f.member_fold(9, 1.5);
        let member_seq = f.member_sequence(9, 0.88, "m");
        let mut ws = Workspace::new(member.len(), &rep.ca);
        let got = align_with(&mut ws, &member, &member_seq, &rep, &rep_seq);
        assert!(ws.memo_stops >= 1, "memo never cut a refinement short");
        let want = reference::structural_align(&member, &member_seq, &rep, &rep_seq);
        assert_same(&got, &want, "family member");
    }

    #[test]
    fn self_alignment_is_perfect() {
        let (s, q) = fam(1, 120);
        let a = structural_align(&s, &q, &s, &q);
        assert!(a.tm_query > 0.98, "tm {}", a.tm_query);
        assert!((a.seq_identity - 1.0).abs() < 1e-12);
        assert_eq!(a.pairs.len(), 120);
    }

    #[test]
    fn alignment_is_rigid_motion_invariant() {
        let (s, q) = fam(2, 100);
        let mut moved = s.clone();
        let r = Mat3::rotation(Vec3::new(1.0, -0.3, 0.8), 1.7);
        for p in &mut moved.ca {
            *p = r.apply(*p) + Vec3::new(30.0, -12.0, 5.0);
        }
        let a = structural_align(&moved, &q, &s, &q);
        assert!(a.tm_query > 0.98, "tm {}", a.tm_query);
    }

    #[test]
    fn family_member_aligns_to_representative_with_low_identity() {
        // The §4.6 mechanism in miniature: high structural similarity,
        // low sequence identity.
        let f = Family::new(3, 160);
        let rep = f.representative();
        let rep_seq = f.base_sequence();
        let member_seq = f.member_sequence(9, 0.88, "m");
        let member_fold = f.member_fold(9, 1.5);
        let a = structural_align(&member_fold, &member_seq, &rep, &rep_seq);
        assert!(a.tm_query > 0.55, "tm {}", a.tm_query);
        assert!(a.seq_identity < 0.25, "identity {}", a.seq_identity);
    }

    #[test]
    fn unrelated_folds_align_poorly() {
        let (a, qa) = fam(4, 150);
        let (b, qb) = fam(5, 150);
        let r = structural_align(&a, &qa, &b, &qb);
        assert!(r.tm_query < 0.45, "tm {}", r.tm_query);
    }

    #[test]
    fn different_lengths_align() {
        let (a, qa) = fam(6, 90);
        let (b, qb) = fam(7, 180);
        let r = structural_align(&a, &qa, &b, &qb);
        assert!(r.tm_query >= 0.0 && r.tm_query <= 1.0);
        // Pairs must be strictly increasing in both coordinates.
        for w in r.pairs.windows(2) {
            assert!(w[1].0 > w[0].0 && w[1].1 > w[0].1, "non-monotone pairs");
        }
    }

    #[test]
    fn embedded_domain_is_found() {
        // Template = query fold embedded in a longer chain: alignment
        // should recover most of the embedded correspondence.
        let f = Family::new(8, 100);
        let small = f.representative();
        let small_seq = f.base_sequence();
        let mut rng = Xoshiro256::seed_from_u64(88);
        let pad_seq = Sequence::random("pad", 60, &mut rng);
        let pad = fold::ground_truth(&pad_seq);
        let (big, big_seq) = embedded(&(small.clone(), small_seq.clone()), &(pad, pad_seq));
        let a = structural_align(&small, &small_seq, &big, &big_seq);
        assert!(a.tm_query > 0.8, "tm {}", a.tm_query);
    }

    #[test]
    fn pairs_are_valid_indices() {
        let (a, qa) = fam(10, 70);
        let (b, qb) = fam(11, 130);
        let r = structural_align(&a, &qa, &b, &qb);
        for &(i, j) in &r.pairs {
            assert!(i < 70 && j < 130);
        }
    }
}
