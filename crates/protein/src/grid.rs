//! Uniform spatial grid for O(N) neighbour queries.
//!
//! Both the fold compactor and the relaxation force field need "all pairs
//! closer than r_cut" repeatedly over thousands of points; the naive O(N²)
//! scan is the dominant cost for 2,500-residue chains. A cell grid with
//! cell size ≥ r_cut reduces each query to the 27 surrounding cells.
//!
//! The grid is flat: one sort of `(cell, index)` yields the occupied cells
//! in ascending `(cx, cy, cz)` order, each owning a contiguous run of
//! point indices. A query sweeps the cells in that order and finds each of
//! the 13 forward neighbour cells with its own cursor into the sorted keys.
//! Adding a fixed offset preserves lexicographic order, so the neighbour
//! keys a sweep asks for only ever increase and no cursor moves backwards:
//! a whole query costs O(cells) key comparisons on top of the distance
//! tests, where a map probe per neighbour cost O(log cells) each.
//!
//! **Visit order is a contract.** The fold compactor and the force field
//! accumulate floating-point sums in the order pairs are visited, and
//! reproducibility across runs is a workspace-wide invariant. Cells are
//! visited in ascending `(cx, cy, cz)`; within a cell, members in ascending
//! index; each cell's in-cell pairs come first, then its neighbours in
//! `FORWARD_NEIGHBOURS` order; every visit passes `d2.sqrt()` of
//! `Vec3::dist_sq`.

use crate::geom::Vec3;

/// Cell coordinates of a point.
type Key = (i32, i32, i32);

/// Spatial grid over points, rebuilt per configuration (cheap: one sort).
#[derive(Debug)]
pub struct SpatialGrid {
    cell: f64,
    /// Occupied cells, strictly ascending.
    keys: Vec<Key>,
    /// `members[starts[c]..starts[c + 1]]` are the points of `keys[c]`.
    starts: Vec<usize>,
    /// Point indices grouped by cell, ascending within each cell.
    members: Vec<u32>,
}

impl SpatialGrid {
    /// Build a grid with the given cell size (use the largest cutoff you
    /// plan to query; querying beyond it misses pairs).
    #[must_use]
    pub fn build(points: &[Vec3], cell: f64) -> Self {
        // sfcheck::allow(panic-hygiene, caller contract; a degenerate cell size cannot bin points)
        assert!(cell > 0.0, "cell size must be positive");
        let mut binned: Vec<(Key, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    Self::key(*p, cell),
                    // sfcheck::allow(panic-hygiene, grid capacity is u32; structures beyond 4 billion atoms are out of scope)
                    u32::try_from(i).expect("more than u32::MAX points"),
                )
            })
            .collect();
        // Indices are distinct, so the order is total: by cell, then index.
        binned.sort_unstable();
        let mut keys: Vec<Key> = Vec::new();
        let mut starts = Vec::new();
        let mut members = Vec::with_capacity(binned.len());
        for (key, i) in binned {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(members.len());
            }
            members.push(i);
        }
        starts.push(members.len());
        Self {
            cell,
            keys,
            starts,
            members,
        }
    }

    #[inline]
    fn key(p: Vec3, cell: f64) -> Key {
        (
            (p.x / cell).floor() as i32,
            (p.y / cell).floor() as i32,
            (p.z / cell).floor() as i32,
        )
    }

    /// Visit every unordered pair `(i, j)` with `i < j` whose points lie
    /// within `cutoff` of each other, in the order the module docs fix.
    /// `cutoff` must not exceed the cell size used at construction.
    pub fn for_each_pair_within(
        &self,
        points: &[Vec3],
        cutoff: f64,
        mut visit: impl FnMut(usize, usize, f64),
    ) {
        // sfcheck::allow(panic-hygiene, documented contract: querying beyond the build-time cell silently misses pairs)
        assert!(
            cutoff <= self.cell + 1e-12,
            "cutoff {cutoff} exceeds grid cell {}",
            self.cell
        );
        let c2 = cutoff * cutoff;
        let mut visit_pair = |i: u32, j: u32| {
            let d2 = points[i as usize].dist_sq(points[j as usize]);
            if d2 <= c2 {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                visit(lo as usize, hi as usize, d2.sqrt());
            }
        };
        // One forward-only cursor into `keys` per neighbour offset. Keys
        // are compared widened so an offset never wraps at the i32 edge.
        let wide = |(x, y, z): Key| (i64::from(x), i64::from(y), i64::from(z));
        let mut cursors = [0usize; FORWARD_NEIGHBOURS.len()];
        for (c, &key) in self.keys.iter().enumerate() {
            let members = &self.members[self.starts[c]..self.starts[c + 1]];
            // Pairs inside the same cell.
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    visit_pair(i, j);
                }
            }
            // Pairs against half of the neighbouring cells (the lexicographic
            // "forward" half) so every cell pair is visited exactly once.
            let (cx, cy, cz) = wide(key);
            for (&(dx, dy, dz), cursor) in FORWARD_NEIGHBOURS.iter().zip(&mut cursors) {
                let other = (cx + i64::from(dx), cy + i64::from(dy), cz + i64::from(dz));
                while *cursor < self.keys.len() && wide(self.keys[*cursor]) < other {
                    *cursor += 1;
                }
                if *cursor < self.keys.len() && wide(self.keys[*cursor]) == other {
                    let others = &self.members[self.starts[*cursor]..self.starts[*cursor + 1]];
                    for &i in members {
                        for &j in others {
                            visit_pair(i, j);
                        }
                    }
                }
            }
        }
    }

    /// Collect all neighbour pairs within `cutoff` as a sorted vector.
    #[must_use]
    pub fn pairs_within(&self, points: &[Vec3], cutoff: f64) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        self.for_each_pair_within(points, cutoff, |i, j, d| out.push((i, j, d)));
        out.sort_by_key(|a| (a.0, a.1));
        out
    }
}

/// The 13 forward neighbour offsets: half of the 26 adjacent cells, chosen
/// so that `(cell, cell+offset)` enumerates each adjacent cell pair once.
/// Every offset is lexicographically positive.
const FORWARD_NEIGHBOURS: [(i32, i32, i32); 13] = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use std::collections::BTreeMap;

    fn naive_pairs(points: &[Vec3], cutoff: f64) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        let c2 = cutoff * cutoff;
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                let d2 = points[i].dist_sq(points[j]);
                if d2 <= c2 {
                    out.push((i, j, d2.sqrt()));
                }
            }
        }
        out
    }

    /// The map-backed grid this module replaced, kept verbatim as the
    /// reference for the visit-order contract: one `BTreeMap` probe per
    /// forward neighbour.
    fn reference_visits(points: &[Vec3], cell: f64, cutoff: f64) -> Vec<(usize, usize, u64)> {
        let mut cells: BTreeMap<Key, Vec<u32>> = BTreeMap::new();
        for (i, p) in points.iter().enumerate() {
            cells
                .entry(SpatialGrid::key(*p, cell))
                .or_default()
                .push(u32::try_from(i).unwrap());
        }
        let mut out = Vec::new();
        let c2 = cutoff * cutoff;
        for (&(cx, cy, cz), members) in &cells {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    let d2 = points[i as usize].dist_sq(points[j as usize]);
                    if d2 <= c2 {
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        out.push((lo as usize, hi as usize, d2.sqrt().to_bits()));
                    }
                }
            }
            for (dx, dy, dz) in FORWARD_NEIGHBOURS {
                let other = (cx + dx, cy + dy, cz + dz);
                if let Some(others) = cells.get(&other) {
                    for &i in members {
                        for &j in others {
                            let d2 = points[i as usize].dist_sq(points[j as usize]);
                            if d2 <= c2 {
                                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                                out.push((lo as usize, hi as usize, d2.sqrt().to_bits()));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn visits(points: &[Vec3], cell: f64, cutoff: f64) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        SpatialGrid::build(points, cell)
            .for_each_pair_within(points, cutoff, |i, j, d| out.push((i, j, d.to_bits())));
        out
    }

    fn random_points(n: usize, extent: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.range(-extent, extent),
                    rng.range(-extent, extent),
                    rng.range(-extent, extent),
                )
            })
            .collect()
    }

    /// A chain of `n` steps of `dir` from `start` with seeded jitter: it
    /// spans many cells in a line, so most cursor targets fall in long
    /// runs of unoccupied keys.
    fn chain(n: usize, start: Vec3, dir: Vec3, jitter: f64, rng: &mut Xoshiro256) -> Vec<Vec3> {
        (0..n)
            .map(|k| {
                let wobble = Vec3::new(
                    rng.range(-jitter, jitter),
                    rng.range(-jitter, jitter),
                    rng.range(-jitter, jitter),
                );
                start + dir * k as f64 + wobble
            })
            .collect()
    }

    /// Points snapped to multiples of `cell / 2`, so about half of every
    /// coordinate sits exactly on a cell boundary, with repeats.
    fn lattice_points(n: usize, cell: f64, rng: &mut Xoshiro256) -> Vec<Vec3> {
        let mut snap = || (rng.below(17) as f64 - 8.0) * cell / 2.0;
        (0..n).map(|_| Vec3::new(snap(), snap(), snap())).collect()
    }

    #[test]
    fn visit_sequence_matches_the_map_backed_reference() {
        let mut rng = Xoshiro256::seed_from_u64(0x6e1d);
        let mut cases: Vec<(Vec<Vec3>, f64, f64)> = Vec::new();
        for &cell in &[1.9, 3.6, 3.85, 5.5, 8.0] {
            for &cutoff in &[cell, cell * 0.5] {
                // n ∈ {0, 1, 2}, including a coincident pair and a pair
                // straddling a boundary.
                cases.push((Vec::new(), cell, cutoff));
                cases.push((vec![Vec3::new(-0.5, 2.0, -cell)], cell, cutoff));
                cases.push((vec![Vec3::new(1.0, -1.0, 0.0); 2], cell, cutoff));
                cases.push((
                    vec![Vec3::new(-1e-9, 0.0, 0.0), Vec3::new(0.0, 0.0, 0.0)],
                    cell,
                    cutoff,
                ));
                for _ in 0..6 {
                    let n = 1 + rng.below(300);
                    let extent = rng.range(2.0, 40.0);
                    let mut pts = random_points(n, extent, rng.next_u64());
                    // Coincident points: duplicate a few at random.
                    for _ in 0..rng.below(5) {
                        let p = pts[rng.below(pts.len())];
                        pts.push(p);
                    }
                    cases.push((pts, cell, cutoff));
                    cases.push((
                        lattice_points(1 + rng.below(120), cell, &mut rng),
                        cell,
                        cutoff,
                    ));
                }
                // Extended chains: straight along each axis and diagonal,
                // through negative coordinates.
                for dir in [
                    Vec3::new(3.8, 0.0, 0.0),
                    Vec3::new(0.0, -3.8, 0.0),
                    Vec3::new(0.0, 0.0, 3.8),
                    Vec3::new(2.2, 2.2, 2.2),
                    Vec3::new(-2.2, 2.2, -2.2),
                ] {
                    let start = Vec3::new(-150.0, -75.0, 40.0);
                    cases.push((chain(120, start, dir, 0.3, &mut rng), cell, cutoff));
                }
            }
        }
        let mut nonempty = 0;
        for (k, (pts, cell, cutoff)) in cases.iter().enumerate() {
            let want = reference_visits(pts, *cell, *cutoff);
            nonempty += usize::from(!want.is_empty());
            assert_eq!(
                visits(pts, *cell, *cutoff),
                want,
                "case {k}: {} points, cell {cell}, cutoff {cutoff}",
                pts.len()
            );
        }
        assert!(
            nonempty > cases.len() / 2,
            "{nonempty} of {} cases visit a pair",
            cases.len()
        );
    }

    #[test]
    fn matches_naive_enumeration() {
        for seed in 0..5 {
            let pts = random_points(300, 20.0, seed);
            let grid = SpatialGrid::build(&pts, 5.0);
            let got = grid.pairs_within(&pts, 5.0);
            let mut want = naive_pairs(&pts, 5.0);
            want.sort_by_key(|a| (a.0, a.1));
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1), (w.0, w.1));
                assert!((g.2 - w.2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn smaller_cutoff_than_cell_is_allowed() {
        let pts = random_points(200, 15.0, 9);
        let grid = SpatialGrid::build(&pts, 6.0);
        let got = grid.pairs_within(&pts, 3.0);
        let want = naive_pairs(&pts, 3.0);
        assert_eq!(got.len(), want.len());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_larger_than_cell_panics() {
        let pts = random_points(10, 5.0, 1);
        let grid = SpatialGrid::build(&pts, 2.0);
        let _ = grid.pairs_within(&pts, 3.0);
    }

    #[test]
    fn empty_and_single_point() {
        let grid = SpatialGrid::build(&[], 4.0);
        assert!(grid.pairs_within(&[], 4.0).is_empty());
        let one = [Vec3::ZERO];
        let grid = SpatialGrid::build(&one, 4.0);
        assert!(grid.pairs_within(&one, 4.0).is_empty());
    }

    #[test]
    fn coincident_points_found() {
        let pts = vec![Vec3::ZERO, Vec3::ZERO, Vec3::new(10.0, 10.0, 10.0)];
        let grid = SpatialGrid::build(&pts, 2.0);
        let pairs = grid.pairs_within(&pts, 2.0);
        assert_eq!(pairs, vec![(0, 1, 0.0)]);
    }
}
