//! Vote-pattern deduplication: grouping label-matrix rows by signature.
//!
//! At deployment scale (Snorkel DryBell: huge unlabeled corpora, a
//! handful of LFs) the posterior of the generative model depends only on
//! a row's vote signature `(cols, votes)` — millions of rows collapse
//! onto a few thousand distinct patterns. A [`PatternIndex`] groups the
//! rows of a [`LabelMatrix`] by unique signature in a single pass over
//! a [`SigTable`], recording each pattern's **multiplicity**, so
//! inference and the EM/Newton sufficient statistics can run once per
//! *pattern* (weighted by multiplicity) instead of once per *row*.
//!
//! One index covers every row of Λ, so every pass over it — and every
//! output built from one — is the same on any machine, whatever its
//! core count. The index is **incrementally maintainable** alongside
//! [`MatrixDelta`](crate::MatrixDelta) edits:
//!
//! * [`PatternIndex::append_rows`] interns newly appended rows only;
//! * [`PatternIndex::refresh_column`] re-signs exactly the rows whose
//!   signature a column splice could have changed (rows that voted in
//!   the old column or vote in the new one);
//! * structural edits that shift column indices (column removal) need a
//!   fresh [`PatternIndex::build`] — every surviving signature changes.
//!
//! Pattern numbering is first-occurrence order over the rows, so a
//! freshly built index is deterministic; incremental
//! maintenance may leave zero-count tombstones (compacted automatically)
//! and number late-appearing patterns differently, but the row →
//! signature mapping and the multiplicity of every signature always
//! match a fresh rebuild — [`PatternIndex::validate`] checks exactly
//! that invariant against the backing matrix.

use snorkel_arena::ScratchVec;

use crate::csr::{LabelMatrix, Vote};
use crate::sigtable::SigTable;

/// Reusable scratch for [`PatternIndex::refresh_column`]: the
/// pattern-touches-column bitmap and the affected-row list that a
/// column re-sign needs. Owned by long-lived callers (the incremental
/// session holds one per refresh loop) so that re-signing after every
/// delta edit stops allocating once the buffers reach the high-water
/// mark of the workload.
#[derive(Debug, Default)]
pub struct ResignScratch {
    pat_has: ScratchVec<bool>,
    affected: ScratchVec<usize>,
}

impl ResignScratch {
    /// Empty scratch (no allocation until first use).
    pub fn new() -> Self {
        ResignScratch::default()
    }

    /// High-water footprint in bytes across both buffers.
    pub fn bytes(&self) -> usize {
        self.pat_has.bytes() + self.affected.bytes()
    }
}

/// What a [`PatternIndex`] stores beyond its matrix — the stable
/// encoding surface for on-disk snapshots. Signatures, multiplicities
/// and row → pattern are functions of Λ, so only the pattern *order*
/// is kept: each id's first row, and the signatures of the zero-count
/// slots (tombstones), which no row carries. [`PatternIndex::from_parts`]
/// reads the rest back from Λ, id for id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternIndexParts {
    /// Row count of the matrix the index covers.
    pub rows: usize,
    /// Per pattern id, the first row carrying it; `u32::MAX` marks a
    /// tombstone.
    pub first_rows: Vec<u32>,
    /// The tombstones' signatures `(cols, votes)`, in id order. They
    /// keep their ids: a later edit that brings a signature back revives
    /// its tombstone, and the exact E-pass sums live patterns in id
    /// order.
    pub tombstones: Vec<(Vec<u32>, Vec<Vote>)>,
}

/// Groups the rows of a [`LabelMatrix`] by unique vote signature, with
/// multiplicity counts. See the module docs. Built against one matrix
/// and kept in sync with it by the caller (see the update methods);
/// every consumer asserts the shape still matches.
#[derive(Clone, Debug)]
pub struct PatternIndex {
    /// LF-column count of the matrix the index was built for.
    n: usize,
    /// Every pattern's signature; the table id is the pattern id.
    table: SigTable,
    /// Rows currently carrying each pattern (0 = tombstone).
    counts: Vec<usize>,
    /// Row → pattern id.
    row_pattern: Vec<u32>,
    /// Number of patterns with a non-zero count.
    live: usize,
}

impl PatternIndex {
    /// Index every row of `lambda` in one pass.
    pub fn build(lambda: &LabelMatrix) -> Self {
        let mut idx = PatternIndex {
            n: lambda.num_lfs(),
            table: SigTable::new(),
            counts: Vec::new(),
            row_pattern: Vec::with_capacity(lambda.num_points()),
            live: 0,
        };
        idx.append_rows(lambda);
        idx
    }

    /// Number of LF columns of the matrix this index was built for.
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// Number of rows covered.
    pub fn num_rows(&self) -> usize {
        self.row_pattern.len()
    }

    /// Number of distinct signatures currently present (tombstones
    /// excluded).
    pub fn num_patterns(&self) -> usize {
        self.live
    }

    /// Rows per distinct pattern — the factor row-wise work shrinks by
    /// when run per-pattern. 1.0 when every row is unique (dedup loses
    /// to its own bookkeeping there); `num_rows` when all rows agree.
    pub fn dedup_ratio(&self) -> f64 {
        if self.live == 0 {
            1.0
        } else {
            self.row_pattern.len() as f64 / self.live as f64
        }
    }

    /// Signature of pattern `p` as `(cols, votes)` slices.
    pub fn pattern(&self, p: usize) -> (&[u32], &[Vote]) {
        self.table.get(p)
    }

    /// Multiplicity of pattern `p` (0 for tombstones).
    pub fn count(&self, p: usize) -> usize {
        self.counts[p]
    }

    /// Pattern id of a matrix row.
    pub fn pattern_of_row(&self, row: usize) -> usize {
        self.row_pattern[row] as usize
    }

    /// Total pattern slots including tombstones — the valid id range for
    /// [`Self::pattern`] / [`Self::count`].
    pub fn num_slots(&self) -> usize {
        self.counts.len()
    }

    /// Iterate the live patterns in id order as
    /// `(pattern_id, cols, votes, multiplicity)`.
    pub fn live_patterns(&self) -> impl Iterator<Item = (usize, &[u32], &[Vote], usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(p, &c)| {
                let (cols, votes) = self.table.get(p);
                (p, cols, votes, c)
            })
    }

    /// Intern a signature, returning its pattern id (count untouched).
    fn intern(&mut self, cols: &[u32], votes: &[Vote]) -> u32 {
        let p = self.table.intern(cols, votes);
        if p as usize == self.counts.len() {
            self.counts.push(0);
        }
        p
    }

    fn add_to_pattern(&mut self, p: u32) {
        self.counts[p as usize] += 1;
        if self.counts[p as usize] == 1 {
            self.live += 1;
        }
    }

    /// Intern the rows appended to `lambda` since the index last
    /// covered it (after a
    /// [`MatrixDelta::AppendRows`](crate::MatrixDelta::AppendRows)).
    pub fn append_rows(&mut self, lambda: &LabelMatrix) {
        let covered = self.row_pattern.len();
        let m = lambda.num_points();
        assert!(
            m >= covered,
            "matrix shrank below the index ({m} < {covered} rows)"
        );
        for r in covered..m {
            let (cols, votes) = lambda.row(r);
            let p = self.intern(cols, votes);
            self.add_to_pattern(p);
            self.row_pattern.push(p);
        }
    }

    /// Re-sign the given rows against the current matrix contents.
    fn resign_rows(&mut self, lambda: &LabelMatrix, rows: &[usize]) {
        for &r in rows {
            let old = self.row_pattern[r] as usize;
            self.counts[old] -= 1;
            if self.counts[old] == 0 {
                self.live -= 1;
            }
            let (cols, votes) = lambda.row(r);
            let p = self.intern(cols, votes);
            self.add_to_pattern(p);
            self.row_pattern[r] = p;
        }
        self.maybe_compact();
    }

    /// Update the index after column `col` of the backing matrix was
    /// replaced or appended: exactly the rows that voted in the old
    /// column (known from the stored signatures) or vote in the new one
    /// (read from the patched matrix) are re-signed; every other row's
    /// signature is untouched.
    ///
    /// Not valid after a column *removal* — deleting a column shifts
    /// every higher column index, changing signatures the edited column
    /// never appeared in; [`Self::build`] a fresh index there.
    ///
    /// The bitmap and affected-row list live in `scratch` and are reset
    /// (not freed) here, so a warm caller re-signs without allocating
    /// for the selection pass. Interning a *new* pattern still grows the
    /// signature arenas — that is index state, not scratch.
    pub fn refresh_column(
        &mut self,
        lambda: &LabelMatrix,
        col: usize,
        scratch: &mut ResignScratch,
    ) {
        self.n = lambda.num_lfs();
        let jc = col as u32;
        scratch.pat_has.reset();
        scratch
            .pat_has
            .extend((0..self.num_slots()).map(|p| self.pattern(p).0.binary_search(&jc).is_ok()));
        scratch.affected.reset();
        for (r, &p) in self.row_pattern.iter().enumerate() {
            if scratch.pat_has[p as usize] || lambda.row(r).0.binary_search(&jc).is_ok() {
                scratch.affected.push(r);
            }
        }
        self.resign_rows(lambda, &scratch.affected);
    }

    /// Drop tombstoned patterns once they dominate the slot table,
    /// re-interning the survivors in id order.
    fn maybe_compact(&mut self) {
        if self.num_slots() <= 2 * self.live + 16 {
            return;
        }
        let mut remap = vec![u32::MAX; self.num_slots()];
        let mut table = SigTable::new();
        let mut counts = Vec::with_capacity(self.live);
        for (p, &count) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let (cols, votes) = self.table.get(p);
            remap[p] = table.intern(cols, votes);
            counts.push(count);
        }
        for p in self.row_pattern.iter_mut() {
            *p = remap[*p as usize];
        }
        self.table = table;
        self.counts = counts;
    }

    /// Export the pattern order (see [`PatternIndexParts`]).
    pub fn to_parts(&self) -> PatternIndexParts {
        let mut first_rows = vec![u32::MAX; self.num_slots()];
        for (r, &p) in self.row_pattern.iter().enumerate().rev() {
            first_rows[p as usize] = r as u32;
        }
        let tombstones = (0..self.num_slots())
            .filter(|&p| self.counts[p] == 0)
            .map(|p| {
                let (cols, votes) = self.pattern(p);
                (cols.to_vec(), votes.to_vec())
            })
            .collect();
        PatternIndexParts {
            rows: self.num_rows(),
            first_rows,
            tombstones,
        }
    }

    /// Rebuild the index over `lambda` from its pattern order: intern
    /// each id's signature (its first row's, or the next tombstone's),
    /// then give every row the id of its signature. The result equals
    /// the exported index id for id; parts that do not describe an index
    /// of `lambda` are refused with the first inconsistency.
    pub fn from_parts(parts: PatternIndexParts, lambda: &LabelMatrix) -> Result<Self, String> {
        let PatternIndexParts {
            rows,
            first_rows,
            tombstones,
        } = parts;
        if rows != lambda.num_points() {
            let m = lambda.num_points();
            return Err(format!("index covers {rows} rows but the matrix has {m}"));
        }
        let markers = first_rows.iter().filter(|&&r| r == u32::MAX).count();
        if markers != tombstones.len() {
            let n = tombstones.len();
            return Err(format!("{markers} tombstone markers for {n} tombstones"));
        }
        let mut table = SigTable::new();
        let mut tombs = tombstones.iter();
        for (p, &first) in first_rows.iter().enumerate() {
            let (cols, votes) = match first {
                u32::MAX => {
                    let (cols, votes) = tombs.next().expect("one tombstone per marker");
                    if cols.len() != votes.len() || cols.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!("tombstone {p}: malformed signature"));
                    }
                    (&cols[..], &votes[..])
                }
                r if r as usize >= rows => {
                    return Err(format!("pattern {p}: first row {r} of {rows}"))
                }
                r => lambda.row(r as usize),
            };
            match table.intern(cols, votes) {
                q if q as usize == p => {}
                q => return Err(format!("patterns {q} and {p} share a signature")),
            }
        }
        let mut counts = vec![0usize; first_rows.len()];
        let mut row_pattern = Vec::with_capacity(rows);
        for r in 0..rows {
            let (cols, votes) = lambda.row(r);
            let p = table
                .find(cols, votes)
                .ok_or_else(|| format!("row {r}: signature has no pattern id"))?;
            if counts[p as usize] == 0 && first_rows[p as usize] != r as u32 {
                return Err(match first_rows[p as usize] {
                    u32::MAX => format!("row {r} carries tombstone {p}"),
                    first => format!("pattern {p}: first row is {r}, not {first}"),
                });
            }
            counts[p as usize] += 1;
            row_pattern.push(p);
        }
        Ok(PatternIndex {
            n: lambda.num_lfs(),
            table,
            counts,
            row_pattern,
            live: first_rows.len() - markers,
        })
    }

    /// Check every invariant against the backing matrix: the index
    /// equals the one [`Self::from_parts`] reads back from `lambda` in
    /// its own pattern order (same LF count, signature per id, pattern
    /// per row, multiplicities and live count), and every pattern is
    /// found under its own id. Returns a description of the first
    /// violation.
    pub fn validate(&self, lambda: &LabelMatrix) -> Result<(), String> {
        if self.n != lambda.num_lfs() {
            let n = lambda.num_lfs();
            return Err(format!("index built for {} LFs but matrix has {n}", self.n));
        }
        let fresh = PatternIndex::from_parts(self.to_parts(), lambda)?;
        for p in 0..self.num_slots() {
            let (cols, votes) = self.pattern(p);
            if fresh.pattern(p) != (cols, votes) || self.table.find(cols, votes) != Some(p as u32) {
                return Err(format!(
                    "pattern {p}: signature not Λ's or not under its id"
                ));
            }
        }
        if (&fresh.row_pattern, &fresh.counts, fresh.live)
            != (&self.row_pattern, &self.counts, self.live)
        {
            return Err("row → pattern or multiplicities drifted from Λ".into());
        }
        Ok(())
    }
}

/// The name the benchmark harness builds its plan by. There is one
/// [`PatternIndex`] over all rows; [`ShardedMatrix::build`] returns it.
#[derive(Debug)]
pub struct ShardedMatrix;

impl ShardedMatrix {
    /// [`PatternIndex::build`]; `_shards` is ignored.
    pub fn build(lambda: &LabelMatrix, _shards: usize) -> PatternIndex {
        PatternIndex::build(lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::LabelMatrixBuilder;
    use crate::MatrixDelta;

    fn sample() -> LabelMatrix {
        // Rows: [1,-1,_], [_,_,_], [1,-1,_], [_,1,_], [1,-1,_], [_,_,_]
        let mut b = LabelMatrixBuilder::new(6, 3);
        for i in [0, 2, 4] {
            b.set(i, 0, 1);
            b.set(i, 1, -1);
        }
        b.set(3, 1, 1);
        b.build()
    }

    #[test]
    fn build_groups_identical_rows() {
        let lambda = sample();
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_rows(), 6);
        assert_eq!(idx.num_patterns(), 3); // {1,-1}, {}, {·,1}
        assert_eq!(idx.count(idx.pattern_of_row(0)), 3);
        assert_eq!(idx.count(idx.pattern_of_row(1)), 2);
        assert_eq!(idx.count(idx.pattern_of_row(3)), 1);
        assert!((idx.dedup_ratio() - 2.0).abs() < 1e-12);
        // First-occurrence numbering.
        assert_eq!(idx.pattern_of_row(0), 0);
        assert_eq!(idx.pattern_of_row(1), 1);
        assert_eq!(idx.pattern_of_row(3), 2);
    }

    #[test]
    fn extend_after_row_append() {
        let mut lambda = sample();
        let mut idx = PatternIndex::build(&lambda);
        lambda.apply_delta(&MatrixDelta::AppendRows {
            rows: vec![vec![(0, 1), (1, -1)], vec![(2, 1)]],
        });
        idx.append_rows(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_rows(), 8);
        assert_eq!(idx.count(idx.pattern_of_row(6)), 4); // joins {1,-1}
        assert_eq!(idx.num_patterns(), 4); // {·,·,1} is new
    }

    #[test]
    fn refresh_column_resigns_only_touched_rows() {
        let mut lambda = sample();
        let mut idx = PatternIndex::build(&lambda);
        // Replace column 1: now only row 0 votes there.
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 1,
            entries: vec![(0, 1)],
        });
        idx.refresh_column(&lambda, 1, &mut ResignScratch::new());
        idx.validate(&lambda).unwrap();
        let fresh = PatternIndex::build(&lambda);
        assert_eq!(idx.num_patterns(), fresh.num_patterns());
        for r in 0..lambda.num_points() {
            assert_eq!(
                idx.pattern(idx.pattern_of_row(r)),
                fresh.pattern(fresh.pattern_of_row(r)),
                "row {r}"
            );
        }
    }

    #[test]
    fn refresh_column_handles_appended_column() {
        let mut lambda = sample();
        let mut idx = PatternIndex::build(&lambda);
        lambda.apply_delta(&MatrixDelta::AppendColumn {
            entries: vec![(1, 1), (4, -1)],
        });
        idx.refresh_column(&lambda, 3, &mut ResignScratch::new());
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_lfs(), 4);
    }

    #[test]
    fn column_removal_needs_a_fresh_build() {
        let mut lambda = sample();
        let idx = PatternIndex::build(&lambda);
        lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 0 });
        assert!(idx.validate(&lambda).is_err());
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_rows(), 6);
    }

    #[test]
    fn tombstones_compact_away() {
        // Churn one row through many distinct signatures.
        let mut b = LabelMatrixBuilder::new(40, 2);
        for i in 0..40 {
            b.set(i, 0, 1);
        }
        let mut lambda = b.build();
        let mut idx = PatternIndex::build(&lambda);
        assert_eq!(idx.num_patterns(), 1);
        for round in 0..60u32 {
            let v = if round % 2 == 0 { 1 } else { -1 };
            let entries: Vec<(u32, Vote)> = (0..=(round % 37)).map(|r| (r, v)).collect();
            lambda.replace_column(1, &entries);
            idx.refresh_column(&lambda, 1, &mut ResignScratch::new());
        }
        idx.validate(&lambda).unwrap();
        assert!(
            idx.num_slots() <= 2 * idx.num_patterns() + 16,
            "tombstones kept: {} slots for {} live",
            idx.num_slots(),
            idx.num_patterns()
        );
    }

    #[test]
    fn parts_round_trip_behaves_identically() {
        let mut lambda = sample();
        let mut idx = PatternIndex::build(&lambda);
        let mut scratch = ResignScratch::new();
        // Churn a little so tombstones exist in the exported state.
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 1,
            entries: vec![(0, 1), (5, -1)],
        });
        idx.refresh_column(&lambda, 1, &mut scratch);
        let back = PatternIndex::from_parts(idx.to_parts(), &lambda).unwrap();
        back.validate(&lambda).unwrap();
        assert_eq!(back.num_patterns(), idx.num_patterns());
        assert_eq!(back.num_lfs(), idx.num_lfs());
        for r in 0..lambda.num_points() {
            assert_eq!(back.pattern_of_row(r), idx.pattern_of_row(r), "row {r}");
        }
        // The re-interned table must keep interning correctly: a further
        // column edit lands on the same patterns as the original index.
        let mut a = idx.clone();
        let mut b = back;
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 0,
            entries: vec![(2, -1)],
        });
        a.refresh_column(&lambda, 0, &mut scratch);
        b.refresh_column(&lambda, 0, &mut scratch);
        a.validate(&lambda).unwrap();
        b.validate(&lambda).unwrap();
        for r in 0..lambda.num_points() {
            assert_eq!(
                a.pattern(a.pattern_of_row(r)),
                b.pattern(b.pattern_of_row(r)),
                "row {r} after post-import edit"
            );
        }
    }

    /// A tombstone keeps its id through the parts, so a later edit that
    /// brings its signature back revives it on both sides alike.
    #[test]
    fn tombstones_survive_the_parts_round_trip() {
        let mut lambda = sample();
        let mut idx = PatternIndex::build(&lambda);
        let mut scratch = ResignScratch::new();
        // Column 1 emptied: {1,-1} and {·,1} drop to count 0, uncompacted.
        lambda.replace_column(1, &[]);
        idx.refresh_column(&lambda, 1, &mut scratch);
        assert_eq!((idx.num_slots(), idx.num_patterns()), (4, 2));
        let mut back = PatternIndex::from_parts(idx.to_parts(), &lambda).unwrap();
        // Column 1 restored on both indexes: the tombstones revive.
        lambda.replace_column(1, &[(0, -1), (2, -1), (3, 1), (4, -1)]);
        idx.refresh_column(&lambda, 1, &mut scratch);
        back.refresh_column(&lambda, 1, &mut scratch);
        back.validate(&lambda).unwrap();
        assert_eq!(back.to_parts(), idx.to_parts());
        for r in 0..lambda.num_points() {
            assert_eq!(back.pattern_of_row(r), idx.pattern_of_row(r), "row {r}");
        }
        assert_eq!(idx.pattern_of_row(0), 0, "revived under its old id");
    }

    #[test]
    fn from_parts_rejects_corruption() {
        // Patterns: 0 = {1,-1} (rows 0, 2, 4), 1 = {} (rows 1, 5),
        // 2 = {·,1} (row 3).
        let lambda = sample();
        let good = PatternIndex::build(&lambda).to_parts();
        assert_eq!(good.first_rows, [0, 1, 3]);
        let refuse = |edit: &dyn Fn(&mut PatternIndexParts), want: &str| {
            let mut parts = good.clone();
            edit(&mut parts);
            assert_eq!(PatternIndex::from_parts(parts, &lambda).unwrap_err(), want);
        };
        refuse(&|p| p.rows = 7, "index covers 7 rows but the matrix has 6");
        refuse(&|p| p.first_rows[2] = 6, "pattern 2: first row 6 of 6");
        // Two ids naming rows with one signature.
        refuse(
            &|p| p.first_rows[2] = 2,
            "patterns 0 and 2 share a signature",
        );
        // A tombstone repeating a live signature: thawed, a later edit
        // would leave two live patterns on one signature.
        refuse(
            &|p| {
                p.first_rows.push(u32::MAX);
                p.tombstones.push((vec![0, 1], vec![1, -1]));
            },
            "patterns 0 and 3 share a signature",
        );
        refuse(
            &|p| p.tombstones.push((vec![2], vec![1])),
            "0 tombstone markers for 1 tombstones",
        );
        refuse(
            &|p| {
                p.first_rows.push(u32::MAX);
                p.tombstones.push((vec![2], vec![]));
            },
            "tombstone 3: malformed signature",
        );
        // Row 3's signature dropped from the order.
        refuse(
            &|p| p.first_rows.truncate(2),
            "row 3: signature has no pattern id",
        );
        // Row 3's pattern stored as a tombstone.
        refuse(
            &|p| {
                p.first_rows[2] = u32::MAX;
                p.tombstones.push((vec![1], vec![1]));
            },
            "row 3 carries tombstone 2",
        );
        refuse(&|p| p.first_rows[1] = 5, "pattern 1: first row is 1, not 5");
        PatternIndex::from_parts(good.clone(), &lambda)
            .unwrap()
            .validate(&lambda)
            .unwrap();
    }

    #[test]
    fn empty_matrix() {
        let lambda = LabelMatrixBuilder::new(0, 3).build();
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_patterns(), 0);
        assert_eq!(idx.dedup_ratio(), 1.0);
    }
}
