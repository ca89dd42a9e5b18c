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

/// Reusable scratch for [`PatternIndex::refresh_column_with`]: the
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

/// Owned copy of a [`PatternIndex`]'s persistent state — the stable
/// encoding surface for on-disk snapshots. The derived structures (the
/// signature table's probe slots and the live-pattern count) are *not*
/// part of the encoding; [`PatternIndex::from_parts`] rebuilds them by
/// re-interning the patterns in id order, so a round trip reproduces an
/// index that behaves identically to the original.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternIndexParts {
    /// LF-column count of the matrix the index was built for.
    pub num_lfs: usize,
    /// Concatenated column indices of every interned pattern.
    pub sig_cols: Vec<u32>,
    /// Votes parallel to `sig_cols`.
    pub sig_votes: Vec<Vote>,
    /// Per-pattern `(offset, len)` into the arenas.
    pub pat_bounds: Vec<(usize, usize)>,
    /// Rows currently carrying each pattern (0 = tombstone).
    pub counts: Vec<usize>,
    /// Row → pattern id.
    pub row_pattern: Vec<u32>,
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
    pub fn refresh_column(&mut self, lambda: &LabelMatrix, col: usize) {
        self.refresh_column_with(lambda, col, &mut ResignScratch::new());
    }

    /// [`Self::refresh_column`] with caller-owned scratch: the bitmap
    /// and affected-row list live in `scratch` and are reset (not
    /// freed) here, so a warm caller re-signs without allocating for
    /// the selection pass. Interning a *new* pattern still grows the
    /// signature arenas — that is index state, not scratch.
    pub fn refresh_column_with(
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

    /// Export the persistent state (see [`PatternIndexParts`]). The
    /// arenas hold the patterns back to back in id order.
    pub fn to_parts(&self) -> PatternIndexParts {
        let mut parts = PatternIndexParts {
            num_lfs: self.n,
            sig_cols: Vec::new(),
            sig_votes: Vec::new(),
            pat_bounds: Vec::with_capacity(self.num_slots()),
            counts: self.counts.clone(),
            row_pattern: self.row_pattern.clone(),
        };
        for p in 0..self.num_slots() {
            let (cols, votes) = self.table.get(p);
            parts.pat_bounds.push((parts.sig_cols.len(), cols.len()));
            parts.sig_cols.extend_from_slice(cols);
            parts.sig_votes.extend_from_slice(votes);
        }
        parts
    }

    /// Rebuild an index from exported parts by re-interning the
    /// patterns in id order, and recount the live patterns. Structural
    /// invariants are validated here — including that no two patterns,
    /// tombstones too, share a signature; consistency with a backing
    /// matrix is the caller's check ([`Self::validate`]).
    pub fn from_parts(parts: PatternIndexParts) -> Result<PatternIndex, String> {
        let PatternIndexParts {
            num_lfs,
            sig_cols,
            sig_votes,
            pat_bounds,
            counts,
            row_pattern,
        } = parts;
        if sig_cols.len() != sig_votes.len() {
            return Err(format!(
                "signature arenas differ in length ({} cols, {} votes)",
                sig_cols.len(),
                sig_votes.len()
            ));
        }
        if counts.len() != pat_bounds.len() {
            return Err(format!(
                "{} counts for {} patterns",
                counts.len(),
                pat_bounds.len()
            ));
        }
        let mut table = SigTable::new();
        for (p, &(off, len)) in pat_bounds.iter().enumerate() {
            let end = off.checked_add(len).filter(|&e| e <= sig_cols.len());
            if end.is_none() {
                return Err(format!("pattern {p}: bounds {off}+{len} exceed arena"));
            }
            let (cols, votes) = (&sig_cols[off..off + len], &sig_votes[off..off + len]);
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("pattern {p}: columns not strictly increasing"));
            }
            let q = table.intern(cols, votes);
            if q as usize != p {
                return Err(format!("patterns {q} and {p} share a signature"));
            }
        }
        let mut hist = vec![0usize; pat_bounds.len()];
        for (r, &p) in row_pattern.iter().enumerate() {
            if (p as usize) >= pat_bounds.len() {
                return Err(format!("row {r}: pattern id {p} out of range"));
            }
            hist[p as usize] += 1;
        }
        if hist != counts {
            return Err("multiplicity counts disagree with the row histogram".into());
        }
        let live = counts.iter().filter(|&&c| c > 0).count();
        Ok(PatternIndex {
            n: num_lfs,
            table,
            counts,
            row_pattern,
            live,
        })
    }

    /// Check every invariant against the backing matrix: the index
    /// covers exactly its rows and columns, each row's stored signature
    /// equals its matrix row, multiplicities equal the actual
    /// row→pattern histogram, `num_patterns` counts exactly the
    /// non-tombstones, and every pattern is found under its own id.
    /// Returns a description of the first violation.
    pub fn validate(&self, lambda: &LabelMatrix) -> Result<(), String> {
        if self.n != lambda.num_lfs() {
            return Err(format!(
                "index built for {} LFs but matrix has {}",
                self.n,
                lambda.num_lfs()
            ));
        }
        if self.row_pattern.len() != lambda.num_points() {
            return Err(format!(
                "index covers {} rows but matrix has {}",
                self.row_pattern.len(),
                lambda.num_points()
            ));
        }
        let mut hist = vec![0usize; self.num_slots()];
        for (r, &p) in self.row_pattern.iter().enumerate() {
            if self.pattern(p as usize) != lambda.row(r) {
                return Err(format!("row {r}: stored signature != matrix row"));
            }
            hist[p as usize] += 1;
        }
        if hist != self.counts {
            return Err("multiplicity counts drifted from the row histogram".into());
        }
        let live = self.counts.iter().filter(|&&c| c > 0).count();
        if live != self.live {
            return Err(format!("live count {} != actual {live}", self.live));
        }
        for p in 0..self.num_slots() {
            let (cols, votes) = self.pattern(p);
            if self.table.find(cols, votes) != Some(p as u32) {
                return Err(format!("pattern {p} is not found under its own id"));
            }
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
        idx.refresh_column(&lambda, 1);
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
        idx.refresh_column(&lambda, 3);
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
            idx.refresh_column(&lambda, 1);
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
        // Churn a little so tombstones exist in the exported state.
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 1,
            entries: vec![(0, 1), (5, -1)],
        });
        idx.refresh_column(&lambda, 1);
        let back = PatternIndex::from_parts(idx.to_parts()).unwrap();
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
        a.refresh_column(&lambda, 0);
        b.refresh_column(&lambda, 0);
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

    #[test]
    fn from_parts_rejects_corruption() {
        let lambda = sample();
        let idx = PatternIndex::build(&lambda);
        // Out-of-range pattern id.
        let mut parts = idx.to_parts();
        parts.row_pattern[0] = 99;
        assert!(PatternIndex::from_parts(parts).is_err());
        // Drifted multiplicity counts.
        let mut parts = idx.to_parts();
        parts.counts[0] += 1;
        assert!(PatternIndex::from_parts(parts).is_err());
        // Bounds past the arena end.
        let mut parts = idx.to_parts();
        parts.pat_bounds[0] = (0, parts.sig_cols.len() + 1);
        assert!(PatternIndex::from_parts(parts).is_err());
        // Arena length mismatch.
        let mut parts = idx.to_parts();
        parts.sig_votes.pop();
        assert!(PatternIndex::from_parts(parts).is_err());
        // A tombstone repeating a live pattern's signature: thawed, a
        // later column edit would leave two live patterns on one
        // signature, so the repeat is refused up front.
        let mut b = LabelMatrixBuilder::new(2, 2);
        b.set(0, 0, 1);
        b.set(1, 0, 1);
        let lambda = b.build();
        let parts = PatternIndexParts {
            num_lfs: 2,
            sig_cols: vec![0, 0],
            sig_votes: vec![1, 1],
            pat_bounds: vec![(0, 1), (1, 1)],
            counts: vec![0, 2],
            row_pattern: vec![1, 1],
        };
        assert_eq!(
            PatternIndex::from_parts(parts).unwrap_err(),
            "patterns 0 and 1 share a signature"
        );
        let parts = PatternIndex::build(&lambda).to_parts();
        PatternIndex::from_parts(parts)
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
