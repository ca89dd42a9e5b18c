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
//! core count. The index is a function of Λ: patterns are numbered in
//! first-occurrence order over the rows, so two indexes of one matrix
//! agree id for id, and every sum over the patterns runs in the same
//! order. [`PatternIndex::append_rows`] keeps that numbering after a
//! [`MatrixDelta::AppendRows`](crate::MatrixDelta::AppendRows) (a build
//! *is* an append from empty); any other edit of Λ needs a fresh
//! [`PatternIndex::build`]. [`PatternIndex::validate`] checks an index
//! against a fresh build of its matrix.

use crate::csr::{LabelMatrix, Vote};
use crate::sigtable::SigTable;

/// Groups the rows of a [`LabelMatrix`] by unique vote signature, with
/// multiplicity counts. See the module docs. Built against one matrix
/// and kept in sync with it by the caller (see
/// [`Self::append_rows`]); every consumer asserts the shape still
/// matches.
#[derive(Clone, Debug)]
pub struct PatternIndex {
    /// LF-column count of the matrix the index was built for.
    n: usize,
    /// Every pattern's signature; the table id is the pattern id.
    table: SigTable,
    /// Rows carrying each pattern (every count is at least 1).
    counts: Vec<usize>,
    /// Row → pattern id.
    row_pattern: Vec<u32>,
}

impl PatternIndex {
    /// Index every row of `lambda` in one pass.
    pub fn build(lambda: &LabelMatrix) -> Self {
        let mut idx = PatternIndex {
            n: lambda.num_lfs(),
            table: SigTable::new(),
            counts: Vec::new(),
            row_pattern: Vec::with_capacity(lambda.num_points()),
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

    /// Number of distinct signatures — the valid id range for
    /// [`Self::pattern`] / [`Self::count`].
    pub fn num_patterns(&self) -> usize {
        self.counts.len()
    }

    /// Rows per distinct pattern — the factor row-wise work shrinks by
    /// when run per-pattern. 1.0 when every row is unique (dedup loses
    /// to its own bookkeeping there); `num_rows` when all rows agree.
    pub fn dedup_ratio(&self) -> f64 {
        if self.counts.is_empty() {
            1.0
        } else {
            self.row_pattern.len() as f64 / self.counts.len() as f64
        }
    }

    /// Signature of pattern `p` as `(cols, votes)` slices.
    pub fn pattern(&self, p: usize) -> (&[u32], &[Vote]) {
        self.table.get(p)
    }

    /// Multiplicity of pattern `p`.
    pub fn count(&self, p: usize) -> usize {
        self.counts[p]
    }

    /// Pattern id of a matrix row.
    pub fn pattern_of_row(&self, row: usize) -> usize {
        self.row_pattern[row] as usize
    }

    /// Iterate the patterns in id order as
    /// `(pattern_id, cols, votes, multiplicity)`.
    pub fn patterns(&self) -> impl Iterator<Item = (usize, &[u32], &[Vote], usize)> + '_ {
        self.counts.iter().enumerate().map(move |(p, &c)| {
            let (cols, votes) = self.table.get(p);
            (p, cols, votes, c)
        })
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
            let p = self.table.intern(cols, votes);
            if p as usize == self.counts.len() {
                self.counts.push(0);
            }
            self.counts[p as usize] += 1;
            self.row_pattern.push(p);
        }
    }

    /// Check the index against the backing matrix: it must equal
    /// [`Self::build`] of `lambda` id for id (LF count, signature and
    /// multiplicity per id, pattern per row). Returns a description of
    /// the first difference.
    pub fn validate(&self, lambda: &LabelMatrix) -> Result<(), String> {
        if self.n != lambda.num_lfs() {
            let n = lambda.num_lfs();
            return Err(format!("index built for {} LFs but matrix has {n}", self.n));
        }
        let fresh = PatternIndex::build(lambda);
        if self.num_patterns() != fresh.num_patterns() {
            let (got, want) = (self.num_patterns(), fresh.num_patterns());
            return Err(format!("{got} patterns where Λ has {want}"));
        }
        if let Some(p) = (0..self.num_patterns()).find(|&p| self.pattern(p) != fresh.pattern(p)) {
            return Err(format!("pattern {p}: signature is not Λ's pattern {p}"));
        }
        if (&self.row_pattern, &self.counts) != (&fresh.row_pattern, &fresh.counts) {
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

    /// A column edit changes signatures the index no longer matches:
    /// `validate` names the difference, and a fresh build is canonical.
    #[test]
    fn column_edits_need_a_fresh_build() {
        let mut lambda = sample();
        let idx = PatternIndex::build(&lambda);
        // Column 1 now votes on row 5 only: rows 0, 2, 4 become {1,·}.
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 1,
            entries: vec![(5, -1)],
        });
        assert_eq!(
            idx.validate(&lambda).unwrap_err(),
            "pattern 0: signature is not Λ's pattern 0"
        );
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_patterns(), 3); // {1,·}, {}, {·,-1}
        assert_eq!(idx.pattern_of_row(5), 2);
        lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 0 });
        assert!(idx.validate(&lambda).is_err());
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        assert_eq!(idx.num_rows(), 6);
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
