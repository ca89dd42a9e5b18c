//! Compressed-sparse-row storage for the label matrix.

/// A single labeling-function vote. `0` means abstain; binary tasks use
/// `{−1, +1}`; multi-class tasks use `{1..=k}`.
pub type Vote = i8;

/// The abstain vote.
pub const ABSTAIN: Vote = 0;

/// Error from [`LabelMatrix::select_rows`] / [`LabelMatrix::select_columns`]
/// when an index is out of range for the matrix's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectError {
    /// A requested row index is ≥ the number of data points.
    RowOutOfRange {
        /// The offending row index.
        index: usize,
        /// The matrix's row count.
        num_points: usize,
    },
    /// A requested column index is ≥ the number of LFs.
    ColumnOutOfRange {
        /// The offending column index.
        index: usize,
        /// The matrix's column count.
        num_lfs: usize,
    },
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::RowOutOfRange { index, num_points } => {
                write!(f, "row {index} out of range ({num_points} points)")
            }
            SelectError::ColumnOutOfRange { index, num_lfs } => {
                write!(f, "col {index} out of range ({num_lfs} LFs)")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Sparse label matrix `Λ` with `m` data-point rows and `n` LF columns.
///
/// Immutable once built; construct through [`LabelMatrixBuilder`]. Row
/// entries are sorted by column, with no explicit zeros and no duplicate
/// `(row, col)` pairs — both enforced at build time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelMatrix {
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) cardinality: u8,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<u32>,
    pub(crate) votes: Vec<Vote>,
}

impl LabelMatrix {
    /// Number of data points (rows).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.m
    }

    /// Number of labeling functions (columns).
    #[inline]
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// Task cardinality: 2 for binary (votes in `{−1,+1}`), `k` for
    /// multi-class (votes in `{1..=k}`).
    #[inline]
    pub fn cardinality(&self) -> u8 {
        self.cardinality
    }

    /// True for the binary `{−1, +1}` vote scheme.
    #[inline]
    pub fn is_binary(&self) -> bool {
        self.cardinality == 2
    }

    /// Number of non-abstain votes.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.votes.len()
    }

    /// The non-abstain entries of row `i` as parallel `(columns, votes)`
    /// slices, sorted by column.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[Vote]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.votes[lo..hi])
    }

    /// Vote of LF `j` on point `i` (0 when abstaining).
    pub fn get(&self, i: usize, j: usize) -> Vote {
        let (cols, votes) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => votes[pos],
            Err(_) => ABSTAIN,
        }
    }

    /// Iterate `(row, col, vote)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Vote)> + '_ {
        (0..self.m).flat_map(move |i| {
            let (cols, votes) = self.row(i);
            cols.iter()
                .zip(votes)
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Mean number of non-abstain labels per data point — the label
    /// density `d_Λ` of §3.1.
    pub fn label_density(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.m as f64
        }
    }

    /// Column-major copy: for each LF, its `(row, vote)` pairs in row
    /// order. Built on demand (structure learning iterates columns).
    pub fn to_columns(&self) -> Vec<Vec<(u32, Vote)>> {
        let mut cols: Vec<Vec<(u32, Vote)>> = vec![Vec::new(); self.n];
        for (i, j, v) in self.iter() {
            cols[j].push((i as u32, v));
        }
        cols
    }

    /// Dense copy (`m × n`, abstains as 0) — tests and tiny matrices only.
    pub fn to_dense(&self) -> Vec<Vec<Vote>> {
        let mut d = vec![vec![ABSTAIN; self.n]; self.m];
        for (i, j, v) in self.iter() {
            d[i][j] = v;
        }
        d
    }

    /// Restrict to a subset of rows (e.g. the dev split), preserving
    /// column count and cardinality. Row order follows `rows`. Every
    /// index is validated up front: an out-of-range row returns
    /// [`SelectError::RowOutOfRange`] instead of a corrupt subset.
    pub fn select_rows(&self, rows: &[usize]) -> Result<LabelMatrix, SelectError> {
        if let Some(&bad) = rows.iter().find(|&&i| i >= self.m) {
            return Err(SelectError::RowOutOfRange {
                index: bad,
                num_points: self.m,
            });
        }
        let mut b = LabelMatrixBuilder::with_cardinality(rows.len(), self.n, self.cardinality);
        for (new_i, &old_i) in rows.iter().enumerate() {
            let (cols, votes) = self.row(old_i);
            for (&c, &v) in cols.iter().zip(votes) {
                b.set(new_i, c as usize, v);
            }
        }
        Ok(b.build())
    }

    /// Restrict to a subset of LF columns (ablation studies). Column
    /// order follows `cols`. Every index is validated up front: an
    /// out-of-range column returns [`SelectError::ColumnOutOfRange`]
    /// instead of silently vanishing from the subset.
    pub fn select_columns(&self, cols: &[usize]) -> Result<LabelMatrix, SelectError> {
        if let Some(&bad) = cols.iter().find(|&&j| j >= self.n) {
            return Err(SelectError::ColumnOutOfRange {
                index: bad,
                num_lfs: self.n,
            });
        }
        let remap: std::collections::HashMap<usize, usize> = cols
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let mut b = LabelMatrixBuilder::with_cardinality(self.m, cols.len(), self.cardinality);
        for (i, j, v) in self.iter() {
            if let Some(&nj) = remap.get(&j) {
                b.set(i, nj, v);
            }
        }
        Ok(b.build())
    }
}

/// Whether `v` is a legal non-abstain vote for a `cardinality`-class
/// scheme: `{−1, +1}` when binary, `1..=k` otherwise. The one
/// vote-legality rule, shared by every layer that validates untrusted
/// votes (LF output, a thawed snapshot's cache import, the serving
/// protocol).
pub fn is_legal_vote(cardinality: u8, v: Vote) -> bool {
    if cardinality == 2 {
        v == 1 || v == -1
    } else {
        v >= 1 && (v as u8) <= cardinality
    }
}

/// Panic unless `vote` is a legal non-abstain vote for a
/// `cardinality`-class scheme ([`is_legal_vote`]) — the rejection every
/// producer of LF output applies, with one message per scheme.
pub fn assert_legal_vote(cardinality: u8, vote: Vote) {
    if cardinality == 2 {
        assert!(
            vote == 1 || vote == -1,
            "binary scheme requires votes in {{-1, +1}}, got {vote}"
        );
    } else {
        assert!(
            vote >= 1 && (vote as u8) <= cardinality,
            "{cardinality}-class scheme requires votes in 1..={cardinality}, got {vote}"
        );
    }
}

/// Accumulates `(row, col, vote)` triplets and freezes them into a
/// [`LabelMatrix`].
#[derive(Clone, Debug)]
pub struct LabelMatrixBuilder {
    m: usize,
    n: usize,
    cardinality: u8,
    triplets: Vec<(u32, u32, Vote)>,
}

impl LabelMatrixBuilder {
    /// Builder for a binary (`{−1, +1}`) matrix of `m` points × `n` LFs.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_cardinality(m, n, 2)
    }

    /// Builder for a `k`-class matrix (votes in `{1..=k}`); `k == 2`
    /// selects the binary `{−1,+1}` scheme.
    pub fn with_cardinality(m: usize, n: usize, cardinality: u8) -> Self {
        assert!(cardinality >= 2, "cardinality must be at least 2");
        LabelMatrixBuilder {
            m,
            n,
            cardinality,
            triplets: Vec::new(),
        }
    }

    /// Record LF `j`'s vote on point `i`. Abstains (`0`) are ignored, so
    /// callers can pipe LF outputs through unconditionally. Panics on
    /// out-of-range indices or votes illegal for the scheme.
    pub fn set(&mut self, i: usize, j: usize, vote: Vote) {
        if vote == ABSTAIN {
            return;
        }
        assert!(i < self.m, "row {i} out of range ({} points)", self.m);
        assert!(j < self.n, "col {j} out of range ({} LFs)", self.n);
        assert_legal_vote(self.cardinality, vote);
        self.triplets.push((i as u32, j as u32, vote));
    }

    /// Freeze into CSR. Panics if the same `(row, col)` was set twice —
    /// one LF emits at most one vote per candidate.
    pub fn build(mut self) -> LabelMatrix {
        self.triplets.sort_unstable_by_key(|&(i, j, _)| (i, j));
        for w in self.triplets.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate vote at (row {}, col {})",
                w[0].0,
                w[0].1
            );
        }
        let mut row_ptr = Vec::with_capacity(self.m + 1);
        let mut col_idx = Vec::with_capacity(self.triplets.len());
        let mut votes = Vec::with_capacity(self.triplets.len());
        row_ptr.push(0);
        let mut t = 0usize;
        for i in 0..self.m as u32 {
            while t < self.triplets.len() && self.triplets[t].0 == i {
                col_idx.push(self.triplets[t].1);
                votes.push(self.triplets[t].2);
                t += 1;
            }
            row_ptr.push(t);
        }
        LabelMatrix {
            m: self.m,
            n: self.n,
            cardinality: self.cardinality,
            row_ptr,
            col_idx,
            votes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabelMatrix {
        // 4 points, 3 LFs.
        let mut b = LabelMatrixBuilder::new(4, 3);
        b.set(0, 0, 1);
        b.set(0, 2, -1);
        b.set(1, 1, 1);
        b.set(3, 0, -1);
        b.set(3, 1, -1);
        b.set(3, 2, -1);
        b.build()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.num_points(), 4);
        assert_eq!(m.num_lfs(), 3);
        assert_eq!(m.nnz(), 6);
        assert!(m.is_binary());
        assert!((m.label_density() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn row_access_sorted() {
        let m = sample();
        let (cols, votes) = m.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(votes, &[1, -1]);
        let (cols, _) = m.row(2);
        assert!(cols.is_empty());
    }

    #[test]
    fn get_with_abstain() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(0, 1), ABSTAIN);
        assert_eq!(m.get(3, 2), -1);
    }

    #[test]
    fn abstain_set_is_noop() {
        let mut b = LabelMatrixBuilder::new(1, 1);
        b.set(0, 0, 0);
        assert_eq!(b.build().nnz(), 0);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let mut b = LabelMatrixBuilder::new(4, 3);
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                b.set(i, j, v);
            }
        }
        assert_eq!(b.build(), m);
    }

    #[test]
    fn columns_view() {
        let m = sample();
        let cols = m.to_columns();
        assert_eq!(cols[0], vec![(0, 1), (3, -1)]);
        assert_eq!(cols[1], vec![(1, 1), (3, -1)]);
    }

    #[test]
    fn select_rows_subsets() {
        let m = sample();
        let sub = m.select_rows(&[3, 0]).unwrap();
        assert_eq!(sub.num_points(), 2);
        assert_eq!(sub.get(0, 1), -1); // old row 3
        assert_eq!(sub.get(1, 0), 1); // old row 0
    }

    #[test]
    fn select_columns_subsets() {
        let m = sample();
        let sub = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(sub.num_lfs(), 2);
        assert_eq!(sub.get(0, 0), -1); // old col 2
        assert_eq!(sub.get(0, 1), 1); // old col 0
    }

    #[test]
    fn select_rows_rejects_out_of_range() {
        let m = sample();
        assert_eq!(
            m.select_rows(&[0, 4]),
            Err(SelectError::RowOutOfRange {
                index: 4,
                num_points: 4
            })
        );
        // Empty selections of an empty matrix still succeed.
        let empty = LabelMatrixBuilder::new(0, 0).build();
        assert!(empty.select_rows(&[]).is_ok());
        assert_eq!(
            empty.select_rows(&[0]),
            Err(SelectError::RowOutOfRange {
                index: 0,
                num_points: 0
            })
        );
    }

    #[test]
    fn select_columns_rejects_out_of_range() {
        let m = sample();
        let err = m.select_columns(&[1, 3]).unwrap_err();
        assert_eq!(
            err,
            SelectError::ColumnOutOfRange {
                index: 3,
                num_lfs: 3
            }
        );
        assert!(err.to_string().contains("col 3 out of range"));
    }

    #[test]
    fn multiclass_scheme() {
        let mut b = LabelMatrixBuilder::with_cardinality(2, 2, 5);
        b.set(0, 0, 5);
        b.set(1, 1, 1);
        let m = b.build();
        assert!(!m.is_binary());
        assert_eq!(m.cardinality(), 5);
        assert_eq!(m.get(0, 0), 5);
    }

    #[test]
    #[should_panic(expected = "binary scheme")]
    fn binary_rejects_class_votes() {
        let mut b = LabelMatrixBuilder::new(1, 1);
        b.set(0, 0, 2);
    }

    #[test]
    #[should_panic(expected = "5-class scheme")]
    fn multiclass_rejects_out_of_range() {
        let mut b = LabelMatrixBuilder::with_cardinality(1, 1, 5);
        b.set(0, 0, 6);
    }

    #[test]
    #[should_panic(expected = "duplicate vote")]
    fn duplicate_vote_panics() {
        let mut b = LabelMatrixBuilder::new(2, 2);
        b.set(0, 0, 1);
        b.set(0, 0, -1);
        let _ = b.build();
    }

    #[test]
    fn empty_matrix() {
        let m = LabelMatrixBuilder::new(0, 0).build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.label_density(), 0.0);
        assert!(m.iter().next().is_none());
    }
}
