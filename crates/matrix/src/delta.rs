//! Delta updates for the label matrix — the storage layer of the
//! incremental dev loop (`snorkel-incr`).
//!
//! The interactive workflow edits one labeling function out of `n`, so
//! rebuilding the whole `Λ` from triplets (sort + dedup validation,
//! `O(nnz · log nnz)`) on every edit is wasted work. This module patches
//! the CSR arrays directly:
//!
//! * [`LabelMatrix::column`] / [`LabelMatrix::replace_column`] /
//!   [`LabelMatrix::append_column`] / [`LabelMatrix::remove_column`] —
//!   single-pass `O(nnz)` column splices;
//! * [`LabelMatrix::append_rows`] — `O(new nnz)` ingestion of a new
//!   candidate batch (pure extension of the CSR arrays);
//! * [`LabelMatrix::from_columns`] — `O(nnz)` assembly from per-column
//!   sparse vectors (the shape the LF-result cache stores);
//! * [`MatrixDelta`] — a first-class description of one edit, applied
//!   with [`LabelMatrix::apply_delta`].
//!
//! Every operation produces a matrix **bit-identical** to rebuilding from
//! scratch with [`LabelMatrixBuilder`](crate::LabelMatrixBuilder) — the
//! invariant the `snorkel-incr` property tests pin down — because CSR rows
//! stay sorted by column and vote validation mirrors the builder's.

use crate::csr::{LabelMatrix, Vote, ABSTAIN};

/// One structural edit to a label matrix.
///
/// Row indices inside column entries refer to the matrix the delta is
/// applied to; entries must be sorted by row, unique, in range, and
/// non-abstain (the invariants [`LabelMatrix::column`] guarantees).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatrixDelta {
    /// Swap the sparse contents of one existing column (an LF edit).
    ReplaceColumn {
        /// Column index in `0..n`.
        col: usize,
        /// New `(row, vote)` entries, sorted by row.
        entries: Vec<(u32, Vote)>,
    },
    /// Add one column at index `n` (a new LF).
    AppendColumn {
        /// `(row, vote)` entries, sorted by row.
        entries: Vec<(u32, Vote)>,
    },
    /// Delete one column, shifting the columns above it down by one (an
    /// LF removal).
    RemoveColumn {
        /// Column index in `0..n`.
        col: usize,
    },
    /// Append a batch of new data-point rows (candidate ingestion). Each
    /// row is `(col, vote)` entries sorted by column.
    AppendRows {
        /// One entry list per new row.
        rows: Vec<Vec<(u32, Vote)>>,
    },
}

impl MatrixDelta {
    /// Human-readable kind tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            MatrixDelta::ReplaceColumn { .. } => "replace-column",
            MatrixDelta::AppendColumn { .. } => "append-column",
            MatrixDelta::RemoveColumn { .. } => "remove-column",
            MatrixDelta::AppendRows { .. } => "append-rows",
        }
    }
}

impl LabelMatrix {
    /// Validate one vote for this matrix's scheme (mirrors the builder).
    fn check_vote(&self, v: Vote) {
        debug_assert_ne!(v, ABSTAIN, "sparse entries must be non-abstain");
        if self.cardinality == 2 {
            assert!(
                v == 1 || v == -1,
                "binary scheme requires votes in {{-1, +1}}, got {v}"
            );
        } else {
            assert!(
                v >= 1 && (v as u8) <= self.cardinality,
                "{}-class scheme requires votes in 1..={}, got {v}",
                self.cardinality,
                self.cardinality
            );
        }
    }

    fn check_column_entries(&self, entries: &[(u32, Vote)]) {
        let mut prev: Option<u32> = None;
        for &(row, v) in entries {
            assert!(
                (row as usize) < self.m,
                "row {row} out of range ({} points)",
                self.m
            );
            assert!(v != ABSTAIN, "column entries must be non-abstain");
            self.check_vote(v);
            if let Some(p) = prev {
                assert!(
                    p < row,
                    "column entries must be sorted and unique (…{p}, {row}…)"
                );
            }
            prev = Some(row);
        }
    }

    /// Extract one LF's sparse column as `(row, vote)` pairs in row order.
    pub fn column(&self, j: usize) -> Vec<(u32, Vote)> {
        assert!(j < self.n, "col {j} out of range ({} LFs)", self.n);
        let mut out = Vec::new();
        for i in 0..self.m {
            let (cols, votes) = self.row(i);
            if let Ok(pos) = cols.binary_search(&(j as u32)) {
                out.push((i as u32, votes[pos]));
            }
        }
        out
    }

    /// Replace column `j`'s contents with `entries` in one `O(nnz)` pass.
    pub fn replace_column(&mut self, j: usize, entries: &[(u32, Vote)]) {
        assert!(j < self.n, "col {j} out of range ({} LFs)", self.n);
        self.check_column_entries(entries);
        self.splice_column(j, Some(entries), false);
    }

    /// Append `entries` as new column `n`. The new column has the highest
    /// index, so each row's entry lands at the row's tail: a single
    /// back-to-front in-place shift, no reallocation beyond the tail
    /// growth.
    pub fn append_column(&mut self, entries: &[(u32, Vote)]) {
        self.check_column_entries(entries);
        let new_col = self.n as u32;
        self.n += 1;
        let extra = entries.len();
        let old_nnz = self.votes.len();
        self.col_idx.resize(old_nnz + extra, 0);
        self.votes.resize(old_nnz + extra, ABSTAIN);
        let mut write = old_nnz + extra; // one past the next write slot
        let mut read = old_nnz; // one past the next read slot
        let mut next_entry = entries.len(); // entries consumed back to front
        for i in (0..self.m).rev() {
            let lo = self.row_ptr[i];
            let gains = next_entry > 0 && entries[next_entry - 1].0 as usize == i;
            if gains {
                next_entry -= 1;
                write -= 1;
                self.col_idx[write] = new_col;
                self.votes[write] = entries[next_entry].1;
            }
            while read > lo {
                read -= 1;
                write -= 1;
                self.col_idx[write] = self.col_idx[read];
                self.votes[write] = self.votes[read];
            }
            // `write` now points at row i's first entry; rows above i have
            // already been shifted, so this is row i's final start offset.
            self.row_ptr[i] = write;
        }
        debug_assert_eq!(write, 0);
        debug_assert_eq!(next_entry, 0);
        self.row_ptr[self.m] = old_nnz + extra;
        // Interior boundaries: row_ptr[i] was rewritten as each row's
        // *start*; the end of row i is the start of row i+1, which the
        // loop already set — except row m's start slot doubles as the
        // total, handled above. Nothing further to fix.
    }

    /// Remove column `j`, shifting higher columns down, in one pass.
    pub fn remove_column(&mut self, j: usize) {
        assert!(j < self.n, "col {j} out of range ({} LFs)", self.n);
        self.splice_column(j, None, true);
        self.n -= 1;
    }

    /// Shared column splice: `replacement = Some(entries)` swaps column
    /// `j`'s contents; `replacement = None` with `drop_col` deletes the
    /// column (remapping higher indices down by one).
    fn splice_column(&mut self, j: usize, replacement: Option<&[(u32, Vote)]>, drop_col: bool) {
        let jc = j as u32;
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut votes = Vec::with_capacity(self.votes.len());
        let mut row_ptr = Vec::with_capacity(self.m + 1);
        row_ptr.push(0);
        let mut next_entry = 0usize;
        let entries = replacement.unwrap_or(&[]);
        for i in 0..self.m {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut inserted = false;
            let pending = next_entry < entries.len() && entries[next_entry].0 as usize == i;
            for t in lo..hi {
                let c = self.col_idx[t];
                if c == jc {
                    continue; // old contents of the spliced column
                }
                if pending && !inserted && c > jc {
                    col_idx.push(jc);
                    votes.push(entries[next_entry].1);
                    inserted = true;
                }
                col_idx.push(if drop_col && c > jc { c - 1 } else { c });
                votes.push(self.votes[t]);
            }
            if pending && !inserted {
                col_idx.push(jc);
                votes.push(entries[next_entry].1);
            }
            if pending {
                next_entry += 1;
            }
            row_ptr.push(col_idx.len());
        }
        self.col_idx = col_idx;
        self.votes = votes;
        self.row_ptr = row_ptr;
    }

    /// Append new data-point rows; `rows[r]` holds row `m + r`'s sparse
    /// `(col, vote)` entries sorted by column. Pure `O(new nnz)` CSR
    /// extension — existing storage is untouched.
    pub fn append_rows(&mut self, rows: &[Vec<(u32, Vote)>]) {
        for row in rows {
            let mut prev: Option<u32> = None;
            for &(c, v) in row {
                assert!(
                    (c as usize) < self.n,
                    "col {c} out of range ({} LFs)",
                    self.n
                );
                assert!(v != ABSTAIN, "row entries must be non-abstain");
                self.check_vote(v);
                if let Some(p) = prev {
                    assert!(p < c, "row entries must be sorted and unique (…{p}, {c}…)");
                }
                prev = Some(c);
                self.col_idx.push(c);
                self.votes.push(v);
            }
            self.row_ptr.push(self.votes.len());
        }
        self.m += rows.len();
    }

    /// Apply one [`MatrixDelta`].
    pub fn apply_delta(&mut self, delta: &MatrixDelta) {
        match delta {
            MatrixDelta::ReplaceColumn { col, entries } => self.replace_column(*col, entries),
            MatrixDelta::AppendColumn { entries } => self.append_column(entries),
            MatrixDelta::RemoveColumn { col } => self.remove_column(*col),
            MatrixDelta::AppendRows { rows } => self.append_rows(rows),
        }
    }

    /// Assemble a matrix from per-column sparse vectors (each sorted by
    /// row) in `O(nnz)` — the LF-result cache's native layout.
    pub fn from_columns<C: AsRef<[(u32, Vote)]>>(
        m: usize,
        cardinality: u8,
        columns: &[C],
    ) -> LabelMatrix {
        assert!(cardinality >= 2, "cardinality must be at least 2");
        let n = columns.len();
        // Count entries per row, then prefix-sum into row_ptr.
        let mut lens = vec![0usize; m];
        let mut nnz = 0usize;
        for col in columns {
            let mut prev: Option<u32> = None;
            for &(row, _) in col.as_ref() {
                assert!((row as usize) < m, "row {row} out of range ({m} points)");
                if let Some(p) = prev {
                    assert!(p < row, "column entries must be sorted and unique");
                }
                prev = Some(row);
                lens[row as usize] += 1;
                nnz += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0usize);
        for i in 0..m {
            row_ptr.push(row_ptr[i] + lens[i]);
        }
        // Scatter column-by-column; columns are visited in ascending
        // index order, so each row's entries land already sorted.
        let mut col_idx = vec![0u32; nnz];
        let mut votes = vec![0 as Vote; nnz];
        let mut cursor = row_ptr.clone();
        let mut out = LabelMatrix {
            m,
            n,
            cardinality,
            row_ptr: Vec::new(),
            col_idx: Vec::new(),
            votes: Vec::new(),
        };
        for (j, col) in columns.iter().enumerate() {
            for &(row, v) in col.as_ref() {
                out.check_vote(v);
                let slot = cursor[row as usize];
                cursor[row as usize] += 1;
                col_idx[slot] = j as u32;
                votes[slot] = v;
            }
        }
        out.row_ptr = row_ptr;
        out.col_idx = col_idx;
        out.votes = votes;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::LabelMatrixBuilder;

    /// Deterministic pseudo-random dense grid (LCG; no rand dependency in
    /// the lib's test scope).
    fn grid(m: usize, n: usize, seed: u64) -> Vec<Vec<Vote>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| match next() % 4 {
                        0 => 1,
                        1 => -1,
                        _ => ABSTAIN,
                    })
                    .collect()
            })
            .collect()
    }

    fn build(grid: &[Vec<Vote>]) -> LabelMatrix {
        let m = grid.len();
        let n = grid.first().map_or(0, Vec::len);
        let mut b = LabelMatrixBuilder::new(m, n);
        for (i, row) in grid.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                b.set(i, j, v);
            }
        }
        b.build()
    }

    fn dense_column(grid: &[Vec<Vote>], j: usize) -> Vec<(u32, Vote)> {
        grid.iter()
            .enumerate()
            .filter_map(|(i, row)| (row[j] != ABSTAIN).then_some((i as u32, row[j])))
            .collect()
    }

    #[test]
    fn column_extraction_round_trips() {
        let g = grid(17, 5, 3);
        let lambda = build(&g);
        for j in 0..5 {
            assert_eq!(lambda.column(j), dense_column(&g, j));
        }
    }

    #[test]
    fn replace_column_matches_rebuild() {
        for seed in 0..10 {
            let mut g = grid(23, 6, seed);
            let mut lambda = build(&g);
            let j = (seed % 6) as usize;
            let new = grid(23, 1, seed + 100);
            for (i, row) in new.iter().enumerate() {
                g[i][j] = row[0];
            }
            lambda.replace_column(j, &dense_column(&g, j));
            assert_eq!(lambda, build(&g), "seed {seed}");
        }
    }

    #[test]
    fn append_column_matches_rebuild() {
        for seed in 0..10 {
            let mut g = grid(19, 4, seed);
            let mut lambda = build(&g);
            let new = grid(19, 1, seed + 50);
            for (i, row) in g.iter_mut().enumerate() {
                row.push(new[i][0]);
            }
            lambda.append_column(&dense_column(&g, 4));
            assert_eq!(lambda, build(&g), "seed {seed}");
        }
    }

    #[test]
    fn remove_column_matches_rebuild() {
        for seed in 0..10 {
            let mut g = grid(21, 5, seed);
            let mut lambda = build(&g);
            let j = (seed % 5) as usize;
            for row in g.iter_mut() {
                row.remove(j);
            }
            lambda.remove_column(j);
            assert_eq!(lambda, build(&g), "seed {seed}");
        }
    }

    #[test]
    fn append_rows_matches_rebuild() {
        for seed in 0..10 {
            let mut g = grid(12, 4, seed);
            let mut lambda = build(&g);
            let extra = grid(7, 4, seed + 31);
            let rows: Vec<Vec<(u32, Vote)>> = extra
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter_map(|(j, &v)| (v != ABSTAIN).then_some((j as u32, v)))
                        .collect()
                })
                .collect();
            lambda.append_rows(&rows);
            g.extend(extra);
            assert_eq!(lambda, build(&g), "seed {seed}");
        }
    }

    #[test]
    fn delta_sequence_matches_rebuild() {
        let mut g = grid(15, 3, 9);
        let mut lambda = build(&g);

        // Edit column 1.
        let col = grid(15, 1, 77);
        for (i, row) in col.iter().enumerate() {
            g[i][1] = row[0];
        }
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 1,
            entries: dense_column(&g, 1),
        });

        // Add a column.
        let col = grid(15, 1, 78);
        for (i, row) in g.iter_mut().enumerate() {
            row.push(col[i][0]);
        }
        lambda.apply_delta(&MatrixDelta::AppendColumn {
            entries: dense_column(&g, 3),
        });

        // Ingest rows.
        let extra = grid(5, 4, 79);
        lambda.apply_delta(&MatrixDelta::AppendRows {
            rows: extra
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter_map(|(j, &v)| (v != ABSTAIN).then_some((j as u32, v)))
                        .collect()
                })
                .collect(),
        });
        g.extend(extra);

        // Drop column 0.
        for row in g.iter_mut() {
            row.remove(0);
        }
        lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 0 });

        assert_eq!(lambda, build(&g));
        assert_eq!(lambda.num_lfs(), 3);
        assert_eq!(lambda.num_points(), 20);
    }

    #[test]
    fn from_columns_matches_builder() {
        for seed in 0..10 {
            let g = grid(25, 7, seed);
            let expected = build(&g);
            let cols: Vec<Vec<(u32, Vote)>> = (0..7).map(|j| dense_column(&g, j)).collect();
            assert_eq!(LabelMatrix::from_columns(25, 2, &cols), expected);
        }
    }

    #[test]
    fn from_columns_empty_shapes() {
        let empty = LabelMatrix::from_columns(0, 2, &[] as &[Vec<(u32, Vote)>]);
        assert_eq!(empty.num_points(), 0);
        assert_eq!(empty.num_lfs(), 0);
        let no_rows = LabelMatrix::from_columns(0, 2, &[Vec::<(u32, Vote)>::new(), Vec::new()]);
        assert_eq!(no_rows.num_lfs(), 2);
        let no_votes = LabelMatrix::from_columns(4, 5, &vec![Vec::<(u32, Vote)>::new(); 3]);
        assert_eq!(no_votes.num_points(), 4);
        assert_eq!(no_votes.nnz(), 0);
        assert_eq!(no_votes.cardinality(), 5);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn replace_column_rejects_unsorted() {
        let mut lambda = build(&grid(5, 2, 1));
        lambda.replace_column(0, &[(3, 1), (1, -1)]);
    }

    #[test]
    #[should_panic(expected = "binary scheme")]
    fn replace_column_rejects_bad_votes() {
        let mut lambda = build(&grid(5, 2, 1));
        lambda.replace_column(0, &[(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn append_rows_rejects_bad_col() {
        let mut lambda = build(&grid(5, 2, 1));
        lambda.append_rows(&[vec![(2, 1)]]);
    }

    #[test]
    fn multiclass_deltas_validate() {
        let mut b = LabelMatrixBuilder::with_cardinality(4, 2, 5);
        b.set(0, 0, 5);
        b.set(2, 1, 3);
        let mut lambda = b.build();
        lambda.replace_column(0, &[(1, 4), (3, 5)]);
        assert_eq!(lambda.get(1, 0), 4);
        assert_eq!(lambda.get(0, 0), ABSTAIN);
        assert_eq!(lambda.cardinality(), 5);
    }
}
