//! Edge-case coverage for [`MatrixDelta`] — the delta shapes the
//! incremental scale-out path leans on: empty-column appends, removing
//! the last column, splices on zero-nnz matrices, and row-batch appends
//! followed by a pattern-index append.

use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, MatrixDelta, PatternIndex, Vote};

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

fn sample_grid() -> Vec<Vec<Vote>> {
    vec![
        vec![1, -1, 0],
        vec![0, 0, 0],
        vec![1, -1, 0],
        vec![0, 1, -1],
        vec![-1, 0, 1],
    ]
}

#[test]
fn empty_column_append_matches_rebuild() {
    let mut grid = sample_grid();
    let mut lambda = build(&grid);
    lambda.apply_delta(&MatrixDelta::AppendColumn { entries: vec![] });
    for row in grid.iter_mut() {
        row.push(0);
    }
    assert_eq!(lambda, build(&grid));
    assert_eq!(lambda.num_lfs(), 4);
    assert_eq!(lambda.column(3), vec![]);
    // A second empty append on top still matches.
    lambda.apply_delta(&MatrixDelta::AppendColumn { entries: vec![] });
    for row in grid.iter_mut() {
        row.push(0);
    }
    assert_eq!(lambda, build(&grid));
}

#[test]
fn removing_the_last_column_matches_rebuild() {
    let mut grid = sample_grid();
    let mut lambda = build(&grid);
    // Remove the highest-index column (no index remapping work at all),
    // then keep removing until no columns remain.
    lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 2 });
    for row in grid.iter_mut() {
        row.pop();
    }
    assert_eq!(lambda, build(&grid));
    lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 1 });
    lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 0 });
    assert_eq!(lambda.num_lfs(), 0);
    assert_eq!(lambda.nnz(), 0);
    assert_eq!(lambda.num_points(), 5); // rows survive with empty signatures
    let idx = PatternIndex::build(&lambda);
    idx.validate(&lambda).unwrap();
    assert_eq!(idx.num_patterns(), 1); // the all-abstain pattern
}

#[test]
fn splice_on_zero_nnz_matrix_matches_rebuild() {
    // A matrix with rows and columns but not a single vote.
    let mut grid = vec![vec![0 as Vote; 3]; 6];
    let mut lambda = build(&grid);
    assert_eq!(lambda.nnz(), 0);

    // Replace a column of nothing with actual votes…
    lambda.apply_delta(&MatrixDelta::ReplaceColumn {
        col: 1,
        entries: vec![(0, 1), (5, -1)],
    });
    grid[0][1] = 1;
    grid[5][1] = -1;
    assert_eq!(lambda, build(&grid));

    // …and splice it back to empty (zero-nnz again).
    lambda.apply_delta(&MatrixDelta::ReplaceColumn {
        col: 1,
        entries: vec![],
    });
    grid[0][1] = 0;
    grid[5][1] = 0;
    assert_eq!(lambda, build(&grid));
    assert_eq!(lambda.nnz(), 0);

    // Removing a column of a zero-nnz matrix is also a pure shape edit.
    lambda.apply_delta(&MatrixDelta::RemoveColumn { col: 0 });
    assert_eq!(lambda.num_lfs(), 2);
    assert_eq!(lambda.nnz(), 0);
}

#[test]
fn row_batch_append_then_pattern_index_refresh() {
    let grid = sample_grid();
    let mut lambda = build(&grid);
    let mut idx = PatternIndex::build(&lambda);

    // Append a batch: one duplicate of an existing signature, one brand
    // new signature, one empty row.
    lambda.apply_delta(&MatrixDelta::AppendRows {
        rows: vec![vec![(0, 1), (1, -1)], vec![(2, 1)], vec![]],
    });
    idx.append_rows(&lambda);

    idx.validate(&lambda).unwrap();
    let fresh = PatternIndex::build(&lambda);
    assert_eq!(idx.num_patterns(), fresh.num_patterns());
    assert_eq!(idx.num_rows(), 8);
    // The duplicate joined its pattern rather than minting a new one.
    assert_eq!(idx.pattern_of_row(5), idx.pattern_of_row(0));
    assert_eq!(idx.count(idx.pattern_of_row(0)), 3);

    // A column splice right after the append moves signatures the
    // appended index still holds; the index is rebuilt from Λ.
    lambda.apply_delta(&MatrixDelta::ReplaceColumn {
        col: 2,
        entries: vec![(1, 1), (6, -1)],
    });
    assert!(idx.validate(&lambda).is_err());
    PatternIndex::build(&lambda).validate(&lambda).unwrap();
}

#[test]
fn append_rows_on_empty_matrix() {
    // Zero-row, nonzero-column matrix: the append is the first content.
    let mut lambda = LabelMatrixBuilder::new(0, 2).build();
    let mut idx = PatternIndex::build(&lambda);
    lambda.apply_delta(&MatrixDelta::AppendRows {
        rows: vec![vec![(0, 1)], vec![(0, 1)], vec![(1, -1)]],
    });
    idx.append_rows(&lambda);
    idx.validate(&lambda).unwrap();
    assert_eq!(idx.num_patterns(), 2);
    assert_eq!(idx.count(idx.pattern_of_row(0)), 2);
}
