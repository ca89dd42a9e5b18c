//! Property tests for the label matrix: CSR round-trips, selection
//! invariants, and diagnostic bounds.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use snorkel_matrix::stats::{class_balance, empirical_accuracies, matrix_stats};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, MatrixDelta, PatternIndex, Vote};

/// Generate a random binary label matrix as a dense grid, then build.
fn matrix_strategy() -> impl Strategy<Value = (LabelMatrix, Vec<Vec<Vote>>)> {
    (1usize..24, 1usize..10).prop_flat_map(|(m, n)| {
        prop::collection::vec(prop::collection::vec(-1i8..=1, n), m).prop_map(move |grid| {
            let mut b = LabelMatrixBuilder::new(m, n);
            for (i, row) in grid.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    b.set(i, j, v);
                }
            }
            (b.build(), grid)
        })
    })
}

proptest! {
    #[test]
    fn dense_round_trip((lambda, grid) in matrix_strategy()) {
        prop_assert_eq!(lambda.to_dense(), grid);
    }

    #[test]
    fn nnz_matches_non_zero_count((lambda, grid) in matrix_strategy()) {
        let expected: usize = grid.iter().flatten().filter(|&&v| v != 0).count();
        prop_assert_eq!(lambda.nnz(), expected);
        let density = lambda.label_density();
        prop_assert!((density - expected as f64 / grid.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn rows_are_sorted_and_deduplicated((lambda, _) in matrix_strategy()) {
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            prop_assert_eq!(cols.len(), votes.len());
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", i);
            prop_assert!(votes.iter().all(|&v| v != 0));
        }
    }

    #[test]
    fn select_rows_preserves_content((lambda, grid) in matrix_strategy()) {
        let rows: Vec<usize> = (0..lambda.num_points()).step_by(2).collect();
        let sub = lambda.select_rows(&rows).unwrap();
        prop_assert_eq!(sub.num_points(), rows.len());
        for (new_i, &old_i) in rows.iter().enumerate() {
            for j in 0..lambda.num_lfs() {
                prop_assert_eq!(sub.get(new_i, j), grid[old_i][j]);
            }
        }
    }

    #[test]
    fn select_columns_then_rows_commute((lambda, _) in matrix_strategy()) {
        let rows: Vec<usize> = (0..lambda.num_points()).filter(|i| i % 3 != 0).collect();
        let cols: Vec<usize> = (0..lambda.num_lfs()).rev().collect();
        let a = lambda.select_rows(&rows).unwrap().select_columns(&cols).unwrap();
        let b = lambda.select_columns(&cols).unwrap().select_rows(&rows).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn columns_view_is_transpose((lambda, _) in matrix_strategy()) {
        let cols = lambda.to_columns();
        let mut total = 0usize;
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                prop_assert_eq!(lambda.get(i as usize, j), v);
                total += 1;
            }
        }
        prop_assert_eq!(total, lambda.nnz());
    }

    #[test]
    fn stats_are_bounded((lambda, _) in matrix_strategy()) {
        let stats = matrix_stats(&lambda);
        prop_assert!((0.0..=1.0).contains(&stats.coverage));
        prop_assert!((0.0..=1.0).contains(&stats.conflict_rate));
        prop_assert!(stats.conflict_rate <= stats.coverage + 1e-12);
        for lf in &stats.lfs {
            prop_assert!((0.0..=1.0).contains(&lf.coverage));
            prop_assert!(lf.conflict <= lf.overlap + 1e-12);
            prop_assert!(lf.overlap <= lf.coverage + 1e-12);
        }
    }

    #[test]
    fn accuracies_in_unit_interval((lambda, _) in matrix_strategy(), seed in 0u64..100) {
        // Random gold labels.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gold: Vec<Vote> = (0..lambda.num_points())
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect();
        for acc in empirical_accuracies(&lambda, &gold).into_iter().flatten() {
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn class_balance_sums_to_one_when_nonempty((lambda, _) in matrix_strategy()) {
        let balance = class_balance(&lambda);
        if !balance.is_empty() {
            let total: f64 = balance.values().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }

    /// A fresh pattern index satisfies its invariants and partitions the
    /// rows exactly.
    #[test]
    fn pattern_index_groups_rows_exactly((lambda, grid) in matrix_strategy()) {
        let idx = PatternIndex::build(&lambda);
        idx.validate(&lambda).unwrap();
        let total: usize = idx
            .patterns()
            .map(|(_, _, _, cnt)| cnt)
            .sum();
        prop_assert_eq!(total, grid.len());
        // Two rows share a pattern iff their dense rows are equal.
        for a in 0..grid.len() {
            for b in (a + 1)..grid.len() {
                prop_assert_eq!(
                    idx.pattern_of_row(a) == idx.pattern_of_row(b),
                    grid[a] == grid[b],
                    "rows {} and {}", a, b
                );
            }
        }
    }

    /// The index a session keeps over an arbitrary delta sequence —
    /// `append_rows` after a row append, a fresh build after a column
    /// edit — equals `PatternIndex::build` of the edited Λ id for id
    /// after every op (signature and multiplicity per id, pattern per
    /// row), and never gives one signature two ids.
    #[test]
    fn pattern_index_survives_arbitrary_delta_sequences(
        (lambda, _) in matrix_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..64, prop::collection::vec((0usize..64, -1i8..=1), 0..10)), 1..6),
    ) {
        let mut lambda = lambda;
        let mut plan = PatternIndex::build(&lambda);
        for (kind, pick, entries) in ops {
            match kind {
                // Column replace.
                0 => {
                    let col = pick % lambda.num_lfs();
                    let mut es: Vec<(u32, Vote)> = entries
                        .iter()
                        .filter(|&&(r, v)| r < lambda.num_points() && v != 0)
                        .map(|&(r, v)| (r as u32, v))
                        .collect();
                    es.sort_by_key(|e| e.0);
                    es.dedup_by_key(|e| e.0);
                    lambda.apply_delta(&MatrixDelta::ReplaceColumn { col, entries: es });
                    plan = PatternIndex::build(&lambda);
                }
                // Row-batch append.
                1 => {
                    let n = lambda.num_lfs();
                    let rows: Vec<Vec<(u32, Vote)>> = (0..(pick % 4))
                        .map(|r| {
                            let mut row: Vec<(u32, Vote)> = entries
                                .iter()
                                .filter(|&&(c, v)| c < n && v != 0 && (c + r) % 2 == 0)
                                .map(|&(c, v)| (c as u32, v))
                                .collect();
                            row.sort_by_key(|e| e.0);
                            row.dedup_by_key(|e| e.0);
                            row
                        })
                        .collect();
                    lambda.apply_delta(&MatrixDelta::AppendRows { rows });
                    plan.append_rows(&lambda);
                }
                // Column append.
                _ => {
                    let mut es: Vec<(u32, Vote)> = entries
                        .iter()
                        .filter(|&&(r, v)| r < lambda.num_points() && v != 0)
                        .map(|&(r, v)| (r as u32, v))
                        .collect();
                    es.sort_by_key(|e| e.0);
                    es.dedup_by_key(|e| e.0);
                    lambda.apply_delta(&MatrixDelta::AppendColumn { entries: es });
                    plan = PatternIndex::build(&lambda);
                }
            }
            plan.validate(&lambda).unwrap();
            let fresh = PatternIndex::build(&lambda);
            prop_assert_eq!(plan.num_patterns(), fresh.num_patterns());
            let mut seen = std::collections::HashMap::new();
            for p in 0..plan.num_patterns() {
                prop_assert_eq!(plan.pattern(p), fresh.pattern(p), "pattern {}", p);
                prop_assert_eq!(plan.count(p), fresh.count(p), "pattern {}", p);
                let prev = seen.insert(plan.pattern(p), p);
                prop_assert_eq!(prev, None, "pattern {} repeats a signature", p);
            }
            for r in 0..lambda.num_points() {
                prop_assert_eq!(plan.pattern_of_row(r), fresh.pattern_of_row(r), "row {}", r);
            }
        }
    }
}
