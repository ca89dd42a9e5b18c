//! Property-test harness locking down the scale-out contract: for
//! arbitrary matrices, cardinalities, and shard counts (including 1 and
//! 0 = auto-sized),
//!
//! * pattern-deduplicated **marginals** are *bit-identical* to the
//!   row walk of [`GenerativeModel::marginals`] — a pattern's posterior
//!   is computed by the exact float-op sequence its rows' posteriors
//!   would have used;
//! * the plan structures themselves satisfy their invariants
//!   ([`ShardedMatrix::validate`]).
//!
//! Fits have one path (the plan); their equivalence with the row-wise
//! E-pass it replaced is a unit proptest against the `#[cfg(test)]`
//! reference in `crates/core/src/exact.rs`.

use proptest::prelude::*;
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, PatternIndex, ShardedMatrix, Vote};

/// Arbitrary (matrix, cardinality) with duplicate-heavy rows: each row
/// is drawn from a small pool of row templates plus free noise, so real
/// dedup structure appears at every size.
fn matrix_strategy() -> impl Strategy<Value = LabelMatrix> {
    (1usize..40, 1usize..8, 2u8..5, 1usize..6).prop_flat_map(|(m, n, k, pool)| {
        let template = prop::collection::vec(0i8..=(k as i8), n);
        (
            prop::collection::vec(template, pool),
            prop::collection::vec(0usize..pool, m),
            prop::collection::vec((0usize..m.max(1), 0usize..n.max(1), 0i8..=(k as i8)), 0..8),
        )
            .prop_map(move |(templates, assignment, noise)| {
                let mut grid: Vec<Vec<Vote>> =
                    assignment.iter().map(|&t| templates[t].clone()).collect();
                for (i, j, v) in noise {
                    grid[i][j] = v;
                }
                let mut b = LabelMatrixBuilder::with_cardinality(m, n, k);
                for (i, row) in grid.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        // Map template values onto the scheme: 0 =
                        // abstain; binary uses ±1, multi-class 1..=k.
                        let vote = if k == 2 {
                            match v {
                                0 => 0,
                                1 => 1,
                                _ => -1,
                            }
                        } else {
                            v.min(k as i8)
                        };
                        b.set(i, j, vote);
                    }
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plans of every shard count are structurally valid and count
    /// patterns consistently with an unsharded index.
    #[test]
    fn plans_are_valid_for_any_shard_count(
        lambda in matrix_strategy(),
        shards in 0usize..6,
    ) {
        let plan = ShardedMatrix::build(&lambda, shards);
        plan.validate(&lambda).unwrap();
        prop_assert_eq!(plan.num_rows(), lambda.num_points());
        // Sharding can only split patterns at shard boundaries, never
        // lose or invent signatures.
        let whole = PatternIndex::build(&lambda);
        prop_assert!(plan.num_patterns() >= whole.num_patterns());
        prop_assert!(plan.num_patterns() <= whole.num_patterns() * plan.num_shards());
    }

    /// Deduplicated marginals are bit-identical to row-wise marginals,
    /// for shard counts 0 (= auto-sized), 1, and arbitrary.
    #[test]
    fn marginals_bit_identical_across_paths(
        lambda in matrix_strategy(),
        shards in 0usize..6,
    ) {
        let scheme = LabelScheme::from_cardinality(lambda.cardinality());
        let mut gm = GenerativeModel::new(lambda.num_lfs(), scheme);
        gm.fit(&lambda, &TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        });
        let reference = gm.marginals(&lambda);
        for s in [shards, 0, 1] {
            let plan = ShardedMatrix::build(&lambda, s);
            let dedup = gm.marginals_with(&lambda, &plan);
            prop_assert_eq!(
                &dedup, &reference,
                "marginals must be bit-identical at shard count {}", s
            );
        }
    }
}
