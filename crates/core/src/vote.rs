//! Majority votes and the modeling advantage (paper Definition 1).
//!
//! The unweighted majority vote `f_1(Λ_i) = Σ_j Λ_ij` is the baseline the
//! generative model must beat; the weighted vote `f_w(Λ_i) = Σ_j w_j
//! Λ_ij` with the model's accuracy weights is what it produces. The
//! *modeling advantage* `A_w` counts how often the weighted vote
//! correctly overrules the unweighted one, minus how often it wrongly
//! does — the exact quantity the §3.1 tradeoff analysis and the
//! Figure 4/6 reproductions are about.

use snorkel_matrix::{LabelMatrix, Vote};

use crate::model::LabelScheme;

/// Index of the strict maximum of `tally`, `None` when nothing exceeds
/// `floor` or the maximum is tied — the argmax under every majority
/// vote in this crate, weighted or not.
pub(crate) fn unique_max<T: PartialOrd + Copy>(tally: &[T], floor: T) -> Option<usize> {
    let (mut best, mut winner) = (floor, None);
    for (c, &t) in tally.iter().enumerate() {
        if t > best {
            (best, winner) = (t, Some(c));
        } else if t == best {
            winner = None;
        }
    }
    winner
}

/// Plurality class of one vote set: the argmax of the per-class vote
/// counts, `None` on ties and when nothing voted. `tally` is a reusable
/// `num_classes`-sized scratch buffer. Every unweighted majority vote in
/// this crate — [`majority_vote`], the generative model's
/// class-balance and accuracy initializers, the moment statistics — is
/// this function.
pub(crate) fn plurality_class(
    scheme: LabelScheme,
    votes: &[Vote],
    tally: &mut [usize],
) -> Option<usize> {
    tally.fill(0);
    for &v in votes {
        if let Some(c) = scheme.class_of_vote(v) {
            tally[c] += 1;
        }
    }
    unique_max(tally, 0)
}

/// Unweighted majority vote per data point.
///
/// Binary scheme: the sign of the vote sum (`0` on ties and empty rows).
/// Multi-class scheme: the plurality class (`0` on ties and empty rows).
pub fn majority_vote(lambda: &LabelMatrix) -> Vec<Vote> {
    let scheme = LabelScheme::from_cardinality(lambda.cardinality());
    let mut tally = vec![0usize; scheme.num_classes()];
    (0..lambda.num_points())
        .map(|i| {
            plurality_class(scheme, lambda.row(i).1, &mut tally)
                .map_or(0, |c| scheme.vote_of_class(c))
        })
        .collect()
}

/// Weighted majority vote per data point with per-LF weights.
///
/// Panics if `weights.len() != lambda.num_lfs()`.
pub fn weighted_vote(lambda: &LabelMatrix, weights: &[f64]) -> Vec<Vote> {
    assert_eq!(
        weights.len(),
        lambda.num_lfs(),
        "weighted_vote: one weight per LF required"
    );
    let k = lambda.cardinality() as usize;
    let mut out = Vec::with_capacity(lambda.num_points());
    if lambda.is_binary() {
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            let mut score = 0.0;
            for (&c, &v) in cols.iter().zip(votes) {
                score += weights[c as usize] * v as f64;
            }
            out.push(if score > 0.0 {
                1
            } else if score < 0.0 {
                -1
            } else {
                0
            });
        }
    } else {
        let mut tally = vec![0.0f64; k + 1];
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            tally.iter_mut().for_each(|t| *t = 0.0);
            for (&c, &v) in cols.iter().zip(votes) {
                tally[v as usize] += weights[c as usize];
            }
            out.push(unique_max(&tally[1..], 0.0).map_or(0, |c| (c + 1) as Vote));
        }
    }
    out
}

/// Raw weighted vote scores `f_w(Λ_i) = Σ_j w_j Λ_ij` (binary only) —
/// used by the optimizer's advantage bound, which needs magnitudes, not
/// just signs.
pub fn weighted_scores(lambda: &LabelMatrix, weights: &[f64]) -> Vec<f64> {
    assert!(lambda.is_binary(), "weighted_scores: binary scheme only");
    assert_eq!(weights.len(), lambda.num_lfs());
    (0..lambda.num_points())
        .map(|i| {
            let (cols, votes) = lambda.row(i);
            cols.iter()
                .zip(votes)
                .map(|(&c, &v)| weights[c as usize] * v as f64)
                .sum()
        })
        .collect()
}

/// The modeling advantage `A_w(Λ, y)` of Definition 1 (binary scheme):
///
/// ```text
/// A_w = (1/m) Σ_i [ 1{y_i f_w > 0 ∧ y_i f_1 ≤ 0} − 1{y_i f_w ≤ 0 ∧ y_i f_1 > 0} ]
/// ```
///
/// i.e. the rate of correct disagreements of the weighted vote with the
/// majority vote, minus the rate of incorrect ones. `gold` entries of 0
/// (unlabeled) are skipped; the average divides by the number of labeled
/// points.
pub fn modeling_advantage(lambda: &LabelMatrix, weights: &[f64], gold: &[Vote]) -> f64 {
    assert!(lambda.is_binary(), "modeling_advantage: binary scheme only");
    assert_eq!(
        gold.len(),
        lambda.num_points(),
        "modeling_advantage: gold per row"
    );
    let fw = weighted_scores(lambda, weights);
    let f1 = weighted_scores(lambda, &vec![1.0; lambda.num_lfs()]);
    let mut advantage = 0i64;
    let mut labeled = 0usize;
    for i in 0..lambda.num_points() {
        let y = gold[i] as f64;
        if y == 0.0 {
            continue;
        }
        labeled += 1;
        let w_correct = y * fw[i] > 0.0;
        let mv_correct = y * f1[i] > 0.0;
        if w_correct && !mv_correct {
            advantage += 1;
        } else if !w_correct && mv_correct {
            advantage -= 1;
        }
    }
    if labeled == 0 {
        0.0
    } else {
        advantage as f64 / labeled as f64
    }
}

/// Accuracy of a vote vector against gold labels, counting predicted 0
/// (tie/abstain) as **incorrect** — the label-accuracy convention used
/// for the advantage analysis. Unlabeled gold rows (0) are skipped.
pub fn vote_accuracy(pred: &[Vote], gold: &[Vote]) -> f64 {
    assert_eq!(pred.len(), gold.len());
    let mut hits = 0usize;
    let mut labeled = 0usize;
    for (&p, &g) in pred.iter().zip(gold) {
        if g == 0 {
            continue;
        }
        labeled += 1;
        if p == g {
            hits += 1;
        }
    }
    if labeled == 0 {
        0.0
    } else {
        hits as f64 / labeled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snorkel_matrix::LabelMatrixBuilder;

    /// 3 LFs; LF0 is highly accurate, LF1/LF2 are noisy copies.
    fn conflict_matrix() -> LabelMatrix {
        let mut b = LabelMatrixBuilder::new(4, 3);
        // Row 0: LF0=+1, LF1=−1, LF2=−1 → MV says −1, strong LF0 says +1.
        b.set(0, 0, 1);
        b.set(0, 1, -1);
        b.set(0, 2, -1);
        // Row 1: all agree +1.
        b.set(1, 0, 1);
        b.set(1, 1, 1);
        b.set(1, 2, 1);
        // Row 2: LF1=+1 only.
        b.set(2, 1, 1);
        // Row 3: tie LF0=+1, LF1=−1.
        b.set(3, 0, 1);
        b.set(3, 1, -1);
        b.build()
    }

    #[test]
    fn majority_vote_signs_and_ties() {
        let mv = majority_vote(&conflict_matrix());
        assert_eq!(mv, vec![-1, 1, 1, 0]);
    }

    #[test]
    fn weighted_vote_overrules_majority() {
        let w = vec![5.0, 1.0, 1.0];
        let wv = weighted_vote(&conflict_matrix(), &w);
        assert_eq!(wv, vec![1, 1, 1, 1]);
    }

    #[test]
    fn advantage_counts_correct_flips() {
        let lambda = conflict_matrix();
        let gold = vec![1, 1, 1, 1];
        let w = vec![5.0, 1.0, 1.0];
        // Weighted fixes row 0 (MV wrong) and row 3 (MV tie → counted
        // as "≤ 0"), changes nothing else: advantage = 2/4.
        let a = modeling_advantage(&lambda, &w, &gold);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn advantage_penalizes_bad_weights() {
        let lambda = conflict_matrix();
        let gold = vec![-1, 1, 1, -1];
        // Here MV is right on row 0; upweighting LF0 flips it wrongly.
        let w = vec![5.0, 1.0, 1.0];
        let a = modeling_advantage(&lambda, &w, &gold);
        assert!(a < 0.0);
    }

    #[test]
    fn advantage_of_uniform_weights_is_zero() {
        let lambda = conflict_matrix();
        let gold = vec![1, -1, 1, -1];
        assert_eq!(modeling_advantage(&lambda, &[1.0, 1.0, 1.0], &gold), 0.0);
    }

    #[test]
    fn advantage_skips_unlabeled() {
        let lambda = conflict_matrix();
        let gold = vec![1, 0, 0, 0];
        let w = vec![5.0, 1.0, 1.0];
        assert!((modeling_advantage(&lambda, &w, &gold) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiclass_plurality() {
        let mut b = LabelMatrixBuilder::with_cardinality(3, 4, 5);
        // Row 0: 2,2,3 → class 2.
        b.set(0, 0, 2);
        b.set(0, 1, 2);
        b.set(0, 2, 3);
        // Row 1: 4 vs 5 tie → 0.
        b.set(1, 0, 4);
        b.set(1, 1, 5);
        // Row 2: empty → 0.
        let m = b.build();
        assert_eq!(majority_vote(&m), vec![2, 0, 0]);
        // Weighting breaks the tie.
        assert_eq!(weighted_vote(&m, &[2.0, 1.0, 1.0, 1.0])[1], 4);
    }

    #[test]
    fn vote_accuracy_conventions() {
        let pred = vec![1, -1, 0, 1];
        let gold = vec![1, 1, 1, 0];
        // Labeled rows: 0,1,2 → hits: row 0 only; tie row 2 is wrong.
        assert!((vote_accuracy(&pred, &gold) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gold_gives_zero() {
        let lambda = conflict_matrix();
        assert_eq!(modeling_advantage(&lambda, &[1.0; 3], &[0; 4]), 0.0);
        assert_eq!(vote_accuracy(&[1], &[0]), 0.0);
    }
}
