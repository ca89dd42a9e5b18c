//! Property tests on the generative model and vote machinery.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{ClassBalance, GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::optimizer::{advantage_upper_bound, OptimizerConfig};
use snorkel_core::vote::{majority_vote, modeling_advantage, weighted_vote};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, PatternIndex, Vote};

/// Random binary matrix with per-LF accuracies and planted gold.
fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> (LabelMatrix, Vec<Vote>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = LabelMatrixBuilder::new(m, accs.len());
    let mut gold = Vec::with_capacity(m);
    for i in 0..m {
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        gold.push(y);
        for (j, &acc) in accs.iter().enumerate() {
            if rng.gen::<f64>() < pl {
                b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
            }
        }
    }
    (b.build(), gold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Posteriors are probability distributions for any weights/votes.
    #[test]
    fn posteriors_are_distributions(
        accs in prop::collection::vec(0.5f64..0.95, 2..6),
        pl in 0.2f64..0.8,
        seed in 0u64..1000,
    ) {
        let (lambda, _) = planted(200, &accs, pl, seed);
        let mut gm = GenerativeModel::new(accs.len(), LabelScheme::Binary);
        let cfg = TrainConfig { epochs: 50, ..TrainConfig::default() };
        gm.fit(&lambda, &cfg);
        for post in gm.marginals(&lambda) {
            let sum: f64 = post.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(post.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        prop_assert!(gm.accuracy_weights().iter().all(|w| w.is_finite()));
    }

    /// The unweighted majority vote is invariant under LF permutation,
    /// and flips sign under global label flip.
    #[test]
    fn majority_vote_symmetries(
        accs in prop::collection::vec(0.5f64..0.95, 2..6),
        seed in 0u64..1000,
    ) {
        let (lambda, _) = planted(120, &accs, 0.5, seed);
        let mv = majority_vote(&lambda);

        // Permutation invariance.
        let perm: Vec<usize> = (0..lambda.num_lfs()).rev().collect();
        let permuted = lambda.select_columns(&perm).unwrap();
        prop_assert_eq!(majority_vote(&permuted), mv.clone());

        // Label-flip equivariance: negating every vote negates the MV.
        let mut b = LabelMatrixBuilder::new(lambda.num_points(), lambda.num_lfs());
        for (i, j, v) in lambda.iter() {
            b.set(i, j, -v);
        }
        let flipped = majority_vote(&b.build());
        for (a, b) in mv.iter().zip(&flipped) {
            prop_assert_eq!(*a, -*b);
        }
    }

    /// Uniform weights reproduce the unweighted majority vote, and the
    /// advantage of uniform weights is exactly zero.
    #[test]
    fn uniform_weights_are_majority_vote(
        accs in prop::collection::vec(0.5f64..0.95, 2..5),
        w in 0.1f64..5.0,
        seed in 0u64..1000,
    ) {
        let (lambda, gold) = planted(150, &accs, 0.5, seed);
        let uniform = vec![w; lambda.num_lfs()];
        prop_assert_eq!(weighted_vote(&lambda, &uniform), majority_vote(&lambda));
        prop_assert_eq!(modeling_advantage(&lambda, &uniform, &gold), 0.0);
    }

    /// The optimizer's bound is non-negative and bounded by 2 (each row
    /// contributes at most one unit per hypothesis label).
    #[test]
    fn advantage_bound_is_sane(
        accs in prop::collection::vec(0.5f64..0.95, 1..6),
        pl in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let (lambda, _) = planted(150, &accs, pl, seed);
        let bound = advantage_upper_bound(&lambda, &OptimizerConfig::default());
        prop_assert!(bound >= 0.0);
        prop_assert!(bound <= 2.0);
    }

    /// The generative backend behind the `LabelModel` enum is the same
    /// model: enum-call fit and marginals are bit-identical to the
    /// concrete-type calls, with and without a pattern index, and a clone
    /// scores exactly as the original — the "no numeric drift" contract.
    #[test]
    fn generative_enum_calls_are_bit_identical(
        accs in prop::collection::vec(0.45f64..0.95, 2..6),
        pl in 0.2f64..0.8,
        seed in 0u64..1000,
    ) {
        let (lambda, _) = planted(300, &accs, pl, seed);
        let cfg = TrainConfig { epochs: 60, ..TrainConfig::default() };

        // Concrete path.
        let mut concrete = GenerativeModel::new(accs.len(), LabelScheme::Binary);
        concrete.fit(&lambda, &cfg);
        let reference = concrete.marginals(&lambda);

        // Enum path, row-wise.
        let mut model =
            LabelModel::Generative(GenerativeModel::new(accs.len(), LabelScheme::Binary));
        model.fit(&lambda, None, &cfg);
        prop_assert_eq!(&model.marginals(&lambda, None), &reference);

        // Enum path, through a pattern index.
        let plan = PatternIndex::build(&lambda);
        prop_assert_eq!(&model.marginals(&lambda, Some(&plan)), &reference);

        // A clone is the same model.
        prop_assert_eq!(&model.clone().marginals(&lambda, None), &reference);

        // Hard labels agree too.
        prop_assert_eq!(model.predicted_labels(&lambda), concrete.predicted_labels(&lambda));
    }

    /// Fits are deterministic and class-balance-policy changes never
    /// produce non-finite parameters.
    #[test]
    fn fit_is_total_and_deterministic(
        accs in prop::collection::vec(0.4f64..0.95, 2..5),
        seed in 0u64..500,
    ) {
        let (lambda, _) = planted(100, &accs, 0.5, seed);
        let cfg = TrainConfig {
            epochs: 30,
            class_balance: ClassBalance::Uniform,
            ..TrainConfig::default()
        };
        let mut a = GenerativeModel::new(accs.len(), LabelScheme::Binary);
        let mut b = GenerativeModel::new(accs.len(), LabelScheme::Binary);
        a.fit(&lambda, &cfg);
        b.fit(&lambda, &cfg);
        prop_assert_eq!(a.accuracy_weights(), b.accuracy_weights());
        prop_assert!(a.propensity_weights().iter().all(|w| w.is_finite()));
    }
}

/// Statistical (non-proptest) check: learned accuracy ordering matches
/// the planted ordering across several seeds.
#[test]
fn accuracy_ordering_recovered_across_seeds() {
    let accs = [0.9, 0.75, 0.6];
    let mut ordered = 0;
    let trials = 5;
    for seed in 0..trials {
        let (lambda, _) = planted(3000, &accs, 0.6, seed);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        gm.fit(&lambda, &TrainConfig::default());
        let w = gm.accuracy_weights();
        if w[0] > w[1] && w[1] > w[2] {
            ordered += 1;
        }
    }
    assert!(
        ordered >= trials - 1,
        "accuracy ordering recovered in only {ordered}/{trials} trials"
    );
}
