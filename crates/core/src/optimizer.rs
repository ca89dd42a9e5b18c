//! The model-selection optimizer (paper §3.1.2–§3.2.2, Algorithm 1),
//! extended to pick one of the three backends.
//! [`select_model`] is the one decision for every cardinality; the
//! advantage analysis is binary, so a multi-class Λ always gets the
//! independent generative model; [`decide`] is the refit's entry point.
//!
//! For a binary Λ, three decisions are automated from the label matrix
//! alone:
//!
//! 1. **Model accuracies at all, or just take the majority vote?** The
//!    advantage upper bound `A~*(Λ)` (Proposition 2) estimates the most
//!    a weighted model could gain over MV; below the user's advantage
//!    tolerance γ, training is skipped entirely — the paper measures a
//!    1.8× pipeline speedup on Chem from this branch.
//! 2. **Which correlations to model?** Structure learning is swept over
//!    a grid of thresholds ε; the *elbow point* of the `|C(ε)|` curve —
//!    the last ε before the selection count explodes — balances
//!    predictive gains against the (linear in `|C|`) Gibbs cost.
//! 3. **Which accuracy estimator?** When accuracies are worth modeling
//!    but no correlations were selected and Λ is deployment-scale
//!    (≥ [`OptimizerConfig::moment_min_rows`] rows), the closed-form
//!    moment backend replaces exact Newton training: at that scale its
//!    statistical gap from the MLE is negligible while its fit is a
//!    single statistics pass.

use snorkel_linalg::math::sigmoid;
use snorkel_matrix::LabelMatrix;

use crate::label_model::{
    ModelRegistry, BACKEND_GENERATIVE, BACKEND_MAJORITY_VOTE, BACKEND_MOMENT,
};
use crate::structure::{structure_sweep, StructureConfig};
use crate::vote::weighted_scores;

/// The optimizer's output: which backend labels this matrix, and with
/// what structure. Resolved to an actual model through
/// [`ModelRegistry::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ModelingStrategy {
    /// The zero-cost majority-vote backend.
    MajorityVote,
    /// The closed-form method-of-moments backend
    /// ([`crate::label_model::MomentModel`]): accuracy weights worth
    /// modeling, no correlation structure, fit in a single pass.
    MomentMatching,
    /// The exact generative backend with the given correlation
    /// structure.
    GenerativeModel {
        /// Selected structure threshold ε (0 when no sweep ran).
        epsilon: f64,
        /// LF pairs to model as correlated.
        correlations: Vec<(usize, usize)>,
        /// Fitted correlation strengths (parallel to `correlations`).
        strengths: Vec<f64>,
    },
}

impl ModelingStrategy {
    /// The [`backend_name`](crate::label_model::LabelModel::backend_name)
    /// of the [`LabelModel`](crate::label_model::LabelModel) variant this
    /// strategy selects.
    pub fn backend_name(&self) -> &'static str {
        match self {
            ModelingStrategy::MajorityVote => BACKEND_MAJORITY_VOTE,
            ModelingStrategy::MomentMatching => BACKEND_MOMENT,
            ModelingStrategy::GenerativeModel { .. } => BACKEND_GENERATIVE,
        }
    }
}

/// Optimizer hyperparameters; defaults follow the paper (footnote 8:
/// `(w_min, w̄, w_max) = (0.5, 1.0, 1.5)`, i.e. LF accuracies assumed in
/// 62%–82% with mean 73%).
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Advantage tolerance γ: predicted advantages below this select MV.
    pub gamma: f64,
    /// Structure-search resolution η: ε grid spacing. A non-finite or
    /// non-positive η has no grid and skips the search, as
    /// `skip_structure_search` does.
    pub eta: f64,
    /// Assumed minimum LF accuracy weight.
    pub w_min: f64,
    /// Assumed mean LF accuracy weight.
    pub w_mean: f64,
    /// Assumed maximum LF accuracy weight.
    pub w_max: f64,
    /// Skip the ε sweep entirely (independent model) — used when the
    /// caller knows the suite is uncorrelated or wants the fast path.
    pub skip_structure_search: bool,
    /// Row count at which an uncorrelated model selection switches from
    /// the exact generative backend to the closed-form moment backend
    /// (`usize::MAX` disables the moment branch). Correlated structures
    /// always train the exact backend — the moment identity assumes
    /// conditional independence.
    pub moment_min_rows: usize,
    /// Structure-learning settings for the sweep.
    pub structure: StructureConfig,
}

/// Default for [`OptimizerConfig::moment_min_rows`]: below this the
/// exact fit is already interactive-fast and its MLE is strictly better
/// statistically; above it the Newton loop dominates refresh latency
/// while the moment estimator's gap (O(1/√m)) has shrunk past caring.
pub const MOMENT_MIN_ROWS: usize = 200_000;

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            gamma: 0.01,
            eta: 0.02,
            w_min: 0.5,
            w_mean: 1.0,
            w_max: 1.5,
            skip_structure_search: false,
            moment_min_rows: MOMENT_MIN_ROWS,
            structure: StructureConfig::default(),
        }
    }
}

/// The optimizer's decision plus its evidence.
#[derive(Clone, Debug)]
pub struct StrategyDecision {
    /// The chosen strategy.
    pub strategy: ModelingStrategy,
    /// The predicted advantage upper bound `A~*(Λ)`.
    pub predicted_advantage: f64,
    /// The swept `(ε, |C(ε)|)` curve (empty when the sweep was skipped).
    pub sweep: Vec<(f64, usize)>,
}

/// Proposition 2's upper bound `A~*(Λ)` on the conditional modeling
/// advantage:
///
/// ```text
/// A~*(Λ) = (1/m) Σ_i Σ_{y∈±1} 1{y·f_1(Λ_i) ≤ 0} · Φ(Λ_i, y) · σ(2 f_w̄(Λ_i) y)
/// Φ(Λ_i, y) = 1{c_y(Λ_i) w_max > c_{−y}(Λ_i) w_min}
/// ```
///
/// `c_y` counts votes for label `y`; `f_w̄` is the majority vote with all
/// weights at the prior mean. Binary scheme only (the optimizer's
/// tradeoff analysis is stated for binary tasks).
pub fn advantage_upper_bound(lambda: &LabelMatrix, cfg: &OptimizerConfig) -> f64 {
    assert!(lambda.is_binary(), "advantage bound: binary scheme only");
    let m = lambda.num_points();
    if m == 0 {
        return 0.0;
    }
    let f1 = weighted_scores(lambda, &vec![1.0; lambda.num_lfs()]);
    let mut total = 0.0;
    for i in 0..m {
        let (_, votes) = lambda.row(i);
        let c_pos = votes.iter().filter(|&&v| v == 1).count() as f64;
        let c_neg = votes.iter().filter(|&&v| v == -1).count() as f64;
        let f_mean = cfg.w_mean * (c_pos - c_neg);
        for y in [-1.0f64, 1.0] {
            if y * f1[i] > 0.0 {
                continue; // MV already right for this hypothesis
            }
            let (c_y, c_other) = if y > 0.0 {
                (c_pos, c_neg)
            } else {
                (c_neg, c_pos)
            };
            let phi = c_y * cfg.w_max > c_other * cfg.w_min;
            if !phi {
                continue;
            }
            total += sigmoid(2.0 * f_mean * y);
        }
    }
    total / m as f64
}

/// Find the elbow of the `(ε, |C|)` curve — per the paper, "the point
/// with greatest absolute difference from its neighbors": the interior
/// index maximizing `|c_i − c_{i−1}| + |c_i − c_{i+1}|`. Input must be
/// sorted by descending ε; returns an index into `sweep`.
pub fn elbow_point(sweep: &[(f64, usize)]) -> usize {
    if sweep.len() <= 2 {
        return 0;
    }
    let mut best_idx = 1usize;
    let mut best_diff = -1i64;
    for i in 1..sweep.len() - 1 {
        let c_prev = sweep[i - 1].1 as i64;
        let c_here = sweep[i].1 as i64;
        let c_next = sweep[i + 1].1 as i64;
        let diff = (c_here - c_prev).abs() + (c_here - c_next).abs();
        if diff > best_diff {
            best_diff = diff;
            best_idx = i;
        }
    }
    best_idx
}

/// The exact generative backend with no correlation structure.
fn independent_generative() -> ModelingStrategy {
    ModelingStrategy::GenerativeModel {
        epsilon: 0.0,
        correlations: Vec::new(),
        strengths: Vec::new(),
    }
}

/// When the accuracy model has no correlation structure, pick between
/// the exact generative backend and the single-pass moment backend by
/// scale (see [`OptimizerConfig::moment_min_rows`]).
fn uncorrelated_backend(lambda: &LabelMatrix, cfg: &OptimizerConfig) -> ModelingStrategy {
    if lambda.num_points() >= cfg.moment_min_rows {
        ModelingStrategy::MomentMatching
    } else {
        independent_generative()
    }
}

/// The ε grid for a structure-search resolution η: `i·η` for
/// `i = 1 ..= max(1, ⌊1/(2η)⌋)`, descending so the elbow scan sees the
/// count explode left to right. `None` for a non-finite or non-positive
/// η, which has no grid: the caller skips the structure search.
fn epsilon_grid(eta: f64) -> Option<Vec<f64>> {
    if !(eta.is_finite() && eta > 0.0) {
        return None;
    }
    let steps = ((1.0 / (2.0 * eta)).floor() as usize).max(1);
    Some((1..=steps).rev().map(|i| i as f64 * eta).collect())
}

/// Algorithm 1: choose a modeling strategy (backend + structure) for a
/// binary label matrix (panics on a multi-class one, which
/// [`select_model`] handles).
pub fn choose_strategy(lambda: &LabelMatrix, cfg: &OptimizerConfig) -> StrategyDecision {
    let predicted = advantage_upper_bound(lambda, cfg);
    if predicted < cfg.gamma {
        return StrategyDecision {
            strategy: ModelingStrategy::MajorityVote,
            predicted_advantage: predicted,
            sweep: Vec::new(),
        };
    }
    let epsilons = match epsilon_grid(cfg.eta) {
        Some(grid) if !cfg.skip_structure_search => grid,
        _ => {
            return StrategyDecision {
                strategy: uncorrelated_backend(lambda, cfg),
                predicted_advantage: predicted,
                sweep: Vec::new(),
            }
        }
    };

    let sweep_full = structure_sweep(lambda, &epsilons, &cfg.structure);
    let sweep: Vec<(f64, usize)> = sweep_full.iter().map(|(e, c, _)| (*e, *c)).collect();
    let elbow = elbow_point(&sweep);
    let (eps, _, report) = &sweep_full[elbow];

    let strategy = if report.pairs.is_empty() {
        uncorrelated_backend(lambda, cfg)
    } else {
        ModelingStrategy::GenerativeModel {
            epsilon: *eps,
            correlations: report.pairs.clone(),
            strengths: report.weights.clone(),
        }
    };
    StrategyDecision {
        strategy,
        predicted_advantage: predicted,
        sweep,
    }
}

/// The strategy decision for any label matrix: a binary Λ goes through
/// [`choose_strategy`]; a multi-class Λ (the advantage analysis is
/// binary) always gets the independent generative model, with
/// `predicted_advantage = NaN`. The registry argument is unused.
pub fn select_model(
    lambda: &LabelMatrix,
    cfg: &OptimizerConfig,
    _registry: &ModelRegistry,
) -> StrategyDecision {
    if lambda.is_binary() {
        choose_strategy(lambda, cfg)
    } else {
        StrategyDecision {
            strategy: independent_generative(),
            predicted_advantage: f64::NAN,
            sweep: Vec::new(),
        }
    }
}

/// The refit decision of the pipeline and the incremental session:
/// `(strategy, predicted_advantage, structure_reused)`. A `forced`
/// strategy wins (NaN advantage). A `reusable` one (a previous sweep the
/// caller judged still valid for this binary Λ) costs only the O(nnz)
/// advantage bound: majority vote below γ, else the stored strategy,
/// reused. Otherwise [`select_model`] decides.
pub fn decide(
    lambda: &LabelMatrix,
    cfg: &OptimizerConfig,
    forced: Option<&ModelingStrategy>,
    reusable: Option<&ModelingStrategy>,
) -> (ModelingStrategy, f64, bool) {
    if let Some(forced) = forced {
        return (forced.clone(), f64::NAN, false);
    }
    if let Some(stored) = reusable {
        let predicted = advantage_upper_bound(lambda, cfg);
        return if predicted < cfg.gamma {
            (ModelingStrategy::MajorityVote, predicted, false)
        } else {
            (stored.clone(), predicted, true)
        };
    }
    let d = select_model(lambda, cfg, &ModelRegistry);
    (d.strategy, d.predicted_advantage, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::{LabelMatrixBuilder, Vote};

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

    #[test]
    fn bound_dominates_true_advantage() {
        // Proposition 2: A~* must upper-bound the realized advantage of
        // the optimally-weighted vote (weights from true accuracies).
        for seed in 0..5 {
            let accs = [0.9, 0.8, 0.65, 0.6, 0.55];
            let (lambda, gold) = planted(2000, &accs, 0.4, seed);
            let w_star: Vec<f64> = accs.iter().map(|&a| 0.5 * (a / (1.0 - a)).ln()).collect();
            let adv = crate::vote::modeling_advantage(&lambda, &w_star, &gold);
            let bound = advantage_upper_bound(&lambda, &OptimizerConfig::default());
            assert!(
                bound + 1e-9 >= adv,
                "seed {seed}: bound {bound:.4} < advantage {adv:.4}"
            );
        }
    }

    #[test]
    fn low_density_chooses_mv() {
        // One vote per point on average, no conflicts to exploit.
        let (lambda, _) = planted(2000, &[0.75, 0.75, 0.75], 0.05, 1);
        let d = choose_strategy(&lambda, &OptimizerConfig::default());
        assert_eq!(d.strategy, ModelingStrategy::MajorityVote);
        assert!(d.predicted_advantage < 0.01);
    }

    #[test]
    fn mid_density_chooses_gm() {
        let accs = [0.9, 0.85, 0.7, 0.6, 0.55, 0.55];
        let (lambda, _) = planted(2000, &accs, 0.4, 2);
        let cfg = OptimizerConfig {
            skip_structure_search: true,
            ..OptimizerConfig::default()
        };
        let d = choose_strategy(&lambda, &cfg);
        assert!(matches!(
            d.strategy,
            ModelingStrategy::GenerativeModel { .. }
        ));
        assert!(d.predicted_advantage >= 0.01);
    }

    #[test]
    fn unanimous_high_density_bounds_small() {
        // 20 identical-accuracy high-density LFs: MV is near optimal, and
        // the bound should reflect a modest possible advantage.
        let accs = vec![0.8; 20];
        let (lambda, _) = planted(1000, &accs, 0.9, 3);
        let bound = advantage_upper_bound(&lambda, &OptimizerConfig::default());
        let sparse = planted(1000, &[0.8; 5], 0.4, 3).0;
        let sparse_bound = advantage_upper_bound(&sparse, &OptimizerConfig::default());
        assert!(
            bound < sparse_bound,
            "high density bound {bound:.4} should be below mid-density {sparse_bound:.4}"
        );
    }

    #[test]
    fn elbow_detects_explosion() {
        // Descending ε, counts exploding at the tail: the point whose
        // neighbor differences are largest is index 3 (|40−2| + |40−300|).
        let sweep = vec![(0.5, 0), (0.4, 1), (0.3, 2), (0.2, 40), (0.1, 300)];
        assert_eq!(elbow_point(&sweep), 3);
        // Degenerate cases.
        assert_eq!(elbow_point(&[(0.5, 0)]), 0);
        assert_eq!(elbow_point(&[]), 0);
    }

    /// Four LFs at mid density plus a duplicate of LF 0 as LF 4.
    fn duplicated_suite() -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(8);
        let mut b = LabelMatrixBuilder::new(1500, 5);
        for i in 0..1500 {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            let mut v0 = 0;
            for j in 0..4 {
                if rng.gen::<f64>() < 0.5 {
                    let v = if rng.gen::<f64>() < 0.75 { y } else { -y };
                    b.set(i, j, v);
                    if j == 0 {
                        v0 = v;
                    }
                }
            }
            if v0 != 0 {
                b.set(i, 4, v0); // duplicate of LF 0
            }
        }
        b.build()
    }

    #[test]
    fn full_algorithm_with_correlated_suite() {
        // Duplicated LFs at mid density: expect GM with the duplicate
        // pair selected at the chosen ε.
        let lambda = duplicated_suite();
        let d = choose_strategy(&lambda, &OptimizerConfig::default());
        match &d.strategy {
            ModelingStrategy::GenerativeModel { correlations, .. } => {
                assert!(
                    correlations.contains(&(0, 4)),
                    "duplicate pair not selected: {correlations:?}"
                );
            }
            other => panic!("expected GM, got {other:?}"),
        }
        assert!(!d.sweep.is_empty());
    }

    #[test]
    fn epsilon_grid_descends_in_eta_steps() {
        assert_eq!(
            epsilon_grid(0.1).unwrap(),
            vec![0.5, 0.4, 0.30000000000000004, 0.2, 0.1]
        );
        // η past 1/2 still gives one grid point.
        assert_eq!(epsilon_grid(0.8).unwrap(), vec![0.8]);
    }

    #[test]
    fn a_bad_eta_skips_the_structure_search() {
        let lambda = duplicated_suite();
        let skip = choose_strategy(
            &lambda,
            &OptimizerConfig {
                skip_structure_search: true,
                ..OptimizerConfig::default()
            },
        );
        for eta in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(epsilon_grid(eta).is_none(), "η = {eta} has a grid");
            let cfg = OptimizerConfig {
                eta,
                ..OptimizerConfig::default()
            };
            let d = choose_strategy(&lambda, &cfg);
            assert_eq!(d.strategy, skip.strategy, "η = {eta}");
            assert!(d.sweep.is_empty(), "η = {eta} ran a sweep");
        }
    }

    #[test]
    fn empty_matrix_is_mv() {
        let lambda = LabelMatrixBuilder::new(0, 3).build();
        let d = choose_strategy(&lambda, &OptimizerConfig::default());
        assert_eq!(d.strategy, ModelingStrategy::MajorityVote);
        assert_eq!(d.predicted_advantage, 0.0);
    }

    #[test]
    fn elbow_edge_cases() {
        // Empty sweep and single point: index 0 by convention (callers
        // never index an empty sweep — the ε grid has ≥ 1 step).
        assert_eq!(elbow_point(&[]), 0);
        assert_eq!(elbow_point(&[(0.3, 7)]), 0);
        // Two points have no interior: still 0.
        assert_eq!(elbow_point(&[(0.3, 1), (0.2, 100)]), 0);
        // Strictly monotone (geometric) growth: the largest combined
        // neighbor difference sits at the next-to-last point.
        let monotone = vec![(0.5, 1), (0.4, 2), (0.3, 4), (0.2, 8), (0.1, 16)];
        assert_eq!(elbow_point(&monotone), 3);
        // Strictly monotone *linear* growth: every interior point ties;
        // the scan keeps the first (a stable, deterministic pick).
        let linear = vec![(0.5, 1), (0.4, 2), (0.3, 3), (0.2, 4)];
        assert_eq!(elbow_point(&linear), 1);
        // A flat sweep never panics and picks an interior point.
        let flat = vec![(0.5, 3), (0.4, 3), (0.3, 3)];
        assert_eq!(elbow_point(&flat), 1);
    }

    #[test]
    fn all_abstain_matrix_is_mv() {
        // Rows exist but no LF ever votes: the advantage bound is
        // exactly 0 (no row can be corrected) and MV is chosen without
        // running the sweep.
        let lambda = LabelMatrixBuilder::new(500, 4).build();
        assert_eq!(lambda.num_points(), 500);
        let d = choose_strategy(&lambda, &OptimizerConfig::default());
        assert_eq!(d.strategy, ModelingStrategy::MajorityVote);
        assert_eq!(d.predicted_advantage, 0.0);
        assert!(d.sweep.is_empty());
    }

    #[test]
    fn big_uncorrelated_matrix_selects_moment_backend() {
        let accs = [0.9, 0.85, 0.7, 0.6, 0.55, 0.55];
        let (lambda, _) = planted(3000, &accs, 0.4, 2);
        let cfg = OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 1000, // scaled down for the test
            ..OptimizerConfig::default()
        };
        let d = choose_strategy(&lambda, &cfg);
        assert_eq!(d.strategy, ModelingStrategy::MomentMatching);
        // Below the scale threshold the exact backend still wins.
        let small = OptimizerConfig {
            moment_min_rows: 100_000,
            ..cfg
        };
        assert!(matches!(
            choose_strategy(&lambda, &small).strategy,
            ModelingStrategy::GenerativeModel { .. }
        ));
    }

    #[test]
    fn select_model_decides_every_cardinality() {
        let cfg = OptimizerConfig::default();
        let registry = ModelRegistry::standard();
        // Binary: exactly Algorithm 1.
        let (lambda, _) = planted(2000, &[0.75, 0.75, 0.75], 0.05, 1);
        let d = select_model(&lambda, &cfg, &registry);
        let want = choose_strategy(&lambda, &cfg);
        assert_eq!(d.strategy, want.strategy);
        assert_eq!(
            d.predicted_advantage.to_bits(),
            want.predicted_advantage.to_bits()
        );
        // Multi-class: the independent generative model, no bound.
        let mut b = LabelMatrixBuilder::with_cardinality(50, 3, 3);
        b.set(0, 0, 1);
        b.set(0, 1, 3);
        let d = select_model(&b.build(), &cfg, &registry);
        assert_eq!(d.strategy, independent_generative());
        assert!(d.predicted_advantage.is_nan());
        assert!(d.sweep.is_empty());
    }
}
