//! Dependency-structure learning (paper §3.2, after Bach et al. ICML'17).
//!
//! Users write statistically dependent labeling functions — near-
//! duplicate patterns, LFs over correlated inputs, overlapping knowledge
//! bases — and ignoring those dependencies skews the estimated
//! accuracies (Example 3.1). Structure learning selects which pairwise
//! correlations `(j, k)` to include in the generative model, from the
//! label matrix alone.
//!
//! The estimator is a per-LF ℓ1-regularized *pseudolikelihood*: for each
//! target LF `j` we maximize `Σ_i log p(Λ_ij | Λ_{i,−j})`, marginalizing
//! the latent class. The conditional enumerates `(Λ_j, y)` jointly —
//! `(K+1) × K` states — so the gradient is exact and no sampling is
//! needed; this is what makes structure search orders of magnitude
//! faster than fitting a full generative model per candidate structure
//! (the paper reports 15 seconds vs 45 minutes). The other LFs enter the
//! conditional through a fixed prior accuracy weight `w̄`, the same
//! `(w_min, w̄, w_max) = (0.5, 1.0, 1.5)` prior the optimizer uses.
//!
//! The regularization strength `ε` doubles as the selection threshold: a
//! pair `(j, k)` is returned iff the fitted `|w_corr_{jk}| ≥ ε` in
//! either direction (paper footnote 9). As in the generative model, the
//! correlation feature fires on agreeing *votes* only — joint abstention
//! carries no information about vote correlation and would make every
//! sparse LF pair look dependent.

use snorkel_linalg::math::logsumexp;
use snorkel_matrix::{LabelMatrix, Vote};

use crate::model::LabelScheme;

/// Configuration for one structure-learning pass.
#[derive(Clone, Debug)]
pub struct StructureConfig {
    /// ℓ1 coefficient *and* selection threshold ε.
    pub epsilon: f64,
    /// SGD epochs per target LF.
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Prior accuracy weight w̄ for the non-target LFs.
    pub prior_acc_weight: f64,
}

impl Default for StructureConfig {
    fn default() -> Self {
        StructureConfig {
            epsilon: 0.1,
            epochs: 20,
            learning_rate: 0.2,
            prior_acc_weight: 1.0,
        }
    }
}

/// Result of a structure-learning pass.
#[derive(Clone, Debug)]
pub struct StructureReport {
    /// Selected pairs, `j < k`, sorted.
    pub pairs: Vec<(usize, usize)>,
    /// Max fitted |weight| per selected pair (diagnostics).
    pub weights: Vec<f64>,
    /// The ε used.
    pub epsilon: f64,
}

/// Learn which LF pairs to model as correlated.
pub fn learn_structure(lambda: &LabelMatrix, cfg: &StructureConfig) -> StructureReport {
    let fitted = fit_all_targets(lambda, cfg);
    select_pairs(&fitted, lambda.num_lfs(), cfg.epsilon)
}

/// Sweep many ε values efficiently: the expensive pseudolikelihood fits
/// are done once at the smallest ε (the least-truncating setting), then
/// each ε re-applies only the selection threshold. This mirrors the
/// paper's observation that searching over ε "needs to be performed only
/// once" and is cheap.
///
/// Returns `(ε, |C(ε)|, report)` triples in the order of `epsilons`.
pub fn structure_sweep(
    lambda: &LabelMatrix,
    epsilons: &[f64],
    base: &StructureConfig,
) -> Vec<(f64, usize, StructureReport)> {
    let min_eps = epsilons.iter().cloned().fold(f64::INFINITY, f64::min);
    let fit_cfg = StructureConfig {
        epsilon: min_eps.max(1e-6),
        ..base.clone()
    };
    let fitted = fit_all_targets(lambda, &fit_cfg);
    epsilons
        .iter()
        .map(|&eps| {
            let report = select_pairs(&fitted, lambda.num_lfs(), eps);
            (eps, report.pairs.len(), report)
        })
        .collect()
}

/// Fitted correlation weights: `fitted[j][k]` is the weight of `Λ_k` in
/// target `j`'s conditional (0 on the diagonal).
fn fit_all_targets(lambda: &LabelMatrix, cfg: &StructureConfig) -> Vec<Vec<f64>> {
    let n = lambda.num_lfs();
    (0..n).map(|j| fit_target(lambda, j, cfg)).collect()
}

fn select_pairs(fitted: &[Vec<f64>], n: usize, epsilon: f64) -> StructureReport {
    let mut pairs = Vec::new();
    let mut weights = Vec::new();
    for j in 0..n {
        for k in (j + 1)..n {
            let w = fitted[j][k].abs().max(fitted[k][j].abs());
            if w >= epsilon {
                pairs.push((j, k));
                weights.push(w);
            }
        }
    }
    StructureReport {
        pairs,
        weights,
        epsilon,
    }
}

/// Fit target LF `j`'s conditional `p(Λ_j | Λ_{−j})` and return its
/// per-other-LF correlation weights.
fn fit_target(lambda: &LabelMatrix, target: usize, cfg: &StructureConfig) -> Vec<f64> {
    let n = lambda.num_lfs();
    let scheme = LabelScheme::from_cardinality(lambda.cardinality());
    let k = scheme.num_classes();
    let m = lambda.num_points();
    if m == 0 {
        return vec![0.0; n];
    }

    // Parameters for this target: propensity, accuracy, correlations.
    let mut w_lab = 0.0f64;
    let mut w_acc = cfg.prior_acc_weight;
    let mut w_corr = vec![0.0f64; n];

    // Candidate vote values for Λ_j: abstain + one vote per class.
    let vote_values: Vec<Vote> = std::iter::once(0)
        .chain((0..k).map(|c| scheme.vote_of_class(c)))
        .collect();
    let nv = vote_values.len();

    // Dense row buffer.
    let mut row = vec![0 as Vote; n];
    // Joint scores over (vote value, class) states.
    let mut joint = vec![0.0f64; nv * k];
    let mut grad_corr = vec![0.0f64; n];
    let lr_per_epoch = cfg.learning_rate;

    for _epoch in 0..cfg.epochs {
        let mut g_lab = 0.0;
        let mut g_acc = 0.0;
        grad_corr.iter_mut().for_each(|g| *g = 0.0);

        for i in 0..m {
            let (cols, votes) = lambda.row(i);
            row.iter_mut().for_each(|v| *v = 0);
            for (&c, &v) in cols.iter().zip(votes) {
                row[c as usize] = v;
            }
            let observed = row[target];

            // Class scores from the *other* LFs under the prior weight.
            let mut class_prior = vec![0.0f64; k];
            for (&c, &v) in cols.iter().zip(votes) {
                let jj = c as usize;
                if jj == target {
                    continue;
                }
                if let Some(cl) = scheme.class_of_vote(v) {
                    class_prior[cl] += cfg.prior_acc_weight;
                }
            }

            // Joint unnormalized log-scores over (v, y).
            for (vi, &v) in vote_values.iter().enumerate() {
                let mut s_v = 0.0;
                if v != 0 {
                    s_v += w_lab;
                }
                for (jj, &other) in row.iter().enumerate() {
                    if jj == target || w_corr[jj] == 0.0 {
                        continue;
                    }
                    if v != 0 && v == other {
                        s_v += w_corr[jj];
                    }
                }
                for y in 0..k {
                    let mut s = s_v + class_prior[y];
                    if scheme.class_of_vote(v) == Some(y) {
                        s += w_acc;
                    }
                    joint[vi * k + y] = s;
                }
            }
            let log_z = logsumexp(&joint);

            // Positive phase: states consistent with the observed vote.
            let obs_vi = vote_values
                .iter()
                .position(|&v| v == observed)
                .expect("observed vote is a candidate value");
            let obs_states = &joint[obs_vi * k..(obs_vi + 1) * k];
            let log_p_obs = logsumexp(obs_states);

            // Gradient of log p(observed | rest) = E_pos[φ] − E_full[φ].
            for (vi, &v) in vote_values.iter().enumerate() {
                for y in 0..k {
                    let p_full = (joint[vi * k + y] - log_z).exp();
                    let p_pos = if vi == obs_vi {
                        (joint[vi * k + y] - log_p_obs).exp()
                    } else {
                        0.0
                    };
                    let diff = p_pos - p_full;
                    if diff == 0.0 {
                        continue;
                    }
                    if v != 0 {
                        g_lab += diff;
                        if scheme.class_of_vote(v) == Some(y) {
                            g_acc += diff;
                        }
                    }
                    for (jj, &other) in row.iter().enumerate() {
                        if jj == target {
                            continue;
                        }
                        if v != 0 && v == other {
                            grad_corr[jj] += diff;
                        }
                    }
                }
            }
        }

        let lr = lr_per_epoch;
        let mf = m as f64;
        w_lab += lr * g_lab / mf;
        w_acc += lr * g_acc / mf;
        for jj in 0..n {
            if jj == target {
                continue;
            }
            let updated = w_corr[jj] + lr * grad_corr[jj] / mf;
            // Truncated-gradient ℓ1 (soft threshold by ε·lr).
            let shrink = cfg.epsilon * lr;
            w_corr[jj] = if updated > shrink {
                updated - shrink
            } else if updated < -shrink {
                updated + shrink
            } else {
                0.0
            };
        }
    }
    w_corr[target] = 0.0;
    w_corr
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::LabelMatrixBuilder;

    /// n independent LFs plus `dup` exact duplicates of LF 0.
    fn planted_with_duplicates(m: usize, n_indep: usize, dup: usize, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = n_indep + dup;
        let mut b = LabelMatrixBuilder::new(m, n);
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            let mut first_vote = 0;
            for j in 0..n_indep {
                if rng.gen::<f64>() < 0.7 {
                    let v = if rng.gen::<f64>() < 0.75 { y } else { -y };
                    b.set(i, j, v);
                    if j == 0 {
                        first_vote = v;
                    }
                }
            }
            for d in 0..dup {
                if first_vote != 0 {
                    b.set(i, n_indep + d, first_vote);
                }
            }
        }
        b.build()
    }

    #[test]
    fn finds_planted_duplicates() {
        let lambda = planted_with_duplicates(1200, 4, 2, 3);
        // LFs 4 and 5 are copies of LF 0.
        let report = learn_structure(&lambda, &StructureConfig::default());
        let has = |a: usize, b: usize| report.pairs.contains(&(a.min(b), a.max(b)));
        assert!(has(0, 4), "pair (0,4) missing: {:?}", report.pairs);
        assert!(has(0, 5), "pair (0,5) missing: {:?}", report.pairs);
        assert!(has(4, 5), "pair (4,5) missing: {:?}", report.pairs);
        // Independent pairs must NOT be selected.
        assert!(!has(1, 2), "false positive (1,2): {:?}", report.pairs);
        assert!(!has(2, 3), "false positive (2,3): {:?}", report.pairs);
    }

    #[test]
    fn epsilon_is_monotone_in_selection_count() {
        let lambda = planted_with_duplicates(800, 4, 2, 9);
        let sweep = structure_sweep(
            &lambda,
            &[0.02, 0.05, 0.1, 0.2, 0.4],
            &StructureConfig::default(),
        );
        for w in sweep.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "larger ε must select fewer or equal pairs: {:?}",
                sweep.iter().map(|(e, c, _)| (*e, *c)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn independent_lfs_select_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = LabelMatrixBuilder::new(1000, 5);
        for i in 0..1000 {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            for j in 0..5 {
                if rng.gen::<f64>() < 0.5 {
                    let v = if rng.gen::<f64>() < 0.8 { y } else { -y };
                    b.set(i, j, v);
                }
            }
        }
        let report = learn_structure(&b.build(), &StructureConfig::default());
        assert!(
            report.pairs.len() <= 1,
            "independent LFs selected {:?}",
            report.pairs
        );
    }

    #[test]
    fn empty_matrix_selects_nothing() {
        let lambda = LabelMatrixBuilder::new(0, 3).build();
        let report = learn_structure(&lambda, &StructureConfig::default());
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn weights_parallel_pairs() {
        let lambda = planted_with_duplicates(800, 3, 1, 5);
        let report = learn_structure(&lambda, &StructureConfig::default());
        assert_eq!(report.pairs.len(), report.weights.len());
        for &w in &report.weights {
            assert!(w >= report.epsilon);
        }
    }
}
