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
use snorkel_matrix::{LabelMatrix, PatternIndex};

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
/// Returns `(ε, |C(ε)|, report)` triples in the order of `epsilons`
/// (none, and no fit, for an empty `epsilons`).
pub fn structure_sweep(
    lambda: &LabelMatrix,
    epsilons: &[f64],
    base: &StructureConfig,
) -> Vec<(f64, usize, StructureReport)> {
    if epsilons.is_empty() {
        return Vec::new();
    }
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
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    fit_all_targets_on(lambda, cfg, workers)
}

/// [`fit_all_targets`] on a given number of worker threads (the calling
/// thread is one of them). The targets are independent fits, split into
/// contiguous runs and collected in target order, so the result is the
/// same for every worker count.
fn fit_all_targets_on(
    lambda: &LabelMatrix,
    cfg: &StructureConfig,
    workers: usize,
) -> Vec<Vec<f64>> {
    let n = lambda.num_lfs();
    let patterns = PatternIndex::build(lambda);
    let fit_run = |targets: std::ops::Range<usize>| -> Vec<Vec<f64>> {
        let mut scratch = TargetScratch::new(lambda, &patterns);
        targets
            .map(|j| fit_target(lambda, &patterns, j, cfg, &mut scratch))
            .collect()
    };
    let per = n.div_ceil(workers.max(1)).max(1);
    let mut fitted = Vec::with_capacity(n);
    let fit_run = &fit_run;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (per..n)
            .step_by(per)
            .map(|lo| scope.spawn(move || fit_run(lo..(lo + per).min(n))))
            .collect();
        fitted.extend(fit_run(0..per.min(n)));
        for h in spawned {
            fitted.extend(h.join().expect("structure worker panicked"));
        }
    });
    fitted
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

/// Buffers of one worker's [`fit_target`] calls, sized once for the
/// matrix and reused across its targets and their epochs.
struct TargetScratch {
    /// Joint scores over (vote value, class) states.
    joint: Vec<f64>,
    /// Per vote value: propensity plus agreeing correlation weights.
    vote_score: Vec<f64>,
    class_prior: Vec<f64>,
    grad_corr: Vec<f64>,
    /// Per pattern: `p_pos − p_full` of every (non-abstain vote value,
    /// class) state, `K × K` row-major.
    diffs: Vec<f64>,
}

impl TargetScratch {
    fn new(lambda: &LabelMatrix, patterns: &PatternIndex) -> Self {
        let k = LabelScheme::from_cardinality(lambda.cardinality()).num_classes();
        TargetScratch {
            joint: vec![0.0; (k + 1) * k],
            vote_score: vec![0.0; k + 1],
            class_prior: vec![0.0; k],
            grad_corr: vec![0.0; lambda.num_lfs()],
            diffs: vec![0.0; patterns.num_slots() * k * k],
        }
    }
}

/// Fit target LF `j`'s conditional `p(Λ_j | Λ_{−j})` and return its
/// per-other-LF correlation weights.
///
/// The weights move once per epoch (full-batch steps), so within an
/// epoch a row's gradient terms depend only on its vote signature: they
/// are computed once per unique pattern, walking the pattern's votes
/// instead of an `n`-wide row, and then added row by row in matrix
/// order — every accumulator receives the terms, in the order, that a
/// dense row-by-row pass gives it (the `#[cfg(test)]` reference below),
/// so the fitted weights are bit-identical to it.
fn fit_target(
    lambda: &LabelMatrix,
    patterns: &PatternIndex,
    target: usize,
    cfg: &StructureConfig,
    scratch: &mut TargetScratch,
) -> Vec<f64> {
    let n = lambda.num_lfs();
    let scheme = LabelScheme::from_cardinality(lambda.cardinality());
    let k = scheme.num_classes();
    let m = lambda.num_points();
    if m == 0 {
        return vec![0.0; n];
    }
    let target_col = target as u32;
    let TargetScratch {
        joint,
        vote_score,
        class_prior,
        grad_corr,
        diffs,
    } = scratch;

    // Parameters for this target: propensity, accuracy, correlations.
    let mut w_lab = 0.0f64;
    let mut w_acc = cfg.prior_acc_weight;
    let mut w_corr = vec![0.0f64; n];
    let lr = cfg.learning_rate;

    for _epoch in 0..cfg.epochs {
        // Candidate vote values for Λ_j are abstain (index 0) and one
        // vote per class (index `class + 1`).
        for p in 0..patterns.num_slots() {
            let (cols, votes) = patterns.pattern(p);
            let observed = cols
                .binary_search(&target_col)
                .ok()
                .and_then(|at| scheme.class_of_vote(votes[at]))
                .map_or(0, |class| class + 1);

            // Class scores from the *other* LFs under the prior weight,
            // and each vote value's score from the votes agreeing with it.
            class_prior.fill(0.0);
            vote_score[0] = 0.0;
            vote_score[1..].fill(w_lab);
            for (&c, &v) in cols.iter().zip(votes) {
                let jj = c as usize;
                if jj == target {
                    continue;
                }
                if let Some(class) = scheme.class_of_vote(v) {
                    class_prior[class] += cfg.prior_acc_weight;
                    if w_corr[jj] != 0.0 {
                        vote_score[class + 1] += w_corr[jj];
                    }
                }
            }

            // Joint unnormalized log-scores over (v, y).
            for (vi, &s_v) in vote_score.iter().enumerate() {
                for y in 0..k {
                    let mut s = s_v + class_prior[y];
                    if vi == y + 1 {
                        s += w_acc;
                    }
                    joint[vi * k + y] = s;
                }
            }
            let log_z = logsumexp(joint);
            // Positive phase: states consistent with the observed vote.
            let log_p_obs = logsumexp(&joint[observed * k..(observed + 1) * k]);

            // Gradient of log p(observed | rest) = E_pos[φ] − E_full[φ].
            // The abstain value's states touch no parameter.
            for (state, diff) in diffs[p * k * k..(p + 1) * k * k].iter_mut().enumerate() {
                let s = joint[k + state];
                let p_full = (s - log_z).exp();
                let p_pos = if state / k + 1 == observed {
                    (s - log_p_obs).exp()
                } else {
                    0.0
                };
                *diff = p_pos - p_full;
            }
        }

        let mut g_lab = 0.0;
        let mut g_acc = 0.0;
        grad_corr.fill(0.0);
        for i in 0..m {
            let (cols, votes) = lambda.row(i);
            let p = patterns.pattern_of_row(i);
            for (state, &diff) in diffs[p * k * k..(p + 1) * k * k].iter().enumerate() {
                if diff == 0.0 {
                    continue;
                }
                let (class, y) = (state / k, state % k);
                g_lab += diff;
                if class == y {
                    g_acc += diff;
                }
                for (&c, &v) in cols.iter().zip(votes) {
                    if c != target_col && scheme.class_of_vote(v) == Some(class) {
                        grad_corr[c as usize] += diff;
                    }
                }
            }
        }

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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::{LabelMatrixBuilder, Vote};

    /// The dense row-by-row `fit_target` the per-pattern sweep replaced,
    /// body verbatim: the definition of what the sweep must compute.
    fn reference_fit_target(
        lambda: &LabelMatrix,
        target: usize,
        cfg: &StructureConfig,
    ) -> Vec<f64> {
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

    /// Random votes over `n` LFs where LF 1 copies LF 0 on most rows
    /// (so some correlation weights survive the ℓ1 shrink) and LF 2
    /// never votes.
    fn correlated_matrix(
        m: usize,
        n: usize,
        cardinality: u8,
        density: f64,
        seed: u64,
    ) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = LabelScheme::from_cardinality(cardinality);
        let mut b = LabelMatrixBuilder::with_cardinality(m, n, cardinality);
        for i in 0..m {
            let mut first = 0;
            for j in (0..n).filter(|&j| j != 2) {
                let v = if j == 1 && first != 0 && rng.gen::<f64>() < 0.9 {
                    first
                } else if rng.gen::<f64>() < density {
                    scheme.vote_of_class(rng.gen_range(0..cardinality as usize))
                } else {
                    0
                };
                if j == 0 {
                    first = v;
                }
                b.set(i, j, v);
            }
        }
        b.build()
    }

    fn bits(fitted: &[Vec<f64>]) -> Vec<Vec<u64>> {
        fitted
            .iter()
            .map(|w| w.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sweep_matches_the_dense_reference_on_any_worker_count(
            m in 0usize..60,
            n in 3usize..8,
            cardinality in 2u8..5,
            density in 0.05f64..0.7,
            epsilon in 0.001f64..0.2,
            seed in 0u64..1_000_000,
        ) {
            let lambda = correlated_matrix(m, n, cardinality, density, seed);
            let cfg = StructureConfig { epsilon, epochs: 6, ..StructureConfig::default() };
            let want: Vec<Vec<f64>> = (0..n).map(|j| reference_fit_target(&lambda, j, &cfg)).collect();
            for workers in [1, 2, 5] {
                prop_assert_eq!(bits(&fit_all_targets_on(&lambda, &cfg, workers)), bits(&want));
            }
        }
    }

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
    fn empty_epsilon_grid_sweeps_nothing() {
        let lambda = planted_with_duplicates(100, 3, 1, 5);
        assert!(structure_sweep(&lambda, &[], &StructureConfig::default()).is_empty());
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
