//! The method-of-moments backend: [`MomentModel`] and the running
//! sufficient statistics it solves from ([`MomentStats`]). The
//! estimator is described in the [`crate::label_model`] module docs,
//! which re-export these types.

use snorkel_matrix::{LabelMatrix, PatternIndex, Vote};

use crate::label_model::fold_signatures;
use crate::model::{
    prior_pseudocounts, ClassBalance, FitReport, GenerativeModel, LabelScheme, ModelParams,
    ParamsError, TrainConfig, W_CLAMP,
};

/// Closed-form method-of-moments accuracy estimator (module docs have
/// the identity). The fitted state is held as a [`GenerativeModel`] with
/// moment-estimated weights and no correlation factors, so inference —
/// posteriors, pattern-deduplicated marginals — reuses the exact
/// backend's battle-tested paths; only *fitting* differs: one
/// statistics pass and an `O(n³)` triplet solve replace the EM/Newton
/// loop.
#[derive(Clone, Debug)]
pub struct MomentModel {
    pub(crate) inner: GenerativeModel,
}

/// Minimum weighted co-vote count for a pair's agreement rate to enter
/// the triplet solve — below this the rate is sampling noise.
const MIN_PAIR_OBS: f64 = 8.0;

/// Minimum |e_ab| for a pair to serve as a triplet denominator.
const MIN_DENOM: f64 = 1e-4;

impl MomentModel {
    /// An unfitted moment backend over `n` LFs.
    pub fn new(n: usize, scheme: LabelScheme) -> Self {
        MomentModel {
            inner: GenerativeModel::new(n, scheme),
        }
    }

    /// Rebuild from exported parameters (the snapshot decoder's path).
    pub fn from_params(params: ModelParams) -> Result<MomentModel, ParamsError> {
        Ok(MomentModel {
            inner: GenerativeModel::from_params(params)?,
        })
    }

    /// Export the fitted parameters (correlation arrays always empty).
    pub fn to_params(&self) -> ModelParams {
        self.inner.to_params()
    }

    /// Implied LF accuracies (same transform as the exact backend).
    pub fn implied_accuracies(&self) -> Vec<f64> {
        self.inner.implied_accuracies()
    }

    /// The moment-estimated accuracy weights (log-odds scale).
    pub fn accuracy_weights(&self) -> &[f64] {
        self.inner.accuracy_weights()
    }

    /// Fit from scratch: one statistics pass over Λ (over the plan's
    /// unique patterns when one is supplied) and the closed-form solve.
    /// An empty matrix leaves the model unfitted.
    pub fn fit(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&PatternIndex>,
        cfg: &TrainConfig,
    ) -> FitReport {
        let n = self.inner.num_lfs();
        assert_eq!(
            lambda.num_lfs(),
            n,
            "matrix has {} LFs but model has {n}",
            lambda.num_lfs()
        );
        if lambda.num_points() == 0 {
            return FitReport {
                epochs: 0,
                final_nll: 0.0,
                used_gibbs: false,
                warm_started: false,
            };
        }
        self.fit_closed_form(lambda, plan, cfg);
        FitReport {
            epochs: 1,
            final_nll: f64::NAN,
            used_gibbs: false,
            warm_started: false,
        }
    }

    /// One statistics pass + closed-form solve. See the module docs for
    /// the estimator; this is the whole training loop.
    fn fit_closed_form(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&PatternIndex>,
        cfg: &TrainConfig,
    ) {
        // ---- The single pass: per-LF and pairwise sufficient stats.
        let stats =
            MomentStats::from_signatures(lambda, plan, GenerativeModel::scheme(&self.inner));
        self.solve_from_stats(&stats, cfg);
    }

    /// The closed-form solve over already-accumulated sufficient
    /// statistics: `O(n³)` triplet medians, no pass over Λ. This is the
    /// online fast path — a caller maintaining a running [`MomentStats`]
    /// across ingested batches refits in time independent of the row
    /// count. Identical arithmetic to the batch path:
    /// [`fit`](Self::fit) is exactly "accumulate, then this".
    fn solve_from_stats(&mut self, stats: &MomentStats, cfg: &TrainConfig) {
        let scheme = stats.scheme();
        let n = stats.num_lfs();
        assert_eq!(
            n,
            GenerativeModel::num_lfs(&self.inner),
            "stats cover {n} LFs but model has {}",
            GenerativeModel::num_lfs(&self.inner)
        );
        assert_eq!(
            scheme,
            GenerativeModel::scheme(&self.inner),
            "stats scheme disagrees with the model's"
        );
        let k = scheme.num_classes();
        let kf = k as f64;
        let k1 = kf - 1.0;
        // Weighted row count: exact (integer-valued) for both the batch
        // pass and the running online totals, so `m` here equals
        // `lambda.num_points()` on the batch path bit-for-bit.
        let m = stats.rows();

        // ---- Pairwise agreement signal e_jl = (K·p_jl − 1)/(K−1), one
        // symmetric table computed before the O(n³) triplet loop reads it.
        let mut e_table: Vec<Option<f64>> = vec![None; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let both = stats.both[a * n + b];
                if both >= MIN_PAIR_OBS {
                    let e_ab = Some((kf * (stats.agree[a * n + b] / both) - 1.0) / k1);
                    e_table[a * n + b] = e_ab;
                    e_table[b * n + a] = e_ab;
                }
            }
        }
        let e = |j: usize, l: usize| e_table[j * n + l];

        // ---- Per-LF accuracy from triplets (median over all valid
        // (a, b) partners), with MV-agreement fallback and sign.
        let (alpha_agree, alpha_dis, _) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let prior_strength = alpha_agree + alpha_dis;
        let prior_acc = alpha_agree / prior_strength;
        let mut w_acc = vec![0.0f64; n];
        let mut w_lab = vec![0.0f64; n];
        let mut estimates: Vec<f64> = Vec::new();
        for j in 0..n {
            estimates.clear();
            for a in 0..n {
                if a == j {
                    continue;
                }
                let Some(e_ja) = e(j, a) else { continue };
                for b in (a + 1)..n {
                    if b == j {
                        continue;
                    }
                    let (Some(e_jb), Some(e_ab)) = (e(j, b), e(a, b)) else {
                        continue;
                    };
                    if e_ab.abs() < MIN_DENOM {
                        continue;
                    }
                    estimates.push((e_ja * e_jb / e_ab).clamp(0.0, 1.0));
                }
            }
            let u = if estimates.is_empty() {
                // Too few informative partners (n < 3, sparse overlap):
                // fall back to the agreement rate with the plurality
                // vote, shrunk toward the prior.
                let a_mv = (stats.agree_mv[j] + prior_strength * prior_acc)
                    / (stats.total_mv[j] + prior_strength);
                ((kf * a_mv - 1.0) / k1).clamp(0.0, 1.0)
            } else {
                let mid = estimates.len() / 2;
                let (_, median, _) = estimates.select_nth_unstable_by(mid, f64::total_cmp);
                median.sqrt()
            };
            // Triplets only pin |u|; the sign comes from which side of
            // chance the LF's agreement with the plurality vote falls.
            // Applied unconditionally — with `clamp_nonadversarial` set,
            // the `w < 0` floor below turns the negative weight into 0,
            // matching the exact backend's clamp semantics (skipping the
            // sign would instead *trust* the adversarial LF at +|u|).
            let adversarial = stats.total_mv[j] >= MIN_PAIR_OBS
                && stats.agree_mv[j] / stats.total_mv[j] < 1.0 / kf;
            let u_signed = if adversarial { -u } else { u };
            // Map back to an accuracy, shrink toward the prior with the
            // same pseudocount mass the exact path uses, and convert to
            // the log-odds weight scale.
            let acc_raw = (1.0 + k1 * u_signed) / kf;
            let acc = ((stats.votes[j] * acc_raw + prior_strength * prior_acc)
                / (stats.votes[j] + prior_strength))
                .clamp(0.02, 0.98);
            let mut w = (acc * k1 / (1.0 - acc)).ln().clamp(-W_CLAMP, W_CLAMP);
            if cfg.clamp_nonadversarial && w < 0.0 {
                w = 0.0;
            }
            w_acc[j] = w;
            // Propensity from observed coverage (same closed form the
            // exact path initializes with).
            let c = ((stats.votes[j] + 0.5) / (m + 1.0)).clamp(1e-4, 1.0 - 1e-4);
            let s = c / (1.0 - c);
            w_lab[j] = (s.ln() - (w_acc[j].exp() + k1).ln()).clamp(-W_CLAMP, W_CLAMP);
        }

        // ---- Class balance per the configured policy (mirrors the
        // exact backend so posteriors are comparable).
        let b_class = match &cfg.class_balance {
            ClassBalance::Uniform => vec![0.0; k],
            ClassBalance::Fixed(p) => {
                assert_eq!(p.len(), k, "class balance needs one entry per class");
                p.iter().map(|&pc| pc.max(1e-3).ln()).collect()
            }
            ClassBalance::FromMajorityVote => {
                let counts: Vec<f64> = stats.mv_class.iter().map(|&c| c + 1.0).collect();
                let total: f64 = counts.iter().sum();
                counts.iter().map(|&c| (c / total).ln()).collect()
            }
        };

        self.inner = GenerativeModel::from_params(ModelParams {
            cardinality: scheme.cardinality(),
            num_lfs: n,
            w_lab,
            w_acc,
            corr_pairs: Vec::new(),
            w_corr: Vec::new(),
            corr_strength: Vec::new(),
            b_class,
        })
        .expect("moment weights are clamped finite by construction");
    }

    /// Refit from running sufficient statistics without touching Λ —
    /// the streaming fast path. Produces bit-identical weights to a
    /// cold [`fit`](Self::fit) over the matrix whose rows were
    /// accumulated into `stats` (same arithmetic, same order for
    /// integer-weighted counts), in time independent of the row count.
    ///
    /// Panics if the statistics' shape or scheme disagree with the
    /// model's. Statistics over zero rows leave the model unfitted
    /// (mirroring the empty-matrix `fit` no-op).
    pub fn fit_from_stats(&mut self, stats: &MomentStats, cfg: &TrainConfig) -> FitReport {
        if stats.rows() == 0.0 {
            return FitReport {
                epochs: 0,
                final_nll: 0.0,
                used_gibbs: false,
                warm_started: false,
            };
        }
        self.solve_from_stats(stats, cfg);
        FitReport {
            epochs: 1,
            final_nll: f64::NAN,
            used_gibbs: false,
            warm_started: true,
        }
    }
}

/// Sufficient statistics of the moment backend: per-LF vote counts,
/// plurality-agreement counts, and the pairwise co-vote/agreement upper
/// triangle. One `accumulate` call folds one row (or one pattern with
/// its multiplicity) in; the counts are plain weighted sums, so the
/// order of integer-weighted accumulation never changes the totals
/// (bit-exactly — f64 addition of integers below 2⁵³ is exact).
///
/// This is the streaming primitive behind the online moment model: a
/// caller seeds one `MomentStats` from Λ's pattern index
/// ([`from_signatures`](Self::from_signatures)), folds each ingested
/// batch's rows in as they arrive, and refits via
/// [`MomentModel::fit_from_stats`] without ever re-reading Λ. The
/// invariant that running totals equal a single batch recompute over
/// the same rows is property-tested in `crates/stream`.
#[derive(Clone, Debug)]
pub struct MomentStats {
    n: usize,
    scheme: LabelScheme,
    /// Weighted row count (the `m` of the closed-form solve).
    rows: f64,
    /// Per-LF weighted vote counts.
    votes: Vec<f64>,
    /// Per-class plurality-vote counts (class-balance estimate).
    mv_class: Vec<f64>,
    /// Per-LF agreements with the row's plurality class.
    agree_mv: Vec<f64>,
    /// Per-LF votes on rows that have a plurality class.
    total_mv: Vec<f64>,
    /// Upper-triangle co-vote counts, flattened `a * n + b` with `a < b`.
    both: Vec<f64>,
    /// Upper-triangle same-class co-vote counts.
    agree: Vec<f64>,
    /// Per-row scratch (class tally), reused across `accumulate` calls —
    /// the statistics pass runs once per row at deployment scale, so it
    /// must not allocate per row.
    tally: Vec<usize>,
    /// Per-row scratch: the row's `(lf, class)` voters.
    classes: Vec<(usize, usize)>,
}

impl MomentStats {
    /// Empty accumulators over `n` LFs under `scheme`.
    pub fn new(n: usize, scheme: LabelScheme) -> Self {
        let k = scheme.num_classes();
        MomentStats {
            n,
            scheme,
            rows: 0.0,
            votes: vec![0.0; n],
            mv_class: vec![0.0; k],
            agree_mv: vec![0.0; n],
            total_mv: vec![0.0; n],
            both: vec![0.0; n * n],
            agree: vec![0.0; n * n],
            tally: vec![0; k],
            classes: Vec::new(),
        }
    }

    /// The statistics of every row of `lambda`, folded over the
    /// pattern index's live signatures weighted by their row counts
    /// (row by row when `plan` is `None`). The one statistics pass:
    /// [`MomentModel::fit`] and the streaming plane's rebuilds both
    /// come through here, and integer-weighted sums make the result
    /// bit-identical to folding the same rows one at a time.
    pub fn from_signatures(
        lambda: &LabelMatrix,
        plan: Option<&PatternIndex>,
        scheme: LabelScheme,
    ) -> MomentStats {
        fold_signatures(
            lambda,
            plan,
            MomentStats::new(lambda.num_lfs(), scheme),
            |s, cols, votes, cnt| s.accumulate(cols, votes, cnt as f64),
        )
    }

    /// Number of LF columns the statistics cover.
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// The label scheme the statistics were accumulated under.
    pub fn scheme(&self) -> LabelScheme {
        self.scheme
    }

    /// Weighted row count folded in so far.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Fold one row (or one pattern with multiplicity `w`) in.
    pub fn accumulate(&mut self, cols: &[u32], votes: &[Vote], w: f64) {
        let scheme = self.scheme;
        self.rows += w;
        let mut classes = std::mem::take(&mut self.classes);
        classes.clear();
        for (&c, &v) in cols.iter().zip(votes) {
            let j = c as usize;
            self.votes[j] += w;
            if let Some(class) = scheme.class_of_vote(v) {
                classes.push((j, class));
            }
        }
        if let Some(mv) = crate::vote::plurality_class(scheme, votes, &mut self.tally) {
            self.mv_class[mv] += w;
            for &(j, class) in &classes {
                self.total_mv[j] += w;
                if class == mv {
                    self.agree_mv[j] += w;
                }
            }
        }
        // Pairwise agreement among the row's voters. Row columns are
        // sorted ascending, so `j < l` holds and the upper triangle
        // suffices.
        for (x, &(j, cj)) in classes.iter().enumerate() {
            for &(l, cl) in classes.iter().skip(x + 1) {
                self.both[j * self.n + l] += w;
                if cj == cl {
                    self.agree[j * self.n + l] += w;
                }
            }
        }
        self.classes = classes;
    }
}

impl PartialEq for MomentStats {
    /// Bit-exact equality of the accumulated counts (scratch buffers
    /// excluded) — what the online-equals-batch property asserts.
    fn eq(&self, other: &Self) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.n == other.n
            && self.scheme == other.scheme
            && self.rows.to_bits() == other.rows.to_bits()
            && bits(&self.votes) == bits(&other.votes)
            && bits(&self.mv_class) == bits(&other.mv_class)
            && bits(&self.agree_mv) == bits(&other.agree_mv)
            && bits(&self.total_mv) == bits(&other.total_mv)
            && bits(&self.both) == bits(&other.both)
            && bits(&self.agree) == bits(&other.agree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label_model::tests::planted;
    use crate::label_model::{LabelModel, MajorityVoteModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::LabelMatrixBuilder;

    #[test]
    fn moment_recovers_planted_accuracies() {
        let accs = [0.9, 0.8, 0.7, 0.6, 0.55];
        let (lambda, _) = planted(8000, &accs, 0.6, 7);
        let mut mm = MomentModel::new(5, LabelScheme::Binary);
        mm.fit(&lambda, None, &TrainConfig::default());
        let implied = mm.implied_accuracies();
        for (j, &a) in accs.iter().enumerate() {
            assert!(
                (implied[j] - a).abs() < 0.08,
                "LF{j}: implied {:.3} vs true {a}",
                implied[j]
            );
        }
        // The closed form is a consistent but noisier estimator than the
        // MLE: demand the ordering only across well-separated LFs
        // (≥ 0.1 true-accuracy gap).
        assert!(implied[0] > implied[2] && implied[2] > implied[4]);
    }

    #[test]
    fn moment_plan_pass_matches_rowwise_pass() {
        let (lambda, _) = planted(3000, &[0.85, 0.75, 0.65, 0.6], 0.5, 11);
        let plan = PatternIndex::build(&lambda);
        let cfg = TrainConfig::default();
        let mut rowwise = MomentModel::new(4, LabelScheme::Binary);
        rowwise.fit(&lambda, None, &cfg);
        let mut deduped = MomentModel::new(4, LabelScheme::Binary);
        deduped.fit(&lambda, Some(&plan), &cfg);
        // Integer-weighted statistics: the counts are exactly equal, so
        // the closed-form weights are too.
        for (a, b) in rowwise
            .accuracy_weights()
            .iter()
            .zip(deduped.accuracy_weights())
        {
            assert!((a - b).abs() < 1e-12, "weights diverged: {a} vs {b}");
        }
    }

    #[test]
    fn moment_detects_adversarial_lf() {
        let (lambda, _) = planted(6000, &[0.9, 0.85, 0.2], 0.8, 17);
        let mut mm = MomentModel::new(3, LabelScheme::Binary);
        mm.fit(&lambda, None, &TrainConfig::default());
        assert!(
            mm.accuracy_weights()[2] < 0.0,
            "adversarial LF not detected: {:?}",
            mm.accuracy_weights()
        );
        // With the non-adversarial clamp it floors at exactly zero —
        // the same semantics as the exact backend's clamp (a positive
        // weight here would mean the sign flip was skipped and the
        // adversarial LF is being *trusted*).
        let mut clamped = MomentModel::new(3, LabelScheme::Binary);
        clamped.fit(
            &lambda,
            None,
            &TrainConfig {
                clamp_nonadversarial: true,
                ..TrainConfig::default()
            },
        );
        assert_eq!(clamped.accuracy_weights()[2], 0.0);
        assert!(clamped.accuracy_weights()[0] > 0.0);
    }

    #[test]
    fn moment_multiclass_recovery() {
        let k = 3u8;
        let scheme = LabelScheme::MultiClass(k);
        let mut rng = StdRng::seed_from_u64(21);
        let m = 9000;
        let accs = [0.85, 0.7, 0.55, 0.8, 0.65];
        let mut b = LabelMatrixBuilder::with_cardinality(m, accs.len(), k);
        for i in 0..m {
            let y = rng.gen_range(0..k as usize);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < 0.7 {
                    let class = if rng.gen::<f64>() < acc {
                        y
                    } else {
                        let mut c = rng.gen_range(0..(k as usize - 1));
                        if c >= y {
                            c += 1;
                        }
                        c
                    };
                    b.set(i, j, scheme.vote_of_class(class));
                }
            }
        }
        let lambda = b.build();
        let mut mm = MomentModel::new(accs.len(), scheme);
        mm.fit(&lambda, None, &TrainConfig::default());
        let implied = mm.implied_accuracies();
        for (j, &a) in accs.iter().enumerate() {
            assert!(
                (implied[j] - a).abs() < 0.1,
                "LF{j}: implied {:.3} vs true {a}",
                implied[j]
            );
        }
    }

    #[test]
    fn online_stats_solve_matches_cold_fit_bitwise() {
        let (lambda, _) = planted(4000, &[0.85, 0.75, 0.65, 0.6], 0.5, 23);
        let cfg = TrainConfig::default();
        let mut cold = MomentModel::new(4, LabelScheme::Binary);
        cold.fit(&lambda, None, &cfg);
        // The same rows folded into a running accumulator, then the
        // stats-only solve: weights must match the cold fit bit for bit.
        let mut stats = MomentStats::new(4, LabelScheme::Binary);
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            stats.accumulate(cols, votes, 1.0);
        }
        assert_eq!(
            stats,
            MomentStats::from_signatures(
                &lambda,
                Some(&PatternIndex::build(&lambda)),
                LabelScheme::Binary
            ),
            "the index fold equals the row walk bit for bit"
        );
        assert_eq!(stats.rows(), lambda.num_points() as f64);
        let mut online = MomentModel::new(4, LabelScheme::Binary);
        let report = online.fit_from_stats(&stats, &cfg);
        assert_eq!(report.epochs, 1);
        assert!(report.warm_started);
        for (a, b) in cold
            .accuracy_weights()
            .iter()
            .zip(online.accuracy_weights())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "weights diverged: {a} vs {b}");
        }
        // Through the enum's hook.
        let mut hooked = LabelModel::Moment(MomentModel::new(4, LabelScheme::Binary));
        assert!(hooked.fit_online(&stats, &cfg).is_some());
        // Backends without an online form decline through the hook.
        let mut mv = LabelModel::MajorityVote(MajorityVoteModel::new(4, LabelScheme::Binary));
        assert!(mv.fit_online(&stats, &cfg).is_none());
        let mut gm = LabelModel::Generative(GenerativeModel::new(4, LabelScheme::Binary));
        assert!(gm.fit_online(&stats, &cfg).is_none());
    }

    #[test]
    fn moment_few_lfs_falls_back_gracefully() {
        // Two LFs: no triplets exist; the MV-agreement fallback must
        // still produce a usable (finite, ordered) model.
        let (lambda, _) = planted(2000, &[0.9, 0.6], 0.7, 5);
        let mut mm = MomentModel::new(2, LabelScheme::Binary);
        mm.fit(&lambda, None, &TrainConfig::default());
        assert!(mm.accuracy_weights().iter().all(|w| w.is_finite()));
    }
}
