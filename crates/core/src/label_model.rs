//! The label model: one closed enum over the three backends.
//!
//! The paper's central separation is between *label sources* (the LF
//! suite producing Λ) and the *model that denoises them* (producing the
//! probabilistic labels Ỹ). Algorithm 1 picks that model from a fixed
//! menu, so [`LabelModel`] is an enum with one variant per backend — fit,
//! warm refit and plan-aware marginals are one `match` each — and the
//! pipeline, the incremental session, and the serving layer all hold a
//! `LabelModel` value instead of a concrete model.
//!
//! The three backends:
//!
//! * [`MajorityVoteModel`] (`"majority-vote"`) — the zero-cost baseline:
//!   `fit` is a no-op and the posterior is the (plurality) majority
//!   vote, one-hot on a unique winner and uniform on ties/abstains.
//!   What used to be a special case inside the pipeline is now just the
//!   cheapest backend.
//! * [`crate::model::GenerativeModel`] (`"generative"`) — the exact
//!   paper model (§2.2): EM + damped-Newton training of the
//!   accuracy/propensity factors, Gibbs contrastive divergence when
//!   correlations are modeled. Its marginals through the enum are
//!   bit-identical to calling the concrete type directly (the variant
//!   delegates; property-tested in `tests/proptest_model.rs`).
//! * [`MomentModel`] (`"moment"`) — a closed-form method-of-moments
//!   accuracy estimator in the spirit of the original Data Programming
//!   analysis: under the independent model, the *observed* pairwise
//!   agreement rates factor through per-LF accuracies
//!   (`E[agree_{jk}] = 1/K + (K−1)/K · u_j u_k` on balanced classes,
//!   with `u = (K·acc − 1)/(K − 1)`), so each accuracy is recovered
//!   from agreement-rate triplets `u_j² = e_ja e_jb / e_ab` without any
//!   iteration. One statistics pass over Λ (or one pass over the
//!   deduplicated [`snorkel_matrix::PatternIndex`] when a plan is
//!   supplied) replaces the Newton loop — orders of magnitude cheaper
//!   at million-row scale, at the price of a small statistical gap from
//!   the exact MLE that vanishes as `m` grows.
//!
//! The Algorithm-1 optimizer ([`crate::optimizer::select_model`])
//! decides a [`ModelingStrategy`]; [`ModelRegistry::build`] is the one
//! `match` from that strategy to its variant.
//!
//! # Example
//!
//! ```
//! use snorkel_core::label_model::{LabelModel, ModelRegistry};
//! use snorkel_core::model::TrainConfig;
//! use snorkel_core::optimizer::{select_model, OptimizerConfig};
//! use snorkel_matrix::LabelMatrixBuilder;
//!
//! // A tiny binary Λ: two LFs voting +1/−1 on four points.
//! let mut b = LabelMatrixBuilder::new(4, 2);
//! b.set(0, 0, 1);
//! b.set(1, 0, 1);
//! b.set(1, 1, -1);
//! b.set(2, 1, -1);
//! let lambda = b.build();
//!
//! // Let the optimizer pick a strategy, build its backend, fit it, and
//! // read probabilistic labels — the same four calls work for every
//! // backend.
//! let registry = ModelRegistry::standard();
//! let decision = select_model(&lambda, &OptimizerConfig::default(), &registry);
//! let Ok(mut model) =
//!     registry.build(&decision.strategy, lambda.num_lfs(), lambda.cardinality());
//! model.fit(&lambda, None, &TrainConfig::default());
//! let labels = model.marginals(&lambda, None);
//! assert_eq!(labels.len(), 4);
//! assert!(labels.iter().all(|p| (p.iter().sum::<f64>() - 1.0).abs() < 1e-9));
//!
//! // Backend-specific state is one `match` on the variant away.
//! if let LabelModel::Generative(gm) = &model {
//!     assert_eq!(gm.accuracy_weights().len(), 2);
//! }
//! ```

use snorkel_matrix::{LabelMatrix, ShardedMatrix, Vote};

use crate::model::{
    prior_pseudocounts, ClassBalance, FitReport, GenerativeModel, LabelScheme, ModelParams,
    ParamsError, TrainConfig, W_CLAMP,
};
use crate::optimizer::ModelingStrategy;

/// Backend name of [`MajorityVoteModel`].
pub const BACKEND_MAJORITY_VOTE: &str = "majority-vote";
/// Backend name of the exact [`GenerativeModel`].
pub const BACKEND_GENERATIVE: &str = "generative";
/// Backend name of [`MomentModel`].
pub const BACKEND_MOMENT: &str = "moment";

/// A label model: one of the three backends Algorithm 1 chooses from.
/// It turns a label matrix Λ into per-row class posteriors and refits
/// warm after an edit; read backend-specific state (e.g.
/// [`GenerativeModel::implied_accuracies`]) by matching on the variant.
///
/// The `plan` argument of [`fit`](Self::fit) /
/// [`fit_warm`](Self::fit_warm) / [`marginals`](Self::marginals) is an
/// optional prebuilt pattern-deduplicated [`ShardedMatrix`] covering
/// exactly `lambda`; backends exploit it or ignore it. Callers that
/// keep a plan alive across calls (the incremental session, the
/// pipeline) pass it so no index is rebuilt.
///
/// See the [module docs](self) for the backends and a usage example.
#[derive(Clone, Debug)]
pub enum LabelModel {
    /// The unweighted majority vote ([`BACKEND_MAJORITY_VOTE`]).
    MajorityVote(MajorityVoteModel),
    /// The exact generative model ([`BACKEND_GENERATIVE`]).
    Generative(GenerativeModel),
    /// The closed-form method-of-moments estimator ([`BACKEND_MOMENT`]).
    Moment(MomentModel),
}

impl LabelModel {
    /// Stable backend name — the [`ModelingStrategy::backend_name`] of
    /// the strategies that build it and the tag reported by the serving
    /// layer's `STATS`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            LabelModel::MajorityVote(_) => BACKEND_MAJORITY_VOTE,
            LabelModel::Generative(_) => BACKEND_GENERATIVE,
            LabelModel::Moment(_) => BACKEND_MOMENT,
        }
    }

    /// The label scheme this model scores votes under.
    pub fn scheme(&self) -> LabelScheme {
        match self {
            LabelModel::MajorityVote(mv) => mv.scheme,
            LabelModel::Generative(gm) | LabelModel::Moment(MomentModel { inner: gm }) => {
                gm.scheme()
            }
        }
    }

    /// Number of LF columns the model covers.
    pub fn num_lfs(&self) -> usize {
        match self {
            LabelModel::MajorityVote(mv) => mv.n,
            LabelModel::Generative(gm) | LabelModel::Moment(MomentModel { inner: gm }) => {
                gm.num_lfs()
            }
        }
    }

    /// Fit to a label matrix from scratch. With `plan: None` the exact
    /// generative backend, which only trains on a plan, builds
    /// `ShardedMatrix::build(lambda, 0)` for the call (one shard, run on
    /// the caller's thread, below 8 192 rows); the other backends walk
    /// rows.
    pub fn fit(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&ShardedMatrix>,
        cfg: &TrainConfig,
    ) -> FitReport {
        match self {
            LabelModel::MajorityVote(mv) => mv.fit(lambda),
            LabelModel::Generative(gm) => match plan {
                Some(p) => gm.fit_with(lambda, p, cfg),
                None => gm.fit(lambda, cfg),
            },
            LabelModel::Moment(mm) => mm.fit(lambda, plan, cfg),
        }
    }

    /// Refit after an edit, warm-starting from `prev` (a model fitted to
    /// the pre-edit matrix). `changed_cols` lists the columns whose LF
    /// was edited. Only the generative backend reuses a generative
    /// `prev` of its own shape; every other pairing runs a cold
    /// [`fit`](Self::fit), and the returned
    /// [`FitReport::warm_started`] says which path ran.
    pub fn fit_warm(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&ShardedMatrix>,
        cfg: &TrainConfig,
        prev: &LabelModel,
        changed_cols: &[usize],
    ) -> FitReport {
        match (&mut *self, prev) {
            (LabelModel::Generative(gm), LabelModel::Generative(p))
                if p.num_lfs() == gm.num_lfs() && p.scheme() == gm.scheme() =>
            {
                match plan {
                    Some(pl) => gm.fit_warm_with(lambda, pl, cfg, p, changed_cols),
                    None => gm.fit_warm(lambda, cfg, p, changed_cols),
                }
            }
            // Majority vote has nothing to fit and the moment closed form
            // nothing to iterate; a `prev` of another backend or shape
            // has nothing to reuse.
            _ => self.fit(lambda, plan, cfg),
        }
    }

    /// Refit from externally maintained running sufficient statistics,
    /// with **no pass over Λ** — the streaming-ingest hook. A caller
    /// folding each ingested batch into a [`MomentStats`] refits the
    /// moment backend in `O(num_lfs³)` regardless of how many rows have
    /// streamed in. The other backends cannot fit from these statistics
    /// (the exact generative model needs Λ for its EM pass; majority
    /// vote has nothing to fit): they return `None`, and the caller
    /// falls back to a full [`fit`](Self::fit).
    pub fn fit_online(&mut self, stats: &MomentStats, cfg: &TrainConfig) -> Option<FitReport> {
        match self {
            LabelModel::Moment(mm) => Some(mm.fit_from_stats(stats, cfg)),
            LabelModel::MajorityVote(_) | LabelModel::Generative(_) => None,
        }
    }

    /// Whether this backend profits from a pattern-deduplicated plan at
    /// all. One-shot callers (the batch pipeline) skip the plan build
    /// entirely when it returns `false` — the majority-vote backend's
    /// whole labeling pass is one `O(nnz)` walk, so an index build would
    /// cost more than it saves. Callers that maintain a plan anyway
    /// (the incremental session keeps it alive across refreshes) may
    /// still pass one; every backend accepts it.
    pub fn benefits_from_plan(&self) -> bool {
        !matches!(self, LabelModel::MajorityVote(_))
    }

    /// Write the posterior class distribution for one row of votes into
    /// a caller-owned slice of exactly `scheme().num_classes()` elements
    /// — the one per-row kernel. The serving read path calls it directly
    /// on its per-worker probability arena; everything else goes through
    /// the [`posterior`](Self::posterior) wrapper.
    ///
    /// Panics if `out.len() != scheme().num_classes()`.
    pub fn posterior_into(&self, cols: &[u32], votes: &[Vote], out: &mut [f64]) {
        match self {
            LabelModel::MajorityVote(mv) => mv.posterior_into(cols, votes, out),
            LabelModel::Generative(gm) | LabelModel::Moment(MomentModel { inner: gm }) => {
                gm.posterior_into(cols, votes, out)
            }
        }
    }

    /// [`posterior_into`](Self::posterior_into) into a fresh `Vec`.
    pub fn posterior(&self, cols: &[u32], votes: &[Vote]) -> Vec<f64> {
        let mut out = vec![0.0; self.scheme().num_classes()];
        self.posterior_into(cols, votes, &mut out);
        out
    }

    /// Posterior class distributions for every row of `lambda`
    /// (`labels[row][class]`), through the plan when one is supplied.
    pub fn marginals(&self, lambda: &LabelMatrix, plan: Option<&ShardedMatrix>) -> Vec<Vec<f64>> {
        match self {
            LabelModel::MajorityVote(_) => {
                marginals_via(lambda, plan, |cols, votes| self.posterior(cols, votes))
            }
            LabelModel::Generative(gm) | LabelModel::Moment(MomentModel { inner: gm }) => {
                match plan {
                    Some(p) => gm.marginals_with(lambda, p),
                    None => gm.marginals(lambda),
                }
            }
        }
    }

    /// Hard predictions: the MAP class as a vote value; 0 when the
    /// posterior is tied over its top classes (no evidence).
    pub fn predicted_labels(&self, lambda: &LabelMatrix) -> Vec<Vote> {
        let scheme = self.scheme();
        self.marginals(lambda, None)
            .into_iter()
            .map(|post| map_vote(scheme, &post))
            .collect()
    }

    /// An *unfitted* model of the same backend over `col_map.len()`
    /// columns carrying over whatever per-column state survives a
    /// structural suite edit: `col_map[j] = Some(old_j)` maps new column
    /// `j` to the previous model's column `old_j`. The result is the
    /// `prev` for a [`fit_warm`](Self::fit_warm) after adding/removing
    /// LFs. Only the generative backend has per-column state to carry;
    /// the others come back fresh.
    pub fn remapped(&self, col_map: &[Option<usize>]) -> LabelModel {
        let n = col_map.len();
        match self {
            LabelModel::MajorityVote(mv) => {
                LabelModel::MajorityVote(MajorityVoteModel::new(n, mv.scheme))
            }
            LabelModel::Generative(gm) => {
                LabelModel::Generative(GenerativeModel::remapped_from(gm, col_map))
            }
            LabelModel::Moment(mm) => LabelModel::Moment(MomentModel::new(n, mm.inner.scheme())),
        }
    }
}

/// MAP vote of one posterior row: the unique argmax class's vote value,
/// 0 on a tie over the top classes.
pub(crate) fn map_vote(scheme: LabelScheme, post: &[f64]) -> Vote {
    let best = post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let winners: Vec<usize> = (0..post.len())
        .filter(|&c| (post[c] - best).abs() < 1e-12)
        .collect();
    if winners.len() == 1 {
        scheme.vote_of_class(winners[0])
    } else {
        0
    }
}

/// Compute per-row posteriors, once per unique pattern when a plan is
/// supplied (scattering each pattern's posterior back to its rows in
/// shard order), row by row otherwise. The posterior of a row is a pure
/// function of its vote signature for every backend, so both paths are
/// bit-identical.
pub(crate) fn marginals_via<F>(
    lambda: &LabelMatrix,
    plan: Option<&ShardedMatrix>,
    posterior: F,
) -> Vec<Vec<f64>>
where
    F: Fn(&[u32], &[Vote]) -> Vec<f64> + Sync,
{
    match plan {
        None => (0..lambda.num_points())
            .map(|i| {
                let (cols, votes) = lambda.row(i);
                posterior(cols, votes)
            })
            .collect(),
        Some(plan) => {
            let per_shard: Vec<Vec<Vec<f64>>> = plan.map_shards(|idx| {
                let mut posts = vec![Vec::new(); idx.num_slots()];
                for (p, cols, votes, _) in idx.live_patterns() {
                    posts[p] = posterior(cols, votes);
                }
                posts
            });
            let mut out = vec![Vec::new(); lambda.num_points()];
            for (idx, posts) in plan.shards().iter().zip(&per_shard) {
                for row in idx.row_range() {
                    out[row] = posts[idx.pattern_of_row(row)].clone();
                }
            }
            out
        }
    }
}

/// Fold every vote signature of `lambda`, with its multiplicity, into
/// accumulators: one per shard over its unique patterns when a plan is
/// supplied (returned in shard order — merge left to right), a single
/// one over the rows otherwise. Counts of whole rows are exact either
/// way, so statistics gathered through this walk do not depend on the
/// path taken.
pub(crate) fn fold_signatures<A, I, S>(
    lambda: &LabelMatrix,
    plan: Option<&ShardedMatrix>,
    init: I,
    step: S,
) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    S: Fn(&mut A, &[u32], &[Vote], usize) + Sync,
{
    match plan {
        Some(plan) => plan.map_shards(|idx| {
            let mut acc = init();
            for (_, cols, votes, cnt) in idx.live_patterns() {
                step(&mut acc, cols, votes, cnt);
            }
            acc
        }),
        None => {
            let mut acc = init();
            for i in 0..lambda.num_points() {
                let (cols, votes) = lambda.row(i);
                step(&mut acc, cols, votes, 1);
            }
            vec![acc]
        }
    }
}

// ----------------------------------------------------------------------
// Majority-vote backend
// ----------------------------------------------------------------------

/// The unweighted majority vote as a first-class backend: `fit` is free,
/// the posterior is one-hot on the plurality class and uniform on ties
/// and all-abstain rows — exactly the labels the pipeline's old MV
/// special case produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MajorityVoteModel {
    scheme: LabelScheme,
    n: usize,
}

impl MajorityVoteModel {
    /// A majority-vote backend over `n` LFs.
    pub fn new(n: usize, scheme: LabelScheme) -> Self {
        MajorityVoteModel { scheme, n }
    }

    /// Nothing to fit: checks that `lambda` has the model's LF count.
    pub fn fit(&self, lambda: &LabelMatrix) -> FitReport {
        assert_eq!(
            lambda.num_lfs(),
            self.n,
            "matrix has {} LFs but model has {}",
            lambda.num_lfs(),
            self.n
        );
        FitReport {
            epochs: 0,
            final_nll: f64::NAN,
            used_gibbs: false,
            warm_started: false,
        }
    }

    /// The plurality vote of one row written into `out`: one-hot on a
    /// unique winner, uniform on a tie or an all-abstain row.
    ///
    /// Panics if `out.len() != scheme.num_classes()`.
    pub fn posterior_into(&self, _cols: &[u32], votes: &[Vote], out: &mut [f64]) {
        let k = self.scheme.num_classes();
        assert_eq!(out.len(), k, "posterior_into needs {k} elements");
        // Tally into the output slice itself (counts are exact in f64),
        // so no scratch vector is needed.
        out.fill(0.0);
        for &v in votes {
            if let Some(c) = self.scheme.class_of_vote(v) {
                out[c] += 1.0;
            }
        }
        match crate::vote::unique_max(out, 0.0) {
            Some(winner) => {
                out.fill(0.0);
                out[winner] = 1.0;
            }
            None => out.fill(1.0 / k as f64),
        }
    }
}

// ----------------------------------------------------------------------
// Method-of-moments backend
// ----------------------------------------------------------------------

/// Closed-form method-of-moments accuracy estimator (module docs have
/// the identity). The fitted state is held as a [`GenerativeModel`] with
/// moment-estimated weights and no correlation factors, so inference —
/// posteriors, pattern-deduplicated marginals — reuses the exact
/// backend's battle-tested paths; only *fitting* differs: one
/// statistics pass and an `O(n³)` triplet solve replace the EM/Newton
/// loop.
#[derive(Clone, Debug)]
pub struct MomentModel {
    inner: GenerativeModel,
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
        plan: Option<&ShardedMatrix>,
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
        plan: Option<&ShardedMatrix>,
        cfg: &TrainConfig,
    ) {
        let scheme = GenerativeModel::scheme(&self.inner);
        let n = GenerativeModel::num_lfs(&self.inner);

        // ---- The single pass: per-LF and pairwise sufficient stats.
        let mut stats = MomentStats::new(n, scheme);
        for partial in fold_signatures(
            lambda,
            plan,
            || MomentStats::new(n, scheme),
            |s, cols, votes, cnt| s.accumulate(cols, votes, cnt as f64),
        ) {
            stats.merge(&partial);
        }

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

        // ---- Pairwise agreement signal e_jl = (K·p_jl − 1)/(K−1).
        let e = |j: usize, l: usize| -> Option<f64> {
            let (a, b) = (j.min(l), j.max(l));
            let both = stats.both[a * n + b];
            if both < MIN_PAIR_OBS {
                return None;
            }
            Some((kf * (stats.agree[a * n + b] / both) - 1.0) / k1)
        };

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
                estimates.sort_by(f64::total_cmp);
                estimates[estimates.len() / 2].sqrt()
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
/// triangle. One `accumulate` call folds one row in; `merge` adds two
/// accumulator sets; the counts are plain weighted sums, so the order
/// of integer-weighted accumulation never changes the totals
/// (bit-exactly — f64 addition of integers below 2⁵³ is exact).
///
/// This is the streaming primitive behind the online moment model: a
/// caller keeps one `MomentStats` alive, folds each ingested batch's
/// rows in as they arrive, and refits via
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

/// The plain-data image of a [`MomentStats`] — what `snorkel-serve`
/// persists in the snapshot's `STRM` section. Scratch buffers are not
/// carried; [`MomentStats::from_parts`] rebuilds them.
#[derive(Clone, Debug, PartialEq)]
pub struct MomentStatsParts {
    /// Number of LF columns the statistics cover.
    pub num_lfs: usize,
    /// Task cardinality.
    pub cardinality: u8,
    /// Weighted row count.
    pub rows: f64,
    /// Per-LF weighted vote counts (`num_lfs` entries).
    pub votes: Vec<f64>,
    /// Per-class plurality-vote counts (`cardinality` entries).
    pub mv_class: Vec<f64>,
    /// Per-LF plurality-agreement counts (`num_lfs` entries).
    pub agree_mv: Vec<f64>,
    /// Per-LF plurality-covered vote counts (`num_lfs` entries).
    pub total_mv: Vec<f64>,
    /// Upper-triangle co-vote counts (`num_lfs²` entries).
    pub both: Vec<f64>,
    /// Upper-triangle same-class co-vote counts (`num_lfs²` entries).
    pub agree: Vec<f64>,
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

    /// Per-LF weighted vote counts (coverage numerators).
    pub fn vote_counts(&self) -> &[f64] {
        &self.votes
    }

    /// Accumulate every row of `lambda` (the batch recompute the online
    /// path is property-tested against).
    pub fn accumulate_matrix(&mut self, lambda: &LabelMatrix) {
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            self.accumulate(cols, votes, 1.0);
        }
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

    /// Add another pass's accumulators (shard merge, in shard order).
    pub fn merge(&mut self, other: &MomentStats) {
        assert_eq!(self.n, other.n, "merging stats over different LF counts");
        assert_eq!(
            self.scheme, other.scheme,
            "merging stats under different schemes"
        );
        self.rows += other.rows;
        for (dst, src) in [
            (&mut self.votes, &other.votes),
            (&mut self.mv_class, &other.mv_class),
            (&mut self.agree_mv, &other.agree_mv),
            (&mut self.total_mv, &other.total_mv),
            (&mut self.both, &other.both),
            (&mut self.agree, &other.agree),
        ] {
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    /// Export the accumulated counts as plain data (the snapshot
    /// encoding surface).
    pub fn to_parts(&self) -> MomentStatsParts {
        MomentStatsParts {
            num_lfs: self.n,
            cardinality: self.scheme.cardinality(),
            rows: self.rows,
            votes: self.votes.clone(),
            mv_class: self.mv_class.clone(),
            agree_mv: self.agree_mv.clone(),
            total_mv: self.total_mv.clone(),
            both: self.both.clone(),
            agree: self.agree.clone(),
        }
    }

    /// Rebuild from exported parts, validating every length and value
    /// (snapshot decoders hand this untrusted data). The error string
    /// names the violated invariant.
    pub fn from_parts(parts: MomentStatsParts) -> Result<MomentStats, String> {
        if parts.cardinality < 2 {
            return Err(format!("bad cardinality {}", parts.cardinality));
        }
        let scheme = LabelScheme::from_cardinality(parts.cardinality);
        let n = parts.num_lfs;
        let k = scheme.num_classes();
        let Some(pairs) = n.checked_mul(n) else {
            return Err(format!("{n} LFs overflow the pairwise tables"));
        };
        for (name, vec, want) in [
            ("votes", &parts.votes, n),
            ("mv_class", &parts.mv_class, k),
            ("agree_mv", &parts.agree_mv, n),
            ("total_mv", &parts.total_mv, n),
            ("both", &parts.both, pairs),
            ("agree", &parts.agree, pairs),
        ] {
            if vec.len() != want {
                return Err(format!("{name} has {} entries, want {want}", vec.len()));
            }
            if let Some(bad) = vec.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
                return Err(format!("{name} holds a non-count value {bad}"));
            }
        }
        if !(parts.rows.is_finite() && parts.rows >= 0.0) {
            return Err(format!("bad row count {}", parts.rows));
        }
        Ok(MomentStats {
            n,
            scheme,
            rows: parts.rows,
            votes: parts.votes,
            mv_class: parts.mv_class,
            agree_mv: parts.agree_mv,
            total_mv: parts.total_mv,
            both: parts.both,
            agree: parts.agree,
            tally: vec![0; k],
            classes: Vec::new(),
        })
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

// ----------------------------------------------------------------------
// Strategy → backend
// ----------------------------------------------------------------------

/// Builds the backend a [`ModelingStrategy`] selects. The three backends
/// are a closed set — the variants of [`LabelModel`] — so this is one
/// `match`, not a table.
#[derive(Clone, Copy, Debug)]
pub struct ModelRegistry;

impl ModelRegistry {
    /// The builder for the three shipped backends.
    pub fn standard() -> Self {
        ModelRegistry
    }

    /// Build the (unfitted) backend a strategy selects, over `num_lfs`
    /// LFs at the given cardinality; the generative backend carries the
    /// strategy's correlation structure. Never fails: bind it with
    /// `let Ok(model) = …`.
    pub fn build(
        &self,
        strategy: &ModelingStrategy,
        num_lfs: usize,
        cardinality: u8,
    ) -> Result<LabelModel, std::convert::Infallible> {
        let scheme = LabelScheme::from_cardinality(cardinality);
        Ok(match strategy {
            ModelingStrategy::MajorityVote => {
                LabelModel::MajorityVote(MajorityVoteModel::new(num_lfs, scheme))
            }
            ModelingStrategy::MomentMatching => {
                LabelModel::Moment(MomentModel::new(num_lfs, scheme))
            }
            ModelingStrategy::GenerativeModel {
                correlations,
                strengths,
                ..
            } => LabelModel::Generative(
                GenerativeModel::new(num_lfs, scheme)
                    .with_weighted_correlations(correlations, strengths),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::LabelMatrixBuilder;

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
    fn majority_vote_backend_matches_vote_module() {
        let (lambda, _) = planted(400, &[0.8, 0.7, 0.6], 0.5, 3);
        let mut mv = LabelModel::MajorityVote(MajorityVoteModel::new(3, LabelScheme::Binary));
        mv.fit(&lambda, None, &TrainConfig::default());
        let marg = mv.marginals(&lambda, None);
        let votes = crate::vote::majority_vote(&lambda);
        for (p, &v) in marg.iter().zip(&votes) {
            match v {
                1 => assert_eq!(p, &vec![1.0, 0.0]),
                -1 => assert_eq!(p, &vec![0.0, 1.0]),
                _ => assert_eq!(p, &vec![0.5, 0.5]),
            }
        }
        // Plan-deduplicated path is bit-identical.
        let plan = ShardedMatrix::build(&lambda, 3);
        assert_eq!(mv.marginals(&lambda, Some(&plan)), marg);
    }

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
        let plan = ShardedMatrix::build(&lambda, 4);
        let cfg = TrainConfig::default();
        let mut rowwise = MomentModel::new(4, LabelScheme::Binary);
        rowwise.fit(&lambda, None, &cfg);
        let mut sharded = MomentModel::new(4, LabelScheme::Binary);
        sharded.fit(&lambda, Some(&plan), &cfg);
        // Integer-weighted statistics merged in shard order: the counts
        // are exactly equal, so the closed-form weights are too.
        for (a, b) in rowwise
            .accuracy_weights()
            .iter()
            .zip(sharded.accuracy_weights())
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
        stats.accumulate_matrix(&lambda);
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
        // Through the enum's hook, and through merged partial stats.
        let mid = lambda.num_points() / 2;
        let mut first = MomentStats::new(4, LabelScheme::Binary);
        let mut second = MomentStats::new(4, LabelScheme::Binary);
        for i in 0..lambda.num_points() {
            let (cols, votes) = lambda.row(i);
            if i < mid { &mut first } else { &mut second }.accumulate(cols, votes, 1.0);
        }
        first.merge(&second);
        assert_eq!(first, stats);
        let mut hooked = LabelModel::Moment(MomentModel::new(4, LabelScheme::Binary));
        assert!(hooked.fit_online(&first, &cfg).is_some());
        // Backends without an online form decline through the hook.
        let mut mv = LabelModel::MajorityVote(MajorityVoteModel::new(4, LabelScheme::Binary));
        assert!(mv.fit_online(&first, &cfg).is_none());
        let mut gm = LabelModel::Generative(GenerativeModel::new(4, LabelScheme::Binary));
        assert!(gm.fit_online(&first, &cfg).is_none());
    }

    #[test]
    fn moment_stats_from_parts_rejects_overflowing_lf_count() {
        // An LF count whose square overflows `usize` (snapshot bytes are
        // untrusted) is refused before any length is compared.
        let parts = MomentStatsParts {
            num_lfs: 1 << 32,
            cardinality: 2,
            rows: 0.0,
            votes: Vec::new(),
            mv_class: Vec::new(),
            agree_mv: Vec::new(),
            total_mv: Vec::new(),
            both: Vec::new(),
            agree: Vec::new(),
        };
        assert!(MomentStats::from_parts(parts).is_err());
    }

    #[test]
    fn moment_stats_parts_round_trip_and_reject_corruption() {
        let (lambda, _) = planted(500, &[0.8, 0.7, 0.6], 0.5, 29);
        let mut stats = MomentStats::new(3, LabelScheme::Binary);
        stats.accumulate_matrix(&lambda);
        let parts = stats.to_parts();
        let restored = MomentStats::from_parts(parts.clone()).unwrap();
        assert_eq!(restored, stats);

        let mut bad = parts.clone();
        bad.votes.pop();
        assert!(MomentStats::from_parts(bad).is_err());
        let mut bad = parts.clone();
        bad.agree[0] = f64::NAN;
        assert!(MomentStats::from_parts(bad).is_err());
        let mut bad = parts.clone();
        bad.both[0] = -1.0;
        assert!(MomentStats::from_parts(bad).is_err());
        let mut bad = parts;
        bad.cardinality = 1;
        assert!(MomentStats::from_parts(bad).is_err());
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

    #[test]
    fn empty_matrix_fit_is_noop() {
        let lambda = LabelMatrixBuilder::new(0, 3).build();
        let mut mm = MomentModel::new(3, LabelScheme::Binary);
        let report = mm.fit(&lambda, None, &TrainConfig::default());
        assert_eq!(report.epochs, 0);
        let mv = MajorityVoteModel::new(3, LabelScheme::Binary);
        assert_eq!(mv.fit(&lambda).epochs, 0);
    }

    #[test]
    fn warm_start_across_backends_falls_back_to_cold() {
        let (lambda, _) = planted(1500, &[0.85, 0.75, 0.65], 0.5, 13);
        let cfg = TrainConfig::default();
        let mut mv = LabelModel::MajorityVote(MajorityVoteModel::new(3, LabelScheme::Binary));
        mv.fit(&lambda, None, &cfg);

        // Generative warm-started "from" the MV backend = cold fit.
        let mut warm = LabelModel::Generative(GenerativeModel::new(3, LabelScheme::Binary));
        let report = warm.fit_warm(&lambda, None, &cfg, &mv, &[]);
        assert!(!report.warm_started);
        let mut cold = GenerativeModel::new(3, LabelScheme::Binary);
        cold.fit(&lambda, &cfg);
        let LabelModel::Generative(warm) = &warm else {
            unreachable!("fit_warm keeps the variant")
        };
        assert_eq!(cold.accuracy_weights(), warm.accuracy_weights());

        // Same backend: genuinely warm.
        let mut warm2 = LabelModel::Generative(GenerativeModel::new(3, LabelScheme::Binary));
        let report2 = warm2.fit_warm(&lambda, None, &cfg, &LabelModel::Generative(cold), &[]);
        assert!(report2.warm_started);
    }

    #[test]
    fn registry_builds_every_strategy() {
        let registry = ModelRegistry::standard();
        for strategy in [
            ModelingStrategy::MajorityVote,
            ModelingStrategy::MomentMatching,
            ModelingStrategy::GenerativeModel {
                epsilon: 0.0,
                correlations: vec![(0, 2)],
                strengths: vec![1.0],
            },
        ] {
            let Ok(model) = registry.build(&strategy, 4, 2);
            assert_eq!(model.backend_name(), strategy.backend_name());
            assert_eq!(model.num_lfs(), 4);
            // The generative build carries the strategy's correlations.
            if let LabelModel::Generative(gm) = &model {
                assert_eq!(gm.correlations(), &[(0, 2)]);
            }
        }
    }
}
