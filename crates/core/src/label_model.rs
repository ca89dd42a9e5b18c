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
//! The Algorithm-1 optimizer ([`crate::optimizer::decide`]) decides a
//! [`ModelingStrategy`]; [`ModelRegistry::build`] is the one `match`
//! from that strategy to its variant, called by
//! [`crate::pipeline::fit_and_label`].
//!
//! # Example
//!
//! ```
//! use snorkel_core::label_model::LabelModel;
//! use snorkel_core::model::TrainConfig;
//! use snorkel_core::optimizer::{decide, OptimizerConfig};
//! use snorkel_core::pipeline::fit_and_label;
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
//! // Let the optimizer pick a strategy, then build, fit and label with
//! // its backend — the same two calls work for every backend.
//! let (strategy, _, _) = decide(&lambda, &OptimizerConfig::default(), None, None);
//! let (model, _, labels) = fit_and_label(&strategy, &lambda, None, &TrainConfig::default(), None);
//! assert_eq!(labels.len(), 4);
//! assert!(labels.iter().all(|p| (p.iter().sum::<f64>() - 1.0).abs() < 1e-9));
//!
//! // Backend-specific state is one `match` on the variant away.
//! if let LabelModel::Generative(gm) = &model {
//!     assert_eq!(gm.accuracy_weights().len(), 2);
//! }
//! ```

use snorkel_matrix::{LabelMatrix, PatternIndex, Vote};

use crate::model::{FitReport, GenerativeModel, LabelScheme, TrainConfig};
pub use crate::moment::{MomentModel, MomentStats};
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
/// optional prebuilt [`PatternIndex`] covering
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
    /// `PatternIndex::build(lambda)` for the call; the other backends
    /// walk rows.
    pub fn fit(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&PatternIndex>,
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
    /// the pre-edit matrix) where that is the correlated CD fit.
    /// `changed_cols` lists the columns whose LF was edited. Only a
    /// generative model with correlation pairs reuses a generative
    /// `prev` of its own shape ([`GenerativeModel::fit_warm`]); every
    /// other pairing runs a cold [`fit`](Self::fit), and the returned
    /// [`FitReport::warm_started`] says which path ran.
    pub fn fit_warm(
        &mut self,
        lambda: &LabelMatrix,
        plan: Option<&PatternIndex>,
        cfg: &TrainConfig,
        prev: &LabelModel,
        changed_cols: &[usize],
    ) -> FitReport {
        match (&mut *self, prev) {
            (LabelModel::Generative(gm), LabelModel::Generative(p))
                if p.num_lfs() == gm.num_lfs() && p.scheme() == gm.scheme() =>
            {
                gm.fit_warm(lambda, plan, cfg, p, changed_cols)
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
    /// all. One-shot callers skip the plan build when it is `false` (the
    /// batch pipeline does for the majority-vote strategy) — the MV
    /// backend's whole labeling pass is one `O(nnz)` walk, so an index
    /// build would cost more than it saves. Callers that keep a plan
    /// anyway (the incremental session) may still pass one.
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
    pub fn marginals(&self, lambda: &LabelMatrix, plan: Option<&PatternIndex>) -> Vec<Vec<f64>> {
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
/// supplied (scattering each pattern's posterior back to its rows), row
/// by row otherwise. The posterior of a row is a pure function of its
/// vote signature for every backend, so both paths are bit-identical.
pub(crate) fn marginals_via<F>(
    lambda: &LabelMatrix,
    plan: Option<&PatternIndex>,
    posterior: F,
) -> Vec<Vec<f64>>
where
    F: Fn(&[u32], &[Vote]) -> Vec<f64>,
{
    match plan {
        None => (0..lambda.num_points())
            .map(|i| {
                let (cols, votes) = lambda.row(i);
                posterior(cols, votes)
            })
            .collect(),
        Some(plan) => {
            let mut posts = vec![Vec::new(); plan.num_patterns()];
            for (p, cols, votes, _) in plan.patterns() {
                posts[p] = posterior(cols, votes);
            }
            (0..lambda.num_points())
                .map(|row| posts[plan.pattern_of_row(row)].clone())
                .collect()
        }
    }
}

/// Fold every vote signature of `lambda`, with its multiplicity, into
/// `acc`: over the plan's unique patterns when one is supplied, over
/// the rows otherwise. Counts of whole rows are exact either way, so
/// statistics gathered through this walk do not depend on the path
/// taken.
pub(crate) fn fold_signatures<A>(
    lambda: &LabelMatrix,
    plan: Option<&PatternIndex>,
    mut acc: A,
    step: impl Fn(&mut A, &[u32], &[Vote], usize),
) -> A {
    match plan {
        Some(plan) => {
            for (_, cols, votes, cnt) in plan.patterns() {
                step(&mut acc, cols, votes, cnt);
            }
        }
        None => {
            for i in 0..lambda.num_points() {
                let (cols, votes) = lambda.row(i);
                step(&mut acc, cols, votes, 1);
            }
        }
    }
    acc
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
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::LabelMatrixBuilder;

    pub(crate) fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> (LabelMatrix, Vec<Vote>) {
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
        let plan = PatternIndex::build(&lambda);
        assert_eq!(mv.marginals(&lambda, Some(&plan)), marg);
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

        // Same backend without correlation pairs: a cold fit too.
        let cold = LabelModel::Generative(cold);
        let mut refit = LabelModel::Generative(GenerativeModel::new(3, LabelScheme::Binary));
        assert!(!refit.fit_warm(&lambda, None, &cfg, &cold, &[]).warm_started);
        // With correlation pairs the CD fit starts from `prev`.
        let correlated =
            || GenerativeModel::new(3, LabelScheme::Binary).with_correlations(&[(0, 1)]);
        let mut prev = LabelModel::Generative(correlated());
        prev.fit(&lambda, None, &cfg);
        let mut warm = LabelModel::Generative(correlated());
        assert!(warm.fit_warm(&lambda, None, &cfg, &prev, &[]).warm_started);
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
