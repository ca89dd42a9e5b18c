//! The generative label model `p_w(Λ, Y)` (paper §2.2).
//!
//! The true class label of each data point is a latent variable; each
//! labeling function is a noisy voter. The model couples them through
//! three factor types with weights `w ∈ R^{2n + |C|}`:
//!
//! ```text
//! φ_Lab(Λ, y)  = 1{Λ_ij ≠ ∅}              (labeling propensity)
//! φ_Acc(Λ, y)  = 1{Λ_ij = y_i}            (accuracy)
//! φ_Corr(Λ, y) = 1{Λ_ij = Λ_ik ≠ ∅}       ((j,k) ∈ C, pairwise correlation)
//! ```
//!
//! One deliberate deviation from the paper's notation: the correlation
//! factor fires only on agreeing *votes*, not on joint abstention. With
//! sparse suites (coverage of a few percent) both-abstain agreement is
//! ~90% of rows and swamps the actual vote correlation, making every LF
//! pair look dependent and the redundancy discount destructive.
//!
//! Training minimizes the negative log *marginal* likelihood of the
//! observed matrix, `−log Σ_Y p_w(Λ, Y)` — no ground truth enters:
//!
//! * **Independent model** (`C = ∅`): expectation–maximization with
//!   exact posteriors (E) and a closed-form per-LF maximizer (M) — the
//!   model is a tied-error-rate Dawid–Skene mixture, so the M-step is
//!   analytic. Deterministic, sampling-free, and convergent in tens of
//!   iterations where first-order ascent needed thousands; iteration
//!   stops at an optimizer-independent fixed point, which is what makes
//!   warm restarts ([`GenerativeModel::fit_warm`]) agree with cold fits
//!   to ≤1e-9.
//! * **Correlated model** (`C ≠ ∅`): SGD whose model phase is estimated
//!   by Gibbs chains seeded at observed rows — the
//!   contrastive-divergence style training the paper describes
//!   ("interleaving stochastic gradient descent steps with Gibbs
//!   sampling ones").
//!
//! After fitting, the per-LF accuracy weight recovers the LF's accuracy
//! via `α_j = e^{w_j} / (e^{w_j} + K − 1)` (appendix A.1 in the binary
//! case), and posteriors `p(y | Λ_i)` become the probabilistic training
//! labels `Ỹ`.

use snorkel_linalg::math::softmax_in_place;
use snorkel_matrix::{LabelMatrix, ShardedMatrix, Vote};

use crate::label_model::{map_vote, marginals_via};

// The two trainers are child modules, so the model's fields stay
// private to this file and its extensions: the exact EM/Newton trainer
// of the independent model, and the correlated (CD/Gibbs) trainer.
#[path = "correlated.rs"]
mod correlated;
#[path = "exact.rs"]
mod exact;

pub(crate) use exact::prior_pseudocounts;

/// Vote-scheme abstraction shared by the binary (`{−1,+1}`) and
/// multi-class (`{1..=k}`) settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelScheme {
    /// Votes in `{−1, +1}`; class 0 is `+1`, class 1 is `−1`.
    Binary,
    /// Votes in `{1..=k}`; class `c` is vote `c + 1`.
    MultiClass(u8),
}

impl LabelScheme {
    /// Scheme matching a matrix's cardinality.
    pub fn from_cardinality(k: u8) -> Self {
        if k == 2 {
            LabelScheme::Binary
        } else {
            LabelScheme::MultiClass(k)
        }
    }

    /// The cardinality this scheme encodes (inverse of
    /// [`Self::from_cardinality`]).
    pub fn cardinality(&self) -> u8 {
        match self {
            LabelScheme::Binary => 2,
            LabelScheme::MultiClass(k) => *k,
        }
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        match self {
            LabelScheme::Binary => 2,
            LabelScheme::MultiClass(k) => *k as usize,
        }
    }

    /// Dense class index of a non-abstain vote.
    #[inline]
    pub fn class_of_vote(&self, v: Vote) -> Option<usize> {
        if v == 0 {
            return None;
        }
        Some(match self {
            LabelScheme::Binary => {
                if v == 1 {
                    0
                } else {
                    1
                }
            }
            LabelScheme::MultiClass(_) => (v as usize) - 1,
        })
    }

    /// Vote value of a dense class index.
    pub fn vote_of_class(&self, c: usize) -> Vote {
        match self {
            LabelScheme::Binary => {
                if c == 0 {
                    1
                } else {
                    -1
                }
            }
            LabelScheme::MultiClass(_) => (c + 1) as Vote,
        }
    }
}

/// Training hyperparameters.
///
/// The exact (independent-model) path and the Gibbs/contrastive-
/// divergence (correlated-model) path are configured separately: the
/// exact path is deterministic EM with a closed-form M-step (no step
/// size; `epochs` is just a cap above the `tol` convergence test), while
/// the CD path is noisy minibatch SGD with its own epoch count and step
/// size.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// EM iteration cap for the exact independent-model path (the
    /// [`Self::tol`] convergence test usually stops it after tens of
    /// iterations).
    pub epochs: usize,
    /// Per-epoch multiplicative step decay (CD path).
    pub lr_decay: f64,
    /// Passes over the data for the correlated (CD) path.
    pub cd_epochs: usize,
    /// Step size for the correlated path.
    pub cd_learning_rate: f64,
    /// L2 regularization strength (CD path; the exact path regularizes
    /// with prior pseudocounts in its M-step instead — see
    /// [`Self::init_acc_weight`]).
    pub l2: f64,
    /// RNG seed (minibatch order, Gibbs chains).
    pub seed: u64,
    /// Gibbs sweeps per contrastive-divergence step (correlated model).
    pub gibbs_steps: usize,
    /// Minibatch size (correlated model; the independent model is
    /// full-batch). `0` means all rows: one full-batch step per epoch.
    pub batch_size: usize,
    /// Convergence tolerance for the exact (independent-model) path:
    /// stop once the Aitken-estimated distance to the EM fixed point
    /// drops below this. The fixed point is a stationary point of the
    /// likelihood and does not depend on where iteration started, so any
    /// two runs that both converge — e.g. a cold fit and a
    /// [`GenerativeModel::fit_warm`] restart after one LF edit — land on
    /// the *same* parameters up to this tolerance. `0.0` disables early
    /// stopping. This is the §3 early-stopping lever (the paper reports
    /// up to 61% of training time saved by stopping when converged).
    pub tol: f64,
    /// Mean prior accuracy weight w̄ (log-odds scale; 1.0 ≈ 73% accuracy,
    /// the paper's default). Seeds the optimizer *and* sets the exact
    /// path's Dirichlet pseudocounts, so with little data fitted
    /// accuracies shrink toward this prior rather than toward chance.
    pub init_acc_weight: f64,
    /// Initialize accuracy weights from each LF's agreement rate with
    /// the unweighted majority vote. This anchors optimization in the
    /// correct basin: the marginal likelihood has an exact label-flip
    /// symmetry (`w → −w` with classes relabeled), and on imbalanced
    /// matrices a neutral init can fall into the flipped optimum.
    pub init_from_majority_vote: bool,
    /// How to set the fixed class-balance weights `b_c`. The balance is
    /// *not* learned: jointly optimizing a free class prior with the
    /// accuracy weights admits a degenerate optimum where the latent
    /// class collapses to a constant and every vote is explained by
    /// per-LF marginals alone.
    pub class_balance: ClassBalance,
    /// Clamp accuracy weights at ≥ 0 (assume non-adversarial LFs).
    pub clamp_nonadversarial: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1000,
            lr_decay: 0.998,
            cd_epochs: 60,
            cd_learning_rate: 0.05,
            l2: 1e-4,
            seed: 0,
            gibbs_steps: 2,
            batch_size: 64,
            tol: 1e-12,
            init_acc_weight: 1.0,
            init_from_majority_vote: true,
            class_balance: ClassBalance::FromMajorityVote,
            clamp_nonadversarial: false,
        }
    }
}

/// Policy for the fixed class-balance weights.
#[derive(Clone, Debug, PartialEq)]
pub enum ClassBalance {
    /// Uniform prior (`b = 0`), matching the paper's factor set exactly.
    Uniform,
    /// Estimate the balance from the unweighted majority vote's class
    /// distribution (smoothed); the practical default for the imbalanced
    /// relation-extraction tasks.
    FromMajorityVote,
    /// User-specified class probabilities (must sum to ~1).
    Fixed(Vec<f64>),
}

/// Outcome of a fit.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Final mean negative log marginal likelihood (exact for the
    /// independent model; `NaN` for correlated models, whose partition
    /// function we never compute).
    pub final_nll: f64,
    /// Whether Gibbs-based contrastive divergence was used.
    pub used_gibbs: bool,
    /// Whether this fit warm-started from a previous model's parameters
    /// ([`GenerativeModel::fit_warm`]).
    pub warm_started: bool,
}

/// Why a [`ModelParams`] value cannot be a fitted model — the typed
/// decode-validation surface for untrusted parameter blobs (snapshot
/// files, wire payloads). Every variant names exactly the invariant that
/// was violated, so callers (`snorkel-serve`'s snapshot reader, through
/// [`GenerativeModel::from_params`] and
/// [`crate::label_model::MomentModel::from_params`]) can propagate it
/// without flattening to strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// Cardinality below 2 cannot describe a labeling task.
    BadCardinality {
        /// The cardinality found in the parameters.
        found: u8,
    },
    /// A per-LF or per-class vector has the wrong length.
    LengthMismatch {
        /// Which vector was mis-sized.
        field: &'static str,
        /// Length found.
        found: usize,
        /// Length required.
        expected: usize,
    },
    /// A correlation pair is not normalized `a < b` within the LF range.
    PairOutOfRange {
        /// First LF of the pair as stored.
        a: usize,
        /// Second LF of the pair as stored.
        b: usize,
        /// Number of LFs the model covers.
        num_lfs: usize,
    },
    /// The same correlation pair appears twice.
    DuplicatePair {
        /// First LF of the duplicated pair.
        a: usize,
        /// Second LF of the duplicated pair.
        b: usize,
    },
    /// A weight is NaN or infinite.
    NonFiniteWeight {
        /// Which weight vector holds the offending value.
        field: &'static str,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::BadCardinality { found } => write!(f, "cardinality {found} < 2"),
            ParamsError::LengthMismatch {
                field,
                found,
                expected,
            } => write!(f, "{field} has {found} entries, expected {expected}"),
            ParamsError::PairOutOfRange { a, b, num_lfs } => write!(
                f,
                "correlation pair ({a}, {b}) not normalized in-range for {num_lfs} LFs"
            ),
            ParamsError::DuplicatePair { a, b } => {
                write!(f, "duplicate correlation pair ({a}, {b})")
            }
            ParamsError::NonFiniteWeight { field } => write!(f, "non-finite weight in {field}"),
        }
    }
}

impl std::error::Error for ParamsError {}

/// Owned copy of a [`GenerativeModel`]'s learned parameters — the
/// stable encoding surface for on-disk snapshots (`snorkel-serve`). The
/// correlation adjacency lists are *not* part of the encoding;
/// [`GenerativeModel::from_params`] re-derives them from the pairs, so a
/// round trip reproduces a model whose inference is bit-identical to the
/// original's.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelParams {
    /// Task cardinality (2 = the binary `{−1,+1}` scheme).
    pub cardinality: u8,
    /// Number of labeling functions `n`.
    pub num_lfs: usize,
    /// Labeling-propensity weights (`n` entries).
    pub w_lab: Vec<f64>,
    /// Accuracy weights (`n` entries).
    pub w_acc: Vec<f64>,
    /// Modeled correlation pairs, each normalized `a < b`, deduplicated.
    pub corr_pairs: Vec<(usize, usize)>,
    /// Learned correlation weights (parallel to `corr_pairs`).
    pub w_corr: Vec<f64>,
    /// Prior correlation strengths (parallel to `corr_pairs`).
    pub corr_strength: Vec<f64>,
    /// Class-balance weights (one per class).
    pub b_class: Vec<f64>,
}

impl ModelParams {
    /// Check every structural invariant a fitted model relies on:
    /// weight-vector lengths, pair normalization/range/uniqueness, and
    /// finite weights. [`GenerativeModel::from_params`] calls this before
    /// rebuilding; snapshot decoders call it directly so corrupt model
    /// sections surface as typed [`ParamsError`]s at read time.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.cardinality < 2 {
            return Err(ParamsError::BadCardinality {
                found: self.cardinality,
            });
        }
        let n = self.num_lfs;
        let scheme = LabelScheme::from_cardinality(self.cardinality);
        for (field, len, expected) in [
            ("w_lab", self.w_lab.len(), n),
            ("w_acc", self.w_acc.len(), n),
            ("w_corr", self.w_corr.len(), self.corr_pairs.len()),
            (
                "corr_strength",
                self.corr_strength.len(),
                self.corr_pairs.len(),
            ),
            ("b_class", self.b_class.len(), scheme.num_classes()),
        ] {
            if len != expected {
                return Err(ParamsError::LengthMismatch {
                    field,
                    found: len,
                    expected,
                });
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &self.corr_pairs {
            if a >= b || b >= n {
                return Err(ParamsError::PairOutOfRange { a, b, num_lfs: n });
            }
            if !seen.insert((a, b)) {
                return Err(ParamsError::DuplicatePair { a, b });
            }
        }
        for (field, xs) in [
            ("w_lab", &self.w_lab),
            ("w_acc", &self.w_acc),
            ("w_corr", &self.w_corr),
            ("corr_strength", &self.corr_strength),
            ("b_class", &self.b_class),
        ] {
            if xs.iter().any(|w| !w.is_finite()) {
                return Err(ParamsError::NonFiniteWeight { field });
            }
        }
        Ok(())
    }
}

/// The generative label model.
#[derive(Clone, Debug)]
pub struct GenerativeModel {
    scheme: LabelScheme,
    n: usize,
    w_lab: Vec<f64>,
    w_acc: Vec<f64>,
    corr_pairs: Vec<(usize, usize)>,
    w_corr: Vec<f64>,
    /// Prior correlation strengths from structure learning (used to
    /// seed `w_corr` and to discount redundant LFs' initial accuracy
    /// weights); 1.0 when unknown.
    corr_strength: Vec<f64>,
    /// Adjacency: for each LF, `(pair_index, other_lf)` of its
    /// correlation factors.
    corr_adj: Vec<Vec<(usize, usize)>>,
    /// Class-balance weights `b_c` (log-prior per class). The paper's
    /// factor set omits a class prior; on the imbalanced relation tasks
    /// that omission miscalibrates posteriors badly, so we add the one
    /// factor `φ_Bal(y) = 1{y = c}` and learn its weights jointly.
    b_class: Vec<f64>,
}

/// Weight clamp keeping `exp` comfortably finite (shared with the
/// closed-form moment backend in [`crate::label_model`]).
pub(crate) const W_CLAMP: f64 = 10.0;

impl GenerativeModel {
    /// Independent model over `n` labeling functions.
    pub fn new(n: usize, scheme: LabelScheme) -> Self {
        GenerativeModel {
            scheme,
            n,
            w_lab: vec![0.0; n],
            w_acc: vec![1.0; n],
            corr_pairs: Vec::new(),
            w_corr: Vec::new(),
            corr_strength: Vec::new(),
            corr_adj: vec![Vec::new(); n],
            b_class: vec![0.0; scheme.num_classes()],
        }
    }

    /// Add pairwise-correlation factors for the given LF pairs
    /// (deduplicated, self-pairs rejected) with unit prior strength.
    pub fn with_correlations(self, pairs: &[(usize, usize)]) -> Self {
        let strengths = vec![1.0; pairs.len()];
        self.with_weighted_correlations(pairs, &strengths)
    }

    /// Add pairwise-correlation factors with prior strengths (typically
    /// the fitted weights from
    /// [`crate::structure::learn_structure`]). Strengths seed the
    /// correlation weights and drive the redundancy discount of the
    /// correlated-training initialization.
    pub fn with_weighted_correlations(
        mut self,
        pairs: &[(usize, usize)],
        strengths: &[f64],
    ) -> Self {
        assert_eq!(pairs.len(), strengths.len(), "one strength per pair");
        let mut seen = std::collections::BTreeSet::new();
        for (&(a, b), &s) in pairs.iter().zip(strengths) {
            assert!(a < self.n && b < self.n, "correlation pair out of range");
            assert_ne!(a, b, "self-correlation is meaningless");
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                let idx = self.corr_pairs.len();
                self.corr_pairs.push(key);
                self.w_corr.push(0.0);
                self.corr_strength.push(s.abs());
                self.corr_adj[key.0].push((idx, key.1));
                self.corr_adj[key.1].push((idx, key.0));
            }
        }
        self
    }

    /// Number of labeling functions.
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// The label scheme.
    pub fn scheme(&self) -> LabelScheme {
        self.scheme
    }

    /// The modeled correlation pairs.
    pub fn correlations(&self) -> &[(usize, usize)] {
        &self.corr_pairs
    }

    /// Learned correlation weights (parallel to
    /// [`Self::correlations`]).
    pub fn correlation_weights(&self) -> &[f64] {
        &self.w_corr
    }

    /// Learned accuracy weights (log-odds scale).
    pub fn accuracy_weights(&self) -> &[f64] {
        &self.w_acc
    }

    /// Learned propensity weights.
    pub fn propensity_weights(&self) -> &[f64] {
        &self.w_lab
    }

    /// Learned class-balance weights (log-prior scale); softmax of these
    /// is the model's implied class distribution.
    pub fn class_balance_weights(&self) -> &[f64] {
        &self.b_class
    }

    /// The model's implied class prior `softmax(b)`.
    pub fn implied_class_prior(&self) -> Vec<f64> {
        let mut p = self.b_class.clone();
        softmax_in_place(&mut p);
        p
    }

    /// Implied LF accuracies `α_j = e^{w_j} / (e^{w_j} + K − 1)`
    /// (appendix A.1 generalized to K classes).
    pub fn implied_accuracies(&self) -> Vec<f64> {
        let k1 = (self.scheme.num_classes() - 1) as f64;
        self.w_acc
            .iter()
            .map(|&w| {
                let e = w.exp();
                e / (e + k1)
            })
            .collect()
    }

    /// Export the learned parameters (see [`ModelParams`]).
    pub fn to_params(&self) -> ModelParams {
        ModelParams {
            cardinality: match self.scheme {
                LabelScheme::Binary => 2,
                LabelScheme::MultiClass(k) => k,
            },
            num_lfs: self.n,
            w_lab: self.w_lab.clone(),
            w_acc: self.w_acc.clone(),
            corr_pairs: self.corr_pairs.clone(),
            w_corr: self.w_corr.clone(),
            corr_strength: self.corr_strength.clone(),
            b_class: self.b_class.clone(),
        }
    }

    /// Rebuild a fitted model from exported parameters (the inverse of
    /// [`Self::to_params`]). Untrusted input (a snapshot file) comes
    /// through here, so every structural invariant the constructors
    /// assert is checked ([`ModelParams::validate`]) and violations
    /// return a typed [`ParamsError`]: weight-vector lengths, pair
    /// ranges and normalization, and finite weights.
    pub fn from_params(params: ModelParams) -> Result<GenerativeModel, ParamsError> {
        params.validate()?;
        let ModelParams {
            cardinality,
            num_lfs: n,
            w_lab,
            w_acc,
            corr_pairs,
            w_corr,
            corr_strength,
            b_class,
        } = params;
        let scheme = LabelScheme::from_cardinality(cardinality);
        let mut corr_adj = vec![Vec::new(); n];
        for (idx, &(a, b)) in corr_pairs.iter().enumerate() {
            corr_adj[a].push((idx, b));
            corr_adj[b].push((idx, a));
        }
        Ok(GenerativeModel {
            scheme,
            n,
            w_lab,
            w_acc,
            corr_pairs,
            w_corr,
            corr_strength,
            corr_adj,
            b_class,
        })
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    /// Posterior `p(y = class | Λ_i)` for one row of votes, written into
    /// a caller-owned slice of `scheme().num_classes()` elements,
    /// allocating nothing — the kernel under the serving layer's flat
    /// posterior arena and under every marginals path.
    ///
    /// Correlation and propensity factors cancel (they do not involve
    /// `y`), so the posterior depends only on the accuracy weights and
    /// the class-balance weights — but those weights are *fit*
    /// differently when correlations are modeled, which is where the
    /// correction of Example 3.1 comes from.
    ///
    /// Panics if `out.len() != scheme().num_classes()`.
    pub fn posterior_into(&self, cols: &[u32], votes: &[Vote], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.b_class.len(),
            "posterior_into needs a slice of num_classes elements"
        );
        out.copy_from_slice(&self.b_class);
        for (&c, &v) in cols.iter().zip(votes) {
            if let Some(class) = self.scheme.class_of_vote(v) {
                out[class] += self.w_acc[c as usize];
            }
        }
        softmax_in_place(out);
    }

    /// [`Self::posterior_into`] into a fresh `Vec`.
    pub fn posterior(&self, cols: &[u32], votes: &[Vote]) -> Vec<f64> {
        let mut out = vec![0.0; self.b_class.len()];
        self.posterior_into(cols, votes, &mut out);
        out
    }

    /// Posterior class distributions for every row, one posterior per
    /// row. Callers that hold a [`ShardedMatrix`] plan use
    /// [`Self::marginals_with`] instead: the same bits, one posterior
    /// per unique vote pattern.
    pub fn marginals(&self, lambda: &LabelMatrix) -> Vec<Vec<f64>> {
        marginals_via(lambda, None, |cols, votes| self.posterior(cols, votes))
    }

    /// Posterior class distributions for every row, computed once per
    /// unique vote pattern of the prebuilt plan and scattered back to
    /// rows. Bit-identical to [`Self::marginals`] for any shard count,
    /// because a pattern's posterior is computed by the exact float-op
    /// sequence its rows' posteriors would have used.
    pub fn marginals_with(&self, lambda: &LabelMatrix, plan: &ShardedMatrix) -> Vec<Vec<f64>> {
        self.assert_plan_matches(lambda, plan);
        marginals_via(lambda, Some(plan), |cols, votes| {
            self.posterior(cols, votes)
        })
    }

    /// Binary convenience: `p(y = +1 | Λ_i)` per row (see
    /// [`Self::marginals`]).
    pub fn prob_positive(&self, lambda: &LabelMatrix) -> Vec<f64> {
        assert_eq!(self.scheme, LabelScheme::Binary, "binary scheme only");
        self.marginals(lambda).into_iter().map(|p| p[0]).collect()
    }

    fn assert_plan_matches(&self, lambda: &LabelMatrix, plan: &ShardedMatrix) {
        assert_eq!(
            plan.num_rows(),
            lambda.num_points(),
            "sharded plan covers {} rows but Λ has {}",
            plan.num_rows(),
            lambda.num_points()
        );
        assert_eq!(
            plan.num_lfs(),
            lambda.num_lfs(),
            "sharded plan built for {} LFs but Λ has {}",
            plan.num_lfs(),
            lambda.num_lfs()
        );
    }

    /// Hard predictions: the MAP class as a vote value; 0 when the
    /// posterior is exactly uniform over its top classes (no evidence).
    pub fn predicted_labels(&self, lambda: &LabelMatrix) -> Vec<Vote> {
        self.marginals(lambda)
            .into_iter()
            .map(|post| map_vote(self.scheme, &post))
            .collect()
    }

    // ------------------------------------------------------------------
    // Training
    // ------------------------------------------------------------------

    /// The plan [`Self::fit`] builds: always
    /// `Some(ShardedMatrix::build(lambda, 0))`, whatever `cfg` says (the
    /// partition is sized by rows and cores, not configured). Callers
    /// that run several passes over the same matrix (pipeline,
    /// incremental session) build the plan once and hand it to
    /// [`Self::fit_with`] / [`Self::marginals_with`].
    pub fn plan_for(lambda: &LabelMatrix, _cfg: &TrainConfig) -> Option<ShardedMatrix> {
        Some(ShardedMatrix::build(lambda, 0))
    }

    /// Fit to a label matrix by maximizing the (smoothed) marginal
    /// likelihood, over a plan built for this call
    /// (`ShardedMatrix::build(lambda, 0)`: one shard, run inline, below
    /// 8 192 rows).
    pub fn fit(&mut self, lambda: &LabelMatrix, cfg: &TrainConfig) -> FitReport {
        self.fit_exec(lambda, &ShardedMatrix::build(lambda, 0), cfg)
    }

    /// [`Self::fit`] against a prebuilt sharded plan (must cover exactly
    /// this matrix), skipping the per-call plan build.
    pub fn fit_with(
        &mut self,
        lambda: &LabelMatrix,
        plan: &ShardedMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        self.fit_exec(lambda, plan, cfg)
    }

    /// Build an unfitted model over `col_map.len()` LFs whose per-LF
    /// weights are copied from `prev` where `col_map[j] = Some(old_j)`;
    /// `None` columns keep the fresh-model defaults. Correlation factors
    /// are not carried (add them with
    /// [`Self::with_weighted_correlations`] afterwards). This is the
    /// warm-start bridge for *structural* suite edits: after adding or
    /// removing an LF, map every surviving column to its previous weights
    /// and [`Self::fit_warm`] from the remapped model.
    pub fn remapped_from(prev: &GenerativeModel, col_map: &[Option<usize>]) -> GenerativeModel {
        let mut gm = GenerativeModel::new(col_map.len(), prev.scheme);
        for (j, slot) in col_map.iter().enumerate() {
            if let Some(old) = slot {
                assert!(
                    *old < prev.n,
                    "col_map entry {old} out of range ({} LFs)",
                    prev.n
                );
                gm.w_lab[j] = prev.w_lab[*old];
                gm.w_acc[j] = prev.w_acc[*old];
            }
        }
        gm.b_class = prev.b_class.clone();
        gm
    }

    /// Warm-restart fit: start from a previously fitted model's
    /// parameters, re-initialize only the columns in `changed_cols`, and
    /// run the optimizer until convergence.
    ///
    /// For the exact independent path this converges to the same fixed
    /// point a cold [`Self::fit`] finds (the update's stationary point is
    /// step-size-independent), so with a convergence tolerance set
    /// ([`TrainConfig::tol`]) warm and cold marginals agree to ≤1e-9 —
    /// while the warm restart, starting next to the optimum, typically
    /// needs an order of magnitude fewer epochs after a one-LF edit.
    ///
    /// For correlated models the CD path is stochastic; warm-starting
    /// still reuses the previous weights (and the correlation weights of
    /// every pair both models share) as the initialization, but no
    /// bit-level equivalence with a cold fit is implied.
    ///
    /// `prev` must have the same LF count and scheme; `changed_cols`
    /// lists the columns whose LF was edited (an empty slice means only
    /// the data changed, e.g. a new candidate batch was ingested).
    pub fn fit_warm(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        prev: &GenerativeModel,
        changed_cols: &[usize],
    ) -> FitReport {
        let plan = ShardedMatrix::build(lambda, 0);
        self.fit_warm_exec(lambda, &plan, cfg, prev, changed_cols)
    }

    /// [`Self::fit_warm`] against a prebuilt sharded plan (must cover
    /// exactly this matrix) — the incremental session's training path.
    pub fn fit_warm_with(
        &mut self,
        lambda: &LabelMatrix,
        plan: &ShardedMatrix,
        cfg: &TrainConfig,
        prev: &GenerativeModel,
        changed_cols: &[usize],
    ) -> FitReport {
        self.fit_warm_exec(lambda, plan, cfg, prev, changed_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::LabelMatrixBuilder;

    /// Plant a binary dataset: LF `j` votes with propensity `pl` and
    /// accuracy `accs[j]`.
    fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> (LabelMatrix, Vec<Vote>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = LabelMatrixBuilder::new(m, accs.len());
        let mut gold = Vec::with_capacity(m);
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            gold.push(y);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < pl {
                    let v = if rng.gen::<f64>() < acc { y } else { -y };
                    b.set(i, j, v);
                }
            }
        }
        (b.build(), gold)
    }

    #[test]
    fn scheme_round_trips() {
        let b = LabelScheme::Binary;
        assert_eq!(b.class_of_vote(1), Some(0));
        assert_eq!(b.class_of_vote(-1), Some(1));
        assert_eq!(b.class_of_vote(0), None);
        assert_eq!(b.vote_of_class(0), 1);
        assert_eq!(b.vote_of_class(1), -1);
        let m = LabelScheme::MultiClass(5);
        for c in 0..5 {
            assert_eq!(m.class_of_vote(m.vote_of_class(c)), Some(c));
        }
    }

    #[test]
    fn recovers_planted_accuracies() {
        let accs = [0.9, 0.8, 0.7, 0.6, 0.55];
        let (lambda, _) = planted(4000, &accs, 0.6, 7);
        let mut gm = GenerativeModel::new(5, LabelScheme::Binary);
        gm.fit(&lambda, &TrainConfig::default());
        let implied = gm.implied_accuracies();
        for (j, &a) in accs.iter().enumerate() {
            assert!(
                (implied[j] - a).abs() < 0.08,
                "LF{j}: implied {:.3} vs true {a}",
                implied[j]
            );
        }
        // Ordering must be recovered exactly.
        for j in 1..accs.len() {
            assert!(
                implied[j - 1] > implied[j],
                "accuracy order violated at {j}"
            );
        }
    }

    #[test]
    fn recovers_propensity() {
        let (lambda, _) = planted(4000, &[0.8, 0.8], 0.3, 3);
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        gm.fit(&lambda, &TrainConfig::default());
        // P(vote) under the model = (e^{lab+acc} + e^{lab}) / z.
        for j in 0..2 {
            let e_lab = gm.propensity_weights()[j].exp();
            let e_la = (gm.propensity_weights()[j] + gm.accuracy_weights()[j]).exp();
            let z = 1.0 + e_la + e_lab;
            let p_vote = (e_la + e_lab) / z;
            assert!((p_vote - 0.3).abs() < 0.05, "propensity {p_vote:.3}");
        }
    }

    #[test]
    fn example_1_1_conflict_resolution() {
        // High-accuracy source vs low-accuracy source (paper Example
        // 1.1): after fitting, a conflict resolves toward the stronger
        // source. A third source is needed for identifiability — with
        // only two conditionally independent voters, the marginal
        // likelihood depends only on their agreement rate (the classical
        // Dawid-Skene two-view ambiguity), so individual accuracies
        // cannot be recovered.
        let (lambda, _) = planted(3000, &[0.9, 0.6, 0.75], 0.8, 11);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        gm.fit(&lambda, &TrainConfig::default());
        let post = gm.posterior(&[0, 1], &[1, -1]); // sources 0 and 1 disagree
        assert!(
            post[0] > 0.6,
            "posterior must side with the accurate source, got {:.3}",
            post[0]
        );
    }

    #[test]
    fn params_round_trip_is_bit_identical() {
        let (lambda, _) = planted(500, &[0.9, 0.7, 0.6], 0.5, 21);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary)
            .with_weighted_correlations(&[(0, 2)], &[0.8]);
        gm.fit(&lambda, &TrainConfig::default());
        let back = GenerativeModel::from_params(gm.to_params()).unwrap();
        assert_eq!(back.marginals(&lambda), gm.marginals(&lambda));
        assert_eq!(back.correlations(), gm.correlations());
        assert_eq!(back.correlation_weights(), gm.correlation_weights());
        assert_eq!(back.to_params(), gm.to_params());
    }

    #[test]
    fn from_params_rejects_corruption() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary);
        // Length mismatch.
        let mut p = gm.to_params();
        p.w_acc.pop();
        assert!(GenerativeModel::from_params(p).is_err());
        // Unnormalized pair.
        let mut p = gm.to_params();
        p.corr_pairs = vec![(2, 1)];
        p.w_corr = vec![0.0];
        p.corr_strength = vec![1.0];
        assert!(GenerativeModel::from_params(p).is_err());
        // Out-of-range pair.
        let mut p = gm.to_params();
        p.corr_pairs = vec![(0, 3)];
        p.w_corr = vec![0.0];
        p.corr_strength = vec![1.0];
        assert!(GenerativeModel::from_params(p).is_err());
        // Non-finite weight.
        let mut p = gm.to_params();
        p.w_lab[0] = f64::NAN;
        assert!(GenerativeModel::from_params(p).is_err());
        // Wrong balance length.
        let mut p = gm.to_params();
        p.b_class.push(0.0);
        assert!(GenerativeModel::from_params(p).is_err());
    }

    #[test]
    fn posterior_uniform_without_votes() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary);
        let post = gm.posterior(&[], &[]);
        assert!((post[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginals_and_hard_labels() {
        let (lambda, gold) = planted(1500, &[0.85, 0.85, 0.85], 0.9, 5);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        gm.fit(&lambda, &TrainConfig::default());
        let probs = gm.prob_positive(&lambda);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let preds = gm.predicted_labels(&lambda);
        let acc = crate::vote::vote_accuracy(&preds, &gold);
        assert!(acc > 0.9, "posterior MAP accuracy {acc:.3}");
    }

    #[test]
    fn fit_is_deterministic() {
        let (lambda, _) = planted(500, &[0.8, 0.7], 0.5, 2);
        let mut a = GenerativeModel::new(2, LabelScheme::Binary);
        let mut b = GenerativeModel::new(2, LabelScheme::Binary);
        a.fit(&lambda, &TrainConfig::default());
        b.fit(&lambda, &TrainConfig::default());
        assert_eq!(a.accuracy_weights(), b.accuracy_weights());
    }

    #[test]
    fn example_3_1_correlation_correction() {
        // 5 perfectly correlated LFs at 50% accuracy + 2 independent LFs
        // at 95%: the independent model over-trusts the correlated block;
        // modeling the correlations restores the good LFs' dominance.
        let m = 2000;
        let mut rng = StdRng::seed_from_u64(13);
        let n = 7;
        let mut b = LabelMatrixBuilder::new(m, n);
        let mut gold = Vec::new();
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            gold.push(y);
            // Correlated block: one coin flip copied to LFs 0..5.
            let block_vote: Vote = if rng.gen::<f64>() < 0.5 { y } else { -y };
            for j in 0..5 {
                b.set(i, j, block_vote);
            }
            for j in 5..7 {
                if rng.gen::<f64>() < 0.95 {
                    b.set(i, j, y);
                } else {
                    b.set(i, j, -y);
                }
            }
        }
        let lambda = b.build();

        let mut indep = GenerativeModel::new(n, LabelScheme::Binary);
        indep.fit(&lambda, &TrainConfig::default());

        let pairs: Vec<(usize, usize)> = (0..5)
            .flat_map(|a| ((a + 1)..5).map(move |b| (a, b)))
            .collect();
        let mut corr = GenerativeModel::new(n, LabelScheme::Binary).with_correlations(&pairs);
        corr.fit(&lambda, &TrainConfig::default());

        // Under the correlated model, a conflict of (block says +1,
        // good LFs say −1) must resolve toward the good LFs.
        let cols: Vec<u32> = (0..7).collect();
        let votes: Vec<Vote> = vec![1, 1, 1, 1, 1, -1, -1];
        let post_corr = corr.posterior(&cols, &votes);
        assert!(
            post_corr[1] > 0.5,
            "correlated model must trust the independent accurate LFs, p(-1) = {:.3}",
            post_corr[1]
        );
        // And it must do better than the independent model does.
        let post_indep = indep.posterior(&cols, &votes);
        assert!(
            post_corr[1] > post_indep[1] - 0.05,
            "corr {:.3} vs indep {:.3}",
            post_corr[1],
            post_indep[1]
        );
        // Learned correlation weights on the block must be positive.
        let mean_corr: f64 = corr.correlation_weights().iter().sum::<f64>()
            / corr.correlation_weights().len() as f64;
        assert!(mean_corr > 0.1, "mean correlation weight {mean_corr:.3}");
    }

    #[test]
    fn multiclass_posterior_and_recovery() {
        let k = 3u8;
        let scheme = LabelScheme::MultiClass(k);
        let mut rng = StdRng::seed_from_u64(21);
        let m = 3000;
        let accs = [0.85, 0.7, 0.55];
        let mut b = LabelMatrixBuilder::with_cardinality(m, 3, k);
        for i in 0..m {
            let y = rng.gen_range(0..k as usize);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < 0.7 {
                    let class = if rng.gen::<f64>() < acc {
                        y
                    } else {
                        // Uniform error over the other classes.
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
        let mut gm = GenerativeModel::new(3, scheme);
        gm.fit(&lambda, &TrainConfig::default());
        let implied = gm.implied_accuracies();
        assert!(implied[0] > implied[1] && implied[1] > implied[2]);
        assert!((implied[0] - 0.85).abs() < 0.1, "implied {:.3}", implied[0]);
        let post = gm.posterior(&[0], &[scheme.vote_of_class(2)]);
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(post[2] > post[0]);
    }

    #[test]
    fn clamp_nonadversarial_floors_weights() {
        // An adversarial LF (accuracy 20%) gets a negative weight when
        // two accurate LFs pin down the labels; the clamp keeps it at
        // zero instead.
        let (lambda, _) = planted(2000, &[0.9, 0.85, 0.2], 0.8, 17);
        let mut gm = GenerativeModel::new(3, LabelScheme::Binary);
        let cfg = TrainConfig {
            clamp_nonadversarial: true,
            ..TrainConfig::default()
        };
        gm.fit(&lambda, &cfg);
        assert!(gm.accuracy_weights()[2] >= 0.0);

        let mut free = GenerativeModel::new(3, LabelScheme::Binary);
        free.fit(&lambda, &TrainConfig::default());
        assert!(
            free.accuracy_weights()[2] < 0.0,
            "unclamped fit must detect the adversarial LF, got {:?}",
            free.accuracy_weights()
        );
    }

    /// Replace column `j` of a binary matrix with fresh planted votes.
    fn edit_column(lambda: &LabelMatrix, j: usize, acc: f64, pl: f64, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lambda = lambda.clone();
        let mut entries = Vec::new();
        for i in 0..lambda.num_points() {
            if rng.gen::<f64>() < pl {
                let v: Vote = if rng.gen::<f64>() < acc { 1 } else { -1 };
                entries.push((i as u32, v));
            }
        }
        lambda.replace_column(j, &entries);
        lambda
    }

    #[test]
    fn tol_stops_early_at_the_same_optimum() {
        let (lambda, _) = planted(1500, &[0.85, 0.75, 0.65], 0.5, 4);
        let full = TrainConfig {
            tol: 0.0,
            ..TrainConfig::default()
        };
        let tol = TrainConfig::default(); // tol = 1e-14
        let mut a = GenerativeModel::new(3, LabelScheme::Binary);
        let ra = a.fit(&lambda, &full);
        let mut b = GenerativeModel::new(3, LabelScheme::Binary);
        let rb = b.fit(&lambda, &tol);
        assert!(rb.epochs <= ra.epochs);
        for (wa, wb) in a.accuracy_weights().iter().zip(b.accuracy_weights()) {
            assert!(
                (wa - wb).abs() < 1e-9,
                "tol changed the optimum: {wa} vs {wb}"
            );
        }
    }

    /// A realistic dev-loop suite: 10 LFs spanning the paper's assumed
    /// accuracy band. (Tiny 3-LF matrices sit on the classic Dawid–Skene
    /// near-degenerate ridge where *every* optimizer's notion of
    /// "converged" is ill-determined; they are not the warm-start
    /// contract's domain.)
    const SUITE: [f64; 10] = [0.9, 0.85, 0.82, 0.78, 0.75, 0.72, 0.7, 0.67, 0.63, 0.6];

    #[test]
    fn warm_start_matches_cold_fit_after_column_edit() {
        let (lambda, _) = planted(2000, &SUITE, 0.4, 8);
        let cfg = TrainConfig::default();
        let mut base = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        base.fit(&lambda, &cfg);

        let edited = edit_column(&lambda, 4, 0.85, 0.5, 99);

        let mut cold = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        let cold_report = cold.fit(&edited, &cfg);

        let mut warm = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        let warm_report = warm.fit_warm(&edited, &cfg, &base, &[4]);
        assert!(warm_report.warm_started);

        // Same optimum: marginals within 1e-9 of the cold path.
        let cold_marg = cold.marginals(&edited);
        let warm_marg = warm.marginals(&edited);
        let mut max_diff = 0.0f64;
        for (c, w) in cold_marg.iter().zip(&warm_marg) {
            for (pc, pw) in c.iter().zip(w) {
                max_diff = max_diff.max((pc - pw).abs());
            }
        }
        assert!(max_diff < 1e-9, "warm/cold marginal gap {max_diff:e}");

        // And cheaper: the warm restart starts next to the optimum.
        assert!(
            warm_report.epochs <= cold_report.epochs,
            "warm {} vs cold {} epochs",
            warm_report.epochs,
            cold_report.epochs
        );
    }

    #[test]
    fn warm_start_handles_new_rows() {
        let (lambda, _) = planted(1200, &SUITE, 0.4, 21);
        let cfg = TrainConfig::default();
        let mut base = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        base.fit(&lambda, &cfg);

        // Ingest 300 more rows.
        let (extra, _) = planted(300, &SUITE, 0.4, 22);
        let mut grown = lambda.clone();
        let rows: Vec<Vec<(u32, Vote)>> = (0..extra.num_points())
            .map(|i| {
                let (cols, votes) = extra.row(i);
                cols.iter().copied().zip(votes.iter().copied()).collect()
            })
            .collect();
        grown.append_rows(&rows);

        let mut cold = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        cold.fit(&grown, &cfg);
        let mut warm = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
        warm.fit_warm(&grown, &cfg, &base, &[]);
        for (c, w) in cold.accuracy_weights().iter().zip(warm.accuracy_weights()) {
            assert!((c - w).abs() < 1e-8, "acc weight gap {c} vs {w}");
        }
    }

    #[test]
    #[should_panic(expected = "matching LF count")]
    fn warm_start_rejects_shape_mismatch() {
        let (lambda, _) = planted(100, &[0.8, 0.8], 0.5, 1);
        let prev = GenerativeModel::new(3, LabelScheme::Binary);
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        gm.fit_warm(&lambda, &TrainConfig::default(), &prev, &[]);
    }

    #[test]
    fn empty_matrix_fit_is_noop() {
        let lambda = LabelMatrixBuilder::new(0, 2).build();
        let mut gm = GenerativeModel::new(2, LabelScheme::Binary);
        let report = gm.fit(&lambda, &TrainConfig::default());
        assert_eq!(report.epochs, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_correlation_pair_panics() {
        let _ = GenerativeModel::new(2, LabelScheme::Binary).with_correlations(&[(0, 5)]);
    }

    #[test]
    fn duplicate_pairs_deduplicated() {
        let gm = GenerativeModel::new(3, LabelScheme::Binary).with_correlations(&[
            (0, 1),
            (1, 0),
            (0, 1),
            (1, 2),
        ]);
        assert_eq!(gm.correlations(), &[(0, 1), (1, 2)]);
    }
}
