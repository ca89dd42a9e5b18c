//! # snorkel-core
//!
//! The data-programming core of `snorkel-rs`: everything between the
//! label matrix `Λ` and the probabilistic training labels `Ỹ`.
//!
//! * [`vote`] — unweighted / weighted majority vote, and the **modeling
//!   advantage** `A_w` of Definition 1 (how much a weighted combination
//!   improves on majority vote).
//! * [`label_model`] — the **label-model backends**: the
//!   [`label_model::LabelModel`] enum over the three of them (fit / warm
//!   refit / plan-aware marginals, one `match` each), the zero-cost
//!   majority-vote backend, the closed-form method-of-moments backend,
//!   and [`label_model::ModelRegistry::build`], the one `match` from the
//!   optimizer's strategy to its variant.
//! * [`model`] — the exact **generative label model** `p_w(Λ, Y)` of
//!   §2.2: labeling-propensity, accuracy, and pairwise-correlation
//!   factors, trained without ground truth by SGD on the negative log
//!   marginal likelihood (exact expectations for the independent model;
//!   Gibbs-sampled contrastive divergence when correlations are
//!   modeled).
//! * [`structure`] — **dependency-structure learning** (§3.2): an
//!   ℓ1-regularized pseudolikelihood estimator selecting which LF pairs
//!   to model as correlated, with exact gradients and no sampling.
//! * [`optimizer`] — the **model-selection optimizer** (Algorithm 1):
//!   the `A~*` advantage bound of Proposition 2 decides whether
//!   accuracies are worth modeling at all; an ε-sweep with elbow-point
//!   selection picks the correlation structure; scale picks between the
//!   exact and moment backends.
//! * [`bounds`] — the closed-form low-density (Proposition 1) and
//!   high-density (Theorem 1) advantage bounds, used by the Figure 4
//!   reproduction.
//! * [`pipeline`] — the end-to-end orchestration with wall-clock
//!   instrumentation (LF application → Λ → backend selection → training
//!   → `Ỹ`), which the §3 speedup experiments time — plus the optional
//!   [`pipeline::DiscTrainer`] distillation stage (§2.4): a noise-aware
//!   discriminative model trained on `Ỹ` that generalizes beyond the
//!   labeling functions' coverage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops over parallel arrays are the house style in the numeric
// kernels; iterator rewrites obscure the paired-index math.
#![allow(clippy::needless_range_loop)]

pub mod bounds;
pub mod label_model;
pub mod model;
mod moment;
pub mod optimizer;
pub mod pipeline;
pub mod structure;
pub mod vote;

pub use label_model::{LabelModel, MajorityVoteModel, ModelRegistry, MomentModel};
pub use model::{
    ClassBalance, FitReport, GenerativeModel, LabelScheme, ModelParams, ParamsError, TrainConfig,
};
pub use optimizer::{
    choose_strategy, select_model, ModelingStrategy, OptimizerConfig, StrategyDecision,
};
pub use pipeline::{
    run_pipeline, DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig, PipelineReport,
};
pub use structure::{learn_structure, StructureConfig, StructureReport};
pub use vote::{majority_vote, modeling_advantage, weighted_vote};

/// The number of worker threads the all-core trainers (the CD fit and
/// the structure sweep) use: the available cores.
///
/// Read on every call rather than cached: the lookup reads cgroup files
/// and allocates, and a cache would charge those allocations to
/// whichever fit runs first in a process — the one
/// `tests/no_alloc_training.rs` compares against a later fit.
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
