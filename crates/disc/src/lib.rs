//! # snorkel-disc
//!
//! Noise-aware discriminative models and evaluation metrics (paper
//! §2.3).
//!
//! Snorkel's end goal is a classifier that *generalizes beyond* the
//! labeling functions: it trains any model with a standard loss on the
//! probabilistic labels `Ỹ` by minimizing the noise-aware empirical risk
//!
//! ```text
//! θ̂ = argmin_θ Σ_i E_{y∼Ỹ_i} [ ℓ(h_θ(x_i), y) ]
//! ```
//!
//! which for log-loss is exactly cross-entropy against the soft label.
//! The paper used a biLSTM (text) and a pre-trained ResNet-50 (images);
//! those stacks are substituted here by models that preserve every
//! comparison the evaluation makes, since all arms share the end model:
//!
//! * [`LogisticRegression`] — sparse linear model over hashed text
//!   features ([`TextFeaturizer`]), for the relation-extraction tasks;
//! * [`SoftmaxRegression`] — its multi-class counterpart (Crowd task);
//! * [`Mlp`] — a dense ReLU network for dense feature vectors (the
//!   Radiology task's stand-in for ResNet embeddings).
//!
//! All three train with Adam, support soft (probabilistic) *and* hard
//! labels — the hand-supervision baselines are literally the same model
//! fit on hard labels — and are deterministic under a fixed seed.
//!
//! [`DistilledModel`] wraps the linear models behind the serving-side
//! distillation surface: noise-aware minibatch training on label-model
//! marginals, one sequential canonical-order gradient pass per step
//! (abstain-marginal rows down-weighted), warm refits, and a stable
//! [`DiscModelParts`] encoding that `snorkel-serve` snapshots.
//!
//! [`metrics`] implements precision/recall/F1 (with the appendix A.5
//! convention that an abstaining/zero prediction counts as a negative),
//! accuracy, and rank-based ROC-AUC.
//!
//! # Example: hash features → noise-aware fit → predict
//!
//! ```
//! use snorkel_disc::{hash_features, DistillConfig, DistilledModel};
//!
//! // Hashed feature vectors for four candidates. In production these
//! // come from `TextFeaturizer::featurize`; `hash_features` is the
//! // raw-feature-string path the `PREDICT` wire verb uses.
//! let dim = 1 << 10;
//! let xs = vec![
//!     hash_features(["btw=causes", "u=magnesium"], dim),
//!     hash_features(["btw=causes", "u=cisplatin"], dim),
//!     hash_features(["btw=treats", "u=aspirin"], dim),
//!     hash_features(["btw=treats", "u=ibuprofen"], dim),
//! ];
//!
//! // Probabilistic labels from a label model: P(+1) first. The last
//! // row is an all-abstain (uniform) marginal — it carries no signal
//! // and is dropped by the confidence weighting.
//! let marginals = vec![
//!     vec![0.9, 0.1],
//!     vec![0.8, 0.2],
//!     vec![0.15, 0.85],
//!     vec![0.5, 0.5],
//! ];
//!
//! let mut model = DistilledModel::new(dim, 2);
//! let cfg = DistillConfig { dim, epochs: 40, ..DistillConfig::default() };
//! let report = model.fit(&xs, &marginals, &cfg);
//! assert_eq!(report.rows_trained, 3);
//! assert_eq!(report.rows_dropped, 1);
//!
//! // The distilled model scores a candidate no labeling function ever
//! // saw — zero LF coverage — from its features alone.
//! let unseen = hash_features(["btw=causes", "u=etoposide"], dim);
//! let p = model.predict_proba(&unseen);
//! assert!(p[0] > 0.5, "'causes' features should score positive: {p:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
pub mod analysis;
mod distill;
mod features;
mod logreg;
pub mod metrics;
mod mlp;
mod softmax;

pub use adam::Adam;
pub use analysis::{Bucket, ErrorBuckets};
pub use distill::{
    hash_features, hash_features_into, marginal_confidence, DiscModelParts, DistillConfig,
    DistillReport, DistilledModel,
};
pub use features::{feature_bucket, feature_hash, hash_feature, TextFeaturizer};
pub use logreg::{LogRegConfig, LogisticRegression};
pub use metrics::{accuracy, f1_score, precision_recall_f1, roc_auc, Prf};
pub use mlp::{Mlp, MlpConfig};
pub use softmax::{SoftmaxConfig, SoftmaxRegression};
