//! # snorkel-lf
//!
//! The labeling-function interface layer (paper §2.1): *a unifying
//! programming language for weak supervision*.
//!
//! A labeling function (LF) is a black-box function `λ : X → Y ∪ {∅}`
//! that votes on a candidate or abstains. This crate provides:
//!
//! * the [`LabelingFunction`] trait and the [`lf`] helper for arbitrary
//!   hand-written Rust closures (the paper's "custom Python functions");
//! * **declarative operators** covering the common weak-supervision
//!   families (§2.1): [`PatternLf`] (slot-template patterns — the
//!   paper's `lf_search`), [`KeywordBetweenLf`] (the running `LF_causes`
//!   example), [`ThresholdLf`] (weak classifiers with score thresholds);
//! * **distant supervision** from a [`KnowledgeBase`], including the
//!   LF *generator* of Example 2.4 ([`ontology_lfs`]) that expands one
//!   resource into one LF per KB subset;
//! * **crowdsourcing as labeling functions** ([`crowd_lfs`]), one LF per
//!   worker, subsuming crowd-label modeling (§4.1.2);
//! * the [`LfExecutor`], which applies an LF suite over a corpus —
//!   serially or across threads (LF application is embarrassingly
//!   parallel, paper appendix C) — and materializes the label matrix Λ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crowd;
mod declarative;
mod executor;
mod kb;
mod traits;

pub use crowd::{crowd_lfs, CrowdWorkerLf};
pub use declarative::{KeywordBetweenLf, PatternLf, ThresholdLf};
pub use executor::{LfCounters, LfExecutor};
pub use kb::{ontology_lfs, KnowledgeBase, OntologyLf};
pub use traits::{lf, BoxedLf, FnLf, LabelingFunction};

/// Re-export of the vote type LFs emit (0 = abstain).
pub use snorkel_matrix::{Vote, ABSTAIN};
