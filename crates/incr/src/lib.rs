//! # snorkel-incr
//!
//! The **incremental labeling engine**: turns the batch
//! `LFs → Λ → strategy → training` pipeline into an interactive dev loop
//! where editing one labeling function out of `n` costs `O(m)` instead
//! of `O(n·m + training-from-scratch)`.
//!
//! The paper's core workflow is a *loop* — users iteratively write and
//! edit labeling functions, re-apply the suite, and re-fit the
//! generative model (§2.1, appendix C); its §3 timing results exist
//! because iteration latency is the product bottleneck. This crate makes
//! each turn of that loop incremental:
//!
//! * [`LfResultCache`] — a content-addressed cache of LF outputs keyed
//!   by `(lf_fingerprint, candidate)`, stored column-wise. Editing one
//!   LF re-executes only that LF's column (in parallel, via the existing
//!   [`snorkel_lf::LfExecutor`]); ingesting a candidate batch executes
//!   only the new rows of each column.
//! * **Delta Λ updates** — the cache feeds
//!   [`snorkel_matrix::MatrixDelta`] column splices and row appends, so
//!   Λ is patched in place, bit-identical to a full rebuild.
//! * **Warm-start training** — the session holds whichever
//!   [`snorkel_core::label_model::LabelModel`] variant the optimizer
//!   selected and refits it through its `fit_warm`: the exact
//!   generative backend restarts EM from the previous refresh's
//!   parameters (edited columns re-enter at their conditional MLE),
//!   converging to the same optimizer-independent fixed point as a cold
//!   fit — marginals agree to ≤1e-9 on the exact path. Fit-free
//!   backends (majority vote, the closed-form moment estimator) refit
//!   from scratch because a cold fit is already the cheap path.
//! * **Structure-sweep reuse** — on a one-column edit the Algorithm-1
//!   ε-sweep (the expensive half of strategy selection) is skipped and
//!   the previous correlation structure is reused; the cheap `A~*`
//!   advantage bound is always re-checked.
//! * **Reused refresh scratch** — the session owns a
//!   [`snorkel_matrix::ResignScratch`] threaded into the sharded plan's
//!   delta column re-signs, so repeated edits stop allocating once the
//!   buffers reach the workload's high-water mark (reported on the
//!   `snorkel_incr_scratch_bytes` gauge; budgets in
//!   `docs/PERFORMANCE.md`).
//!
//! [`IncrementalSession`] ties these together behind an
//! add/edit/remove/ingest/[`refresh`](IncrementalSession::refresh) API.
//!
//! ## Cache key scheme and invalidation
//!
//! A [`Fingerprint`] names one behavioral version of one LF: it hashes
//! the LF's *name* plus a content tag — caller-supplied (content hash of
//! the LF's definition; reverts become cache hits) or a session-assigned
//! per-name version counter (conservative: every untagged edit is
//! assumed to change behavior). Invalidation follows from the key:
//!
//! | event | effect |
//! |---|---|
//! | LF edited | new fingerprint ⇒ that column misses and is re-executed; all other columns hit |
//! | LF removed / re-added | old column stays cached (LRU) ⇒ re-adding the same version is free |
//! | candidates ingested | every column extends itself over the new rows only |
//! | candidate mutated in place | **not tracked** — violates the append-only contract; call [`IncrementalSession::invalidate_cache`] |
//!
//! ## Example
//!
//! ```
//! use snorkel_context::Corpus;
//! use snorkel_incr::{IncrementalSession, SessionConfig};
//! use snorkel_lf::lf;
//! use snorkel_nlp::tokenize;
//!
//! let mut corpus = Corpus::new();
//! let doc = corpus.add_document("d");
//! for i in 0..20 {
//!     let text = if i % 2 == 0 { "a causes b" } else { "a treats b" };
//!     let s = corpus.add_sentence(doc, text, tokenize(text));
//!     let x = corpus.add_span(s, 0, 1, Some("X"));
//!     let y = corpus.add_span(s, 2, 3, Some("Y"));
//!     corpus.add_candidate(vec![x, y]);
//! }
//!
//! let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
//! session.add_lf(lf("lf_causes", |x| {
//!     if x.words_between(0, 1).contains(&"causes") { 1 } else { 0 }
//! }));
//! session.add_lf(lf("lf_treats", |x| {
//!     if x.words_between(0, 1).contains(&"treats") { -1 } else { 0 }
//! }));
//! let (labels, report) = session.refresh();
//! assert_eq!(labels.len(), 20);
//! assert_eq!(report.columns_recomputed, 2); // first refresh: all cold
//!
//! // Edit one LF: only its column re-executes.
//! session.edit_lf(lf("lf_treats", |x| {
//!     if x.words_between(0, 1).iter().any(|w| *w == "treats") { -1 } else { 0 }
//! }));
//! let (_, report) = session.refresh();
//! assert_eq!(report.columns_recomputed, 1);
//! assert_eq!(report.columns_reused, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fingerprint;
mod session;

pub use cache::{CacheStats, FrozenCache, FrozenColumn, LfResultCache};
pub use fingerprint::Fingerprint;
pub use session::{
    DiscState, DiscTrainingSet, FrozenDisc, FrozenSession, IncrementalSession, IngestReport,
    LambdaUpdate, RefreshReport, RefreshTimings, SessionConfig, ThawError,
};
