//! # snorkel
//!
//! Façade crate for `snorkel-rs`, a from-scratch Rust reproduction of
//! *Snorkel: Rapid Training Data Creation with Weak Supervision*
//! (Ratner et al., VLDB 2017).
//!
//! This crate re-exports the workspace's public API so applications (and
//! the repository's `examples/` and `tests/`) can depend on a single
//! crate:
//!
//! * [`context`] — the context-hierarchy data model (documents, sentences,
//!   spans, entities, candidates).
//! * [`nlp`] — the lightweight NLP substrate (tokenizer, sentence
//!   splitter, dictionary NER, candidate extraction).
//! * [`pattern`] — the pattern/regex engine used by declarative labeling
//!   functions.
//! * [`lf`] — the labeling-function interface: the [`lf::LabelingFunction`]
//!   trait, declarative operators, generators, and the parallel executor.
//! * [`matrix`] — the sparse label matrix `Λ` and labeling diagnostics.
//! * [`core`] — the data-programming core: the
//!   [`core::label_model::LabelModel`] enum over the three backends
//!   (majority vote, closed-form moment estimator, exact generative model),
//!   dependency-structure learning, the Algorithm-1 model-selection
//!   optimizer, and the end-to-end [`core::pipeline`].
//! * [`incr`] — the incremental labeling engine for the interactive dev
//!   loop: content-addressed LF-result caching, delta Λ updates, and
//!   warm-started training behind [`incr::IncrementalSession`].
//! * [`stream`] — the streaming ingestion plane: running moment
//!   sufficient statistics for online refits, windowed drift detection,
//!   and bounded ingest admission ([`stream::StreamState`],
//!   [`stream::DriftDetector`], [`stream::IngestGate`]).
//! * [`serve`] — durable session snapshots (versioned, checksummed
//!   binary format) and the concurrent TCP labeling service
//!   ([`serve::LabelServer`]).
//! * [`disc`] — noise-aware discriminative models and evaluation metrics.
//! * [`obs`] — zero-dependency observability: atomic metrics, spans, a
//!   process-global registry, and Prometheus-text exposition (the
//!   `METRICS`/`SLOWLOG` verbs of the serving layer).
//! * [`datasets`] — synthetic analogues of the paper's six applications.
//! * [`linalg`] — dense/sparse numerics shared by the model crates.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the canonical three-stage flow:
//! write labeling functions → fit the generative model → train a
//! discriminative model on the probabilistic labels.

#![forbid(unsafe_code)]

pub use snorkel_arena as arena;
pub use snorkel_context as context;
pub use snorkel_core as core;
pub use snorkel_datasets as datasets;
pub use snorkel_disc as disc;
pub use snorkel_incr as incr;
pub use snorkel_lf as lf;
pub use snorkel_linalg as linalg;
pub use snorkel_matrix as matrix;
pub use snorkel_nlp as nlp;
pub use snorkel_obs as obs;
pub use snorkel_pattern as pattern;
pub use snorkel_serve as serve;
pub use snorkel_stream as stream;
