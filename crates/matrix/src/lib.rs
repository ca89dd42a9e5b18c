//! # snorkel-matrix
//!
//! The label matrix `Λ ∈ (Y ∪ {∅})^{m×n}` (paper §2) and its diagnostics.
//!
//! Applying `n` labeling functions to `m` unlabeled data points yields a
//! sparse matrix of votes: most LFs abstain on most points. This crate
//! stores Λ in compressed-sparse-row form ([`LabelMatrix`]), supports both
//! the binary scheme (votes in `{−1, +1}`, abstain = 0) and the
//! multi-class scheme (votes in `{1..=k}`, abstain = 0), and computes the
//! diagnostics Snorkel surfaces to LF developers and to the modeling
//! optimizer:
//!
//! * per-LF **coverage / overlap / conflict** ([`stats::LfSummary`])
//! * the **label density** `d_Λ` driving the MV-vs-GM tradeoff (§3.1)
//! * **empirical accuracy** against a labeled development set
//! * class balance and polarity checks
//!
//! For the interactive dev loop, Λ also supports **delta updates**
//! ([`MatrixDelta`]): single-pass column replace/append/remove splices and
//! row-batch appends that are bit-identical to a full rebuild — the storage
//! substrate of the `snorkel-incr` incremental engine.
//!
//! For scale-out inference over millions of candidates, rows are
//! **deduplicated by vote signature** ([`PatternIndex`]) so model passes
//! run once per unique pattern, weighted by multiplicity, instead of
//! once per row. One index covers all of Λ, so no result depends on the
//! core count. Its signatures live in a [`SigTable`], the one
//! hash-consing table for vote signatures, which the serving layer's
//! posterior memo uses too. [`Fnv1a`] is the one unkeyed byte hash:
//! snapshot and WAL checksums, LF fingerprints and hashed text features.
//!
//! ```
//! use snorkel_matrix::LabelMatrixBuilder;
//!
//! let mut b = LabelMatrixBuilder::new(3, 2);
//! b.set(0, 0, 1);
//! b.set(0, 1, -1);
//! b.set(2, 1, 1);
//! let lambda = b.build();
//! assert_eq!(lambda.nnz(), 3);
//! assert!((lambda.label_density() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod delta;
mod fnv;
mod pattern;
mod sigtable;
pub mod stats;

pub use csr::{
    assert_legal_vote, is_legal_vote, LabelMatrix, LabelMatrixBuilder, SelectError, Vote, ABSTAIN,
};
pub use delta::MatrixDelta;
pub use fnv::Fnv1a;
pub use pattern::{PatternIndex, ShardedMatrix};
pub use sigtable::SigTable;
pub use stats::{LfSummary, MatrixStats};
