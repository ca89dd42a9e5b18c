//! # snorkel-linalg
//!
//! Minimal, dependency-free dense/sparse linear algebra and numerics for
//! the `snorkel-rs` workspace.
//!
//! The original Snorkel system leaned on NumPy/SciPy for its numeric
//! kernels. This crate is the Rust substitute: a row-major dense matrix,
//! a sorted-index sparse vector, numerically stable scalar transforms
//! (sigmoid / log-sum-exp / softmax), and streaming summary statistics.
//! Everything is `f64`; all routines are allocation-conscious (callers can
//! reuse buffers) and panic on dimension mismatches, which are programmer
//! errors rather than data errors in this workspace.
//!
//! ## Modules
//!
//! * [`math`] — stable scalar transforms used by the generative and
//!   discriminative models.
//! * [`dense`] — row-major [`dense::Mat`] with the small set of BLAS-like
//!   kernels the models need (`matvec`, `matvec_t`, row views, axpy).
//! * [`sparse`] — [`sparse::SparseVec`], the hashed-feature representation
//!   used by the discriminative text models.
//! * [`soa`] — structure-of-arrays batch kernels for the serving read
//!   path: chunked log-sum-exp and row-wise softmax over one flat
//!   `rows × width` buffer, bit-identical to the scalar kernels in
//!   [`math`].
//! * [`stats`] — streaming mean/variance (Welford), quantiles, Pearson
//!   correlation, and a [`stats::Summary`] convenience for bench output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod math;
pub mod soa;
pub mod sparse;
pub mod stats;

pub use dense::Mat;
pub use math::{log1pexp, logsumexp, sigmoid, softmax_in_place};
pub use soa::{logsumexp_chunked, softmax_rows_in_place};
pub use sparse::{dot_dense_slices, SparseVec};
pub use stats::{OnlineStats, Summary};
