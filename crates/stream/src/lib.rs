//! # snorkel-stream
//!
//! The **streaming ingestion plane**: the state a labeling service
//! needs to keep accepting candidate batches *while it serves* — the
//! paper's deployment setting (and Snorkel DryBell's production story)
//! of LFs voting over live traffic rather than a frozen corpus.
//!
//! Batch ingestion already exists (`IncrementalSession` appends rows
//! and re-fits); what it lacks is a cost model that survives continuous
//! arrival. A cold moment fit is one pass over Λ — `O(m)` per batch is
//! `O(m²)` over a stream's life. This crate closes that gap with three
//! pieces, all owned here and threaded through `incr` and `serve`:
//!
//! * [`StreamState`] — the per-session streaming state: a running
//!   [`snorkel_core::label_model::MomentStats`] folded forward per
//!   ingested batch, so the moment backend's closed-form accuracies
//!   re-solve from totals in `O(n³)` (`MomentModel::fit_from_stats`) —
//!   **no pass over Λ, ever, in steady state**. The invariant that the
//!   running totals equal a batch recompute over the same rows
//!   bit-for-bit is property-tested in `tests/proptest_stream.rs`.
//! * [`DriftDetector`] — windowed per-LF coverage/agreement/conflict
//!   statistics over the ingested stream (a ring of fixed-size
//!   [`WindowStats`]), compared against a frozen reference window via a
//!   normalized divergence score in `[0, 1]`. A score crossing the
//!   configured threshold reports [`StreamState::drifted`], which the
//!   session answers with an automatic warm refit (bumping
//!   `refresh_generation`, so `PREDICT` staleness lag becomes visible
//!   under drift) and a [`DriftDetector::rebase`] to the new regime.
//! * [`IngestGate`] — bounded admission for the ingest path: a
//!   lock-free depth counter with an RAII permit. When the configured
//!   bound is reached, the serving layer refuses with
//!   `ERR backpressure` / `STATUS_ERR` instead of queueing unboundedly
//!   (`docs/PROTOCOL.md` has the normative grammar).
//!
//! Freezing: [`FrozenStream`] is the plain-data image persisted in the
//! snapshot format's `STRM` section (`docs/SNAPSHOT_FORMAT.md`) — drift
//! configuration, reference window, scores and the lifetime counters —
//! so a kill/resume keeps the drift baseline intact. The running moment
//! totals are not in it: [`StreamState::thaw`] takes them folded from
//! the thawed Λ's pattern index, which keeps the online model warm. The in-memory ring of *recent*
//! windows is deliberately not persisted: it is diagnostic state, and a
//! resumed process re-fills it within one window of traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod gate;
mod state;

pub use drift::{DriftConfig, DriftDetector, WindowStats};
pub use gate::{IngestGate, IngestPermit};
pub use state::{FrozenStream, StreamState, ThawStreamError};
