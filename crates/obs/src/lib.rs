//! # snorkel-obs
//!
//! Zero-dependency observability for the snorkel-rs serving stack:
//! lock-free atomic [`Counter`]s and [`Gauge`]s, fixed-bucket log-scale
//! latency [`Histogram`]s with p50/p95/p99/max extraction, a
//! process-global [`Registry`] of namespaced metric handles, a
//! lightweight RAII [`Span`] timer API feeding histograms and an
//! optional ring-buffer trace log ([`TraceRing`]), and Prometheus
//! text-format exposition ([`Registry::expose`]).
//!
//! The crate is deliberately dependency-free (offline builds are a hard
//! constraint of this workspace) and allocation-free on the record path:
//! once a handle is resolved, [`Counter::inc`], [`Gauge::set`],
//! [`Histogram::record`], and [`TraceRing::record`] perform no heap
//! allocation — asserted by this crate's `no_alloc` test and the
//! `obs_overhead` microbench in `crates/bench`.
//!
//! ## Handles and the hot path
//!
//! Metrics are created (or found) by name + label set through a
//! [`Registry`]; the returned handle is an `Arc` that callers keep and
//! hit directly, so the registry lock is only ever taken at
//! registration and exposition time:
//!
//! ```
//! use snorkel_obs::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("myapp_requests_total", &[("verb", "GET")]);
//! let latency = registry.histogram("myapp_request_seconds", &[("verb", "GET")]);
//! requests.inc();
//! latency.record_ns(1_250);
//! let text = registry.expose();
//! assert!(text.contains("myapp_requests_total{verb=\"GET\"} 1"));
//! ```
//!
//! Library crates record into [`global`] so one `METRICS` scrape covers
//! every layer; tests that need exact totals construct their own
//! [`Registry`].
//!
//! ## Spans and tracing
//!
//! [`span()`] (or the [`span!`] macro) times a scope into a
//! `snorkel_span_seconds{span="<name>"}` histogram of the global
//! registry and, when tracing is enabled, logs the completed span into
//! the global [`TraceRing`] — the buffer behind the serving layer's
//! `SLOWLOG` verb. The `SNORKEL_OBS_TRACE` environment variable filters
//! what is traced: `off`, `info` (default), or `debug`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod span;
mod text;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use registry::{Registry, Series};
pub use span::{span, span_at, stage_span, trace_level, Span, TraceEntry, TraceLevel, TraceRing};
pub use text::{validate_exposition, ExpositionSummary};

use std::sync::OnceLock;

/// The process-global registry every instrumented crate records into —
/// what the serving layer's `METRICS` verb exposes.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Times a scope into a named histogram of the global registry.
///
/// `span!("refresh.fit")` is shorthand for
/// [`span("refresh.fit")`](span()); the returned guard records its
/// elapsed time on drop (or on an explicit
/// [`finish`](crate::Span::finish), which also hands the duration
/// back).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $level:expr) => {
        $crate::span_at($name, $level)
    };
}
