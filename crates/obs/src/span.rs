//! RAII span timers and the ring-buffer trace log.
//!
//! A [`Span`] times a scope into a histogram
//! (`snorkel_span_seconds{span="<name>"}` in the global registry) and,
//! when its level passes the [`trace_level`] filter, logs the completed
//! span into the global [`TraceRing`] — the fixed-capacity buffer the
//! serving layer's `SLOWLOG` verb reads back. Span names are `'static`
//! and ring slots are pre-allocated, so recording never allocates.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// How much the trace ring records, set by the `SNORKEL_OBS_TRACE`
/// environment variable (`off` | `info` | `debug`; default `info`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Trace nothing.
    Off,
    /// Trace request-level spans (the default — `SLOWLOG` works out of
    /// the box).
    Info,
    /// Also trace fine-grained internal spans (refresh stages, pipeline
    /// stages).
    Debug,
}

/// The active trace filter: `SNORKEL_OBS_TRACE`, read once per process.
pub fn trace_level() -> TraceLevel {
    // 0 = unread, 1 = Off, 2 = Info, 3 = Debug.
    static LEVEL: AtomicU8 = AtomicU8::new(0);
    match LEVEL.load(Ordering::Relaxed) {
        1 => TraceLevel::Off,
        2 => TraceLevel::Info,
        3 => TraceLevel::Debug,
        _ => {
            let level = match std::env::var("SNORKEL_OBS_TRACE").as_deref() {
                Ok("off") | Ok("0") => TraceLevel::Off,
                Ok("debug") => TraceLevel::Debug,
                _ => TraceLevel::Info,
            };
            LEVEL.store(
                match level {
                    TraceLevel::Off => 1,
                    TraceLevel::Info => 2,
                    TraceLevel::Debug => 3,
                },
                Ordering::Relaxed,
            );
            level
        }
    }
}

/// One completed span in the trace ring.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Span name (static: verb names, stage names).
    pub name: &'static str,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Monotone sequence number (recording order; higher = more
    /// recent).
    pub seq: u64,
}

struct RingInner {
    /// Pre-allocated slots; `len` grows to capacity then stays there.
    slots: Vec<TraceEntry>,
    next: usize,
    seq: u64,
}

/// A fixed-capacity ring of the most recent trace entries. Recording
/// overwrites the oldest slot; nothing ever allocates after
/// construction.
pub struct TraceRing {
    inner: Mutex<RingInner>,
}

/// Capacity of the global trace ring.
const GLOBAL_RING_CAPACITY: usize = 4096;

impl TraceRing {
    /// A ring holding the `capacity` most recent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                slots: Vec::with_capacity(capacity.max(1)),
                next: 0,
                seq: 0,
            }),
        }
    }

    /// The process-global ring — what [`Span`]s write to and `SLOWLOG`
    /// reads.
    pub fn global() -> &'static TraceRing {
        static GLOBAL: OnceLock<TraceRing> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceRing::with_capacity(GLOBAL_RING_CAPACITY))
    }

    /// Record one completed span.
    pub fn record(&self, name: &'static str, dur_ns: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.seq += 1;
        let entry = TraceEntry {
            name,
            dur_ns,
            seq: inner.seq,
        };
        if inner.slots.len() < inner.slots.capacity() {
            inner.slots.push(entry);
        } else {
            let at = inner.next;
            inner.slots[at] = entry;
        }
        inner.next = (inner.next + 1) % inner.slots.capacity().max(1);
    }

    /// Total spans ever recorded (not just the ones still buffered).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// The `n` slowest buffered entries, slowest first (ties broken
    /// most-recent first).
    pub fn slowest(&self, n: usize) -> Vec<TraceEntry> {
        let mut entries: Vec<TraceEntry> = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.slots.clone()
        };
        entries.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(b.seq.cmp(&a.seq)));
        entries.truncate(n);
        entries
    }
}

/// An RAII timer: created via [`span`]/[`span_at`] (or directly with
/// [`Span::start`] around a pre-resolved histogram handle for hot
/// paths). On drop — or an explicit [`Span::finish`] — it records its
/// elapsed time into the histogram and, when `level` passes the
/// [`trace_level`] filter, into the global [`TraceRing`].
pub struct Span {
    name: &'static str,
    start: Instant,
    hist: Option<Arc<Histogram>>,
    level: TraceLevel,
    done: bool,
}

impl Span {
    /// Start a span feeding a pre-resolved histogram handle — the
    /// allocation-free hot-path constructor (no registry lookup).
    pub fn start(name: &'static str, hist: Arc<Histogram>, level: TraceLevel) -> Span {
        Span {
            name,
            start: Instant::now(),
            hist: Some(hist),
            level,
            done: false,
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    fn record(&mut self) -> Duration {
        self.done = true;
        let elapsed = self.start.elapsed();
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        if let Some(hist) = &self.hist {
            hist.record_ns(ns);
        }
        if self.level != TraceLevel::Off && self.level <= trace_level() {
            TraceRing::global().record(self.name, ns);
        }
        elapsed
    }

    /// Stop the span now and hand back its duration (so one timing can
    /// feed both the live metrics and a caller-side report — a single
    /// source of truth).
    pub fn finish(mut self) -> Duration {
        self.record()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.record();
        }
    }
}

/// Start an [`Info`](TraceLevel::Info)-level span timing into
/// `snorkel_span_seconds{span="<name>"}` of the global registry.
pub fn span(name: &'static str) -> Span {
    span_at(name, TraceLevel::Info)
}

/// [`span`] with an explicit trace level (use
/// [`Debug`](TraceLevel::Debug) for fine-grained internal stages so
/// they stay out of the default `SLOWLOG` view).
pub fn span_at(name: &'static str, level: TraceLevel) -> Span {
    let hist = crate::global().histogram("snorkel_span_seconds", &[("span", name)]);
    Span {
        name,
        start: Instant::now(),
        hist: Some(hist),
        level,
        done: false,
    }
}

/// Start a [`Debug`](TraceLevel::Debug)-level span for one stage of a
/// staged operation, timing into `family{stage="<stage>"}` of the global
/// registry. [`Span::finish`] hands back the duration, so a caller's
/// per-stage report and the live metric are the same measurement.
pub fn stage_span(family: &str, stage: &'static str) -> Span {
    let hist = crate::global().histogram(family, &[("stage", stage)]);
    Span::start(stage, hist, TraceLevel::Debug)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_sorts_slowest() {
        let ring = TraceRing::with_capacity(4);
        for i in 1..=6u64 {
            ring.record("t", i * 100);
        }
        assert_eq!(ring.recorded(), 6);
        let slow = ring.slowest(2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].dur_ns, 600);
        assert_eq!(slow[1].dur_ns, 500);
        // Entries 1 and 2 were overwritten (capacity 4).
        let all = ring.slowest(10);
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|e| e.dur_ns >= 300));
    }

    #[test]
    fn span_records_into_histogram_and_reports_duration() {
        let hist = Arc::new(Histogram::new());
        let span = Span::start("unit", Arc::clone(&hist), TraceLevel::Off);
        std::thread::sleep(Duration::from_millis(1));
        let d = span.finish();
        assert!(d >= Duration::from_millis(1));
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum >= 1_000_000);
    }

    #[test]
    fn span_drop_records_once() {
        let hist = Arc::new(Histogram::new());
        {
            let _span = Span::start("unit", Arc::clone(&hist), TraceLevel::Off);
        }
        assert_eq!(hist.snapshot().count(), 1);
        let span = Span::start("unit", Arc::clone(&hist), TraceLevel::Off);
        let _ = span.finish();
        assert_eq!(hist.snapshot().count(), 2, "finish + drop records once");
    }

    #[test]
    fn global_span_feeds_global_registry() {
        let before = TraceRing::global().recorded();
        {
            let _s = crate::span!("obs.unit_test");
        }
        let text = crate::global().expose();
        assert!(text.contains("snorkel_span_seconds_bucket{span=\"obs.unit_test\""));
        // Default level Info traces into the global ring (unless the
        // environment explicitly disabled tracing).
        if trace_level() != TraceLevel::Off {
            assert!(TraceRing::global().recorded() > before);
        }
    }
}
