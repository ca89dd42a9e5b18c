//! Per-session streaming state: the running moment statistics, the
//! drift detector, and the lifetime counters, plus the frozen image
//! persisted in the snapshot format's `STRM` section.

use crate::drift::{DriftConfig, DriftDetector, WindowStats};
use snorkel_core::label_model::{MomentStats, MomentStatsParts};
use snorkel_core::model::LabelScheme;
use snorkel_matrix::{LabelMatrix, Vote};
use snorkel_obs::{Counter, Gauge};
use std::sync::Arc;
use std::sync::OnceLock;

/// Metrics of the streaming plane owned by this crate (the serving
/// layer registers the queue/backpressure series, `incr` the per-LF
/// gauges and latency histogram — each layer names what it owns).
struct StreamMetrics {
    /// `snorkel_stream_ingest_batches_total`
    batches: Arc<Counter>,
    /// `snorkel_stream_ingest_rows_total`
    rows: Arc<Counter>,
    /// `snorkel_stream_auto_refits_total`
    auto_refits: Arc<Counter>,
    /// `snorkel_stream_drift_score_ppm` — overall score × 10⁶ (the
    /// registry's gauges are integers; scores live in `[0, 1]`).
    drift_score: Arc<Gauge>,
}

/// Encode a `[0, 1]` score for an integer gauge (parts per million).
fn score_ppm(score: f64) -> i64 {
    (score * 1_000_000.0).round() as i64
}

fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = snorkel_obs::global();
        StreamMetrics {
            batches: reg.counter("snorkel_stream_ingest_batches_total", &[]),
            rows: reg.counter("snorkel_stream_ingest_rows_total", &[]),
            auto_refits: reg.counter("snorkel_stream_auto_refits_total", &[]),
            drift_score: reg.gauge("snorkel_stream_drift_score_ppm", &[]),
        }
    })
}

/// The streaming state a session keeps alive between ingested batches:
/// a running [`MomentStats`] (the online moment backend's input), a
/// [`DriftDetector`], and lifetime counters. One instance per session;
/// the session folds each ingested row in under its write lock and
/// refits from the totals — no pass over Λ in steady state.
#[derive(Clone, Debug)]
pub struct StreamState {
    stats: MomentStats,
    detector: DriftDetector,
    batches: u64,
    rows: u64,
    auto_refits: u64,
}

impl StreamState {
    /// Fresh streaming state over `n` LFs under `scheme`.
    pub fn new(n: usize, scheme: LabelScheme, config: DriftConfig) -> Self {
        StreamState {
            stats: MomentStats::new(n, scheme),
            detector: DriftDetector::new(n, scheme, config),
            batches: 0,
            rows: 0,
            auto_refits: 0,
        }
    }

    /// Number of LF columns the state covers.
    pub fn num_lfs(&self) -> usize {
        self.stats.num_lfs()
    }

    /// The label scheme the statistics run under.
    pub fn scheme(&self) -> LabelScheme {
        self.stats.scheme()
    }

    /// The running sufficient statistics (feed to
    /// `MomentModel::fit_from_stats`, or `fit_online` on the
    /// `LabelModel` enum).
    pub fn stats(&self) -> &MomentStats {
        &self.stats
    }

    /// The drift detector (windows, reference, configuration).
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// Fold one ingested row into both the running statistics and the
    /// drift detector's current window.
    pub fn observe_row(&mut self, cols: &[u32], votes: &[Vote]) {
        self.stats.accumulate(cols, votes, 1.0);
        self.detector.observe_row(cols, votes);
        self.rows += 1;
    }

    /// Mark one ingested batch complete and publish the stream gauges.
    pub fn note_batch(&mut self, batch_rows: usize) {
        self.batches += 1;
        let m = stream_metrics();
        m.batches.inc();
        m.rows.add(batch_rows as u64);
        m.drift_score.set(score_ppm(self.detector.score()));
    }

    /// Latest overall drift score (max per-LF divergence vs reference).
    pub fn drift_score(&self) -> f64 {
        self.detector.score()
    }

    /// Latest per-LF divergence scores.
    pub fn per_lf_scores(&self) -> &[f64] {
        self.detector.per_lf_scores()
    }

    /// Whether the latest sealed window crossed the drift threshold.
    pub fn drifted(&self) -> bool {
        self.detector.drifted()
    }

    /// Lifetime ingested batches.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Lifetime ingested rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Lifetime automatic drift-triggered refits.
    pub fn auto_refits(&self) -> u64 {
        self.auto_refits
    }

    /// Record that drift was answered with an automatic warm refit:
    /// bumps the counter and re-anchors the detector so the post-refit
    /// regime is the new baseline.
    pub fn record_auto_refit(&mut self) {
        self.auto_refits += 1;
        self.detector.rebase();
        let m = stream_metrics();
        m.auto_refits.inc();
        m.drift_score.set(score_ppm(self.detector.score()));
    }

    /// Rebuild the running statistics from Λ after a structural suite
    /// edit (LFs added/removed re-shape every per-LF vector). The
    /// batch recompute is acceptable here — edits are rare, ingest is
    /// not — and lifetime counters survive; the drift baseline restarts
    /// because per-LF windows are not comparable across suite shapes.
    pub fn rebuild_from_matrix(&mut self, lambda: &LabelMatrix) {
        let n = lambda.num_lfs();
        let scheme = self.stats.scheme();
        let mut stats = MomentStats::new(n, scheme);
        stats.accumulate_matrix(lambda);
        self.stats = stats;
        self.detector = DriftDetector::new(n, scheme, self.detector.config().clone());
    }

    /// Export the persistent image (snapshot `STRM` section payload).
    pub fn freeze(&self) -> FrozenStream {
        FrozenStream {
            stats: self.stats.to_parts(),
            config: self.detector.config().clone(),
            reference: self.detector.reference().cloned(),
            batches: self.batches,
            rows: self.rows,
            auto_refits: self.auto_refits,
            drift_score: self.detector.score(),
            per_lf_scores: self.detector.per_lf_scores().to_vec(),
        }
    }

    /// Rebuild from a frozen image, validating every invariant
    /// (snapshot decoders hand this untrusted data). The window ring
    /// and the partially filled current window restart empty — they
    /// are diagnostic state a resumed process re-fills within one
    /// window of traffic.
    pub fn thaw(frozen: FrozenStream) -> Result<StreamState, ThawStreamError> {
        let stats = MomentStats::from_parts(frozen.stats).map_err(ThawStreamError::BadStats)?;
        let n = stats.num_lfs();
        let scheme = stats.scheme();
        frozen
            .config
            .validate()
            .map_err(ThawStreamError::BadConfig)?;
        if let Some(reference) = &frozen.reference {
            reference.validate(n).map_err(ThawStreamError::BadWindow)?;
        }
        if frozen.per_lf_scores.len() != n {
            return Err(ThawStreamError::BadStats(format!(
                "per-LF scores have {} entries, want {n}",
                frozen.per_lf_scores.len()
            )));
        }
        for score in frozen.per_lf_scores.iter().chain([&frozen.drift_score]) {
            if !(score.is_finite() && (0.0..=1.0).contains(score)) {
                return Err(ThawStreamError::BadStats(format!(
                    "drift score {score} outside [0, 1]"
                )));
            }
        }
        let detector = DriftDetector::restore(
            n,
            scheme,
            frozen.config,
            frozen.reference,
            WindowStats::new(n),
            frozen.drift_score,
            frozen.per_lf_scores,
        );
        Ok(StreamState {
            stats,
            detector,
            batches: frozen.batches,
            rows: frozen.rows,
            auto_refits: frozen.auto_refits,
        })
    }
}

/// The plain-data image of a [`StreamState`] — what snapshot format v4
/// persists in the `STRM` section: running moment totals, drift
/// configuration, the frozen reference window, the latest scores, and
/// the lifetime counters. The diagnostic window ring is deliberately
/// not part of the image.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenStream {
    /// Running moment sufficient statistics.
    pub stats: MomentStatsParts,
    /// Drift detector configuration.
    pub config: DriftConfig,
    /// Frozen reference window (absent until the first window sealed).
    pub reference: Option<WindowStats>,
    /// Lifetime ingested batches.
    pub batches: u64,
    /// Lifetime ingested rows.
    pub rows: u64,
    /// Lifetime automatic drift-triggered refits.
    pub auto_refits: u64,
    /// Latest overall drift score.
    pub drift_score: f64,
    /// Latest per-LF divergence scores (`num_lfs` entries).
    pub per_lf_scores: Vec<f64>,
}

/// Why a [`FrozenStream`] was rejected at thaw time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThawStreamError {
    /// The moment statistics or scores are malformed; the string names
    /// the violated invariant.
    BadStats(String),
    /// The reference window's counts are inconsistent.
    BadWindow(String),
    /// The drift configuration is out of range.
    BadConfig(String),
}

impl std::fmt::Display for ThawStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThawStreamError::BadStats(why) => write!(f, "bad stream statistics: {why}"),
            ThawStreamError::BadWindow(why) => write!(f, "bad reference window: {why}"),
            ThawStreamError::BadConfig(why) => write!(f, "bad drift config: {why}"),
        }
    }
}

impl std::error::Error for ThawStreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_state(rows: usize) -> StreamState {
        let config = DriftConfig {
            window_rows: 4,
            ..DriftConfig::default()
        };
        let mut state = StreamState::new(3, LabelScheme::Binary, config);
        for i in 0..rows {
            let v = if i % 2 == 0 { 1 } else { -1 };
            state.observe_row(&[0, 1, 2], &[v, v, -v]);
        }
        state.note_batch(rows);
        state
    }

    #[test]
    fn freeze_thaw_round_trips() {
        let mut state = filled_state(10);
        state.record_auto_refit();
        let frozen = state.freeze();
        let thawed = StreamState::thaw(frozen.clone()).expect("thaw");
        assert_eq!(thawed.stats(), state.stats());
        assert_eq!(thawed.batches(), state.batches());
        assert_eq!(thawed.rows(), state.rows());
        assert_eq!(thawed.auto_refits(), state.auto_refits());
        assert_eq!(thawed.drift_score(), state.drift_score());
        assert_eq!(thawed.detector().reference(), state.detector().reference());
        // Round-tripping the thawed state reproduces the same image.
        assert_eq!(thawed.freeze(), frozen);
    }

    #[test]
    fn thaw_rejects_corruption() {
        let state = filled_state(10);
        let good = state.freeze();

        let mut bad = good.clone();
        bad.per_lf_scores.pop();
        assert!(matches!(
            StreamState::thaw(bad),
            Err(ThawStreamError::BadStats(_))
        ));

        let mut bad = good.clone();
        bad.drift_score = f64::NAN;
        assert!(matches!(
            StreamState::thaw(bad),
            Err(ThawStreamError::BadStats(_))
        ));

        let mut bad = good.clone();
        bad.config.window_rows = 0;
        assert!(matches!(
            StreamState::thaw(bad),
            Err(ThawStreamError::BadConfig(_))
        ));

        let mut bad = good.clone();
        if let Some(reference) = &mut bad.reference {
            reference.agree_mv[0] = reference.total_mv[0] + 1;
        }
        assert!(matches!(
            StreamState::thaw(bad),
            Err(ThawStreamError::BadWindow(_))
        ));
    }

    #[test]
    fn rebuild_from_matrix_keeps_counters_and_matches_batch() {
        use snorkel_matrix::LabelMatrixBuilder;
        let mut state = filled_state(8);
        let mut b = LabelMatrixBuilder::new(6, 4);
        for i in 0..6 {
            let v: Vote = if i % 2 == 0 { 1 } else { -1 };
            b.set(i, 0, v);
            b.set(i, 1, v);
            b.set(i, 3, -v);
        }
        let lambda = b.build();
        state.rebuild_from_matrix(&lambda);
        assert_eq!(state.num_lfs(), 4);
        assert_eq!(state.batches(), 1, "lifetime counters survive rebuild");
        let mut batch = MomentStats::new(4, LabelScheme::Binary);
        batch.accumulate_matrix(&lambda);
        assert_eq!(state.stats(), &batch);
    }
}
