//! The interactive dev-loop session: add/edit/remove labeling functions,
//! ingest candidate batches, and [`IncrementalSession::refresh`] — which
//! recomputes *only* what the edits touched.
//!
//! The refit is the pipeline's ([`decide`], [`fit_and_label`],
//! [`DiscTrainer::fit`]); the session adds the Λ/plan splice, the
//! fingerprint → column remap and which stored structure to reuse.

use std::sync::OnceLock;
use std::time::Duration;

use snorkel_context::{CandidateId, CandidateView, Corpus};
use snorkel_core::label_model::{LabelModel, MomentStats};
use snorkel_core::model::{LabelScheme, TrainConfig};
use snorkel_core::optimizer::{decide, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{fit_and_label, DiscTrainer, DiscTrainerConfig};
use snorkel_disc::{DiscModelParts, DistillReport, DistilledModel, TextFeaturizer};
use snorkel_lf::{BoxedLf, LfCounters, LfExecutor};
use snorkel_linalg::SparseVec;
use snorkel_matrix::{LabelMatrix, MatrixDelta, PatternIndex, Vote};
use snorkel_stream::{DriftConfig, FrozenStream, StreamState};

use crate::cache::{CacheStats, FrozenCache, LfResultCache};
use crate::fingerprint::Fingerprint;

// Ingest, freeze/thaw and refresh are child modules: they see the session's private fields.
mod freeze;
mod ingest;
mod refresh;
pub use freeze::{FrozenDisc, FrozenSession, ThawError};

/// Pre-resolved global-registry handles for the incremental layer,
/// resolved once per process so refresh bookkeeping is a handful of
/// relaxed atomic stores.
struct IncrMetrics {
    cache_hits: std::sync::Arc<snorkel_obs::Counter>,
    cache_misses: std::sync::Arc<snorkel_obs::Counter>,
    cache_extensions: std::sync::Arc<snorkel_obs::Counter>,
    cache_evictions: std::sync::Arc<snorkel_obs::Counter>,
    refreshes: std::sync::Arc<snorkel_obs::Counter>,
    refresh_generation: std::sync::Arc<snorkel_obs::Gauge>,
    unique_patterns: std::sync::Arc<snorkel_obs::Gauge>,
    cache_columns: std::sync::Arc<snorkel_obs::Gauge>,
    cache_capacity: std::sync::Arc<snorkel_obs::Gauge>,
    rows: std::sync::Arc<snorkel_obs::Gauge>,
    lfs: std::sync::Arc<snorkel_obs::Gauge>,
}

fn incr_metrics() -> &'static IncrMetrics {
    static METRICS: OnceLock<IncrMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = snorkel_obs::global();
        IncrMetrics {
            cache_hits: r.counter("snorkel_incr_cache_hits_total", &[]),
            cache_misses: r.counter("snorkel_incr_cache_misses_total", &[]),
            cache_extensions: r.counter("snorkel_incr_cache_extensions_total", &[]),
            cache_evictions: r.counter("snorkel_incr_cache_evictions_total", &[]),
            refreshes: r.counter("snorkel_incr_refreshes_total", &[]),
            refresh_generation: r.gauge("snorkel_incr_refresh_generation", &[]),
            unique_patterns: r.gauge("snorkel_incr_unique_patterns", &[]),
            cache_columns: r.gauge("snorkel_incr_cache_columns", &[]),
            cache_capacity: r.gauge("snorkel_incr_cache_capacity", &[]),
            rows: r.gauge("snorkel_incr_rows", &[]),
            lfs: r.gauge("snorkel_incr_lfs", &[]),
        }
    })
}

/// The span of one refresh stage: the [`RefreshTimings`] are its
/// durations in `snorkel_incr_refresh_stage_seconds`.
fn stage_span(stage: &'static str) -> snorkel_obs::Span {
    snorkel_obs::stage_span("snorkel_incr_refresh_stage_seconds", stage)
}

/// Session configuration. The defaults mirror
/// [`snorkel_core::pipeline::PipelineConfig`], plus the incremental
/// knobs.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// LF executor (parallelism, vote-scheme cardinality).
    pub executor: LfExecutor,
    /// Label-model training settings.
    pub train: TrainConfig,
    /// Optimizer settings (Algorithm 1).
    pub optimizer: OptimizerConfig,
    /// Force a backend instead of running the optimizer.
    pub force_strategy: Option<ModelingStrategy>,
    /// Maximum cached columns (live suite columns are never evicted).
    pub cache_capacity: usize,
    /// Distillation: when set, [`IncrementalSession::distill`] trains a
    /// serving-side [`DistilledModel`] on the label model's marginals
    /// (warm across refreshes). The model carries a *staleness
    /// generation*: refreshes never block on disc retraining, they just
    /// advance [`IncrementalSession::refresh_generation`] past the
    /// disc model's.
    pub distill: Option<DiscTrainerConfig>,
    /// Drift-detector settings used when [`IncrementalSession::ingest_batch`]
    /// auto-enables streaming (window size, ring depth, refit threshold).
    pub drift: DriftConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            executor: LfExecutor::default(),
            train: TrainConfig::default(),
            optimizer: OptimizerConfig::default(),
            force_strategy: None,
            cache_capacity: 256,
            distill: None,
            drift: DriftConfig::default(),
        }
    }
}

/// Wall-clock breakdown of one refresh.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshTimings {
    /// Executing LF columns that missed the cache (or row extensions).
    pub lf_application: Duration,
    /// Patching / assembling Λ.
    pub matrix_assembly: Duration,
    /// Strategy selection (bound check, or the full sweep).
    pub strategy_selection: Duration,
    /// Generative training (zero when MV was chosen).
    pub training: Duration,
    /// Whole refresh.
    pub total: Duration,
}

/// How Λ was brought up to date.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LambdaUpdate {
    /// First refresh, or a structural suite change: assembled from cached
    /// columns in one pass.
    Assembled,
    /// Patched in place with column/row deltas.
    Patched {
        /// Columns spliced by [`MatrixDelta::ReplaceColumn`].
        columns_replaced: usize,
        /// Rows appended by [`MatrixDelta::AppendRows`].
        rows_appended: usize,
    },
    /// Nothing changed; the previous Λ was reused untouched.
    Unchanged,
}

/// Everything one [`IncrementalSession::refresh`] did and produced,
/// besides the labels themselves.
#[derive(Clone, Debug)]
pub struct RefreshReport {
    /// The strategy that produced the labels.
    pub strategy: ModelingStrategy,
    /// Predicted advantage bound A~* (`NaN` when forced or multi-class).
    pub predicted_advantage: f64,
    /// Label density of Λ.
    pub label_density: f64,
    /// How Λ was updated.
    pub lambda_update: LambdaUpdate,
    /// Columns served straight from cache.
    pub columns_reused: usize,
    /// Columns executed from scratch this refresh.
    pub columns_recomputed: usize,
    /// Columns extended onto newly ingested rows.
    pub columns_extended: usize,
    /// Individual LF invocations this refresh (`columns × rows`
    /// actually executed — *the* number the cache exists to minimize).
    pub lf_invocations: usize,
    /// Whether the structure sweep was skipped in favor of the previous
    /// refresh's correlation structure.
    pub structure_reused: bool,
    /// Name of the label-model backend that produced the labels.
    pub backend: &'static str,
    /// Whether training warm-started from the previous model (only the
    /// correlated CD fit does; see
    /// [`GenerativeModel::fit_warm`](snorkel_core::model::GenerativeModel::fit_warm)).
    pub warm_started: bool,
    /// Training iterations run (0 for fit-free backends like MV).
    pub fit_epochs: usize,
    /// Distinct vote patterns in the session's pattern index.
    pub unique_patterns: usize,
    /// Cumulative cache statistics.
    pub cache: CacheStats,
    /// Stage timings.
    pub timings: RefreshTimings,
}

/// What one [`IncrementalSession::ingest_batch`] call did: how the
/// batch was absorbed, whether the model was refreshed online (no pass
/// over Λ) and where the drift detector stands.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Rows appended by this batch.
    pub rows: usize,
    /// Individual LF invocations (always `rows × live columns` on the
    /// steady path — only the new rows are executed).
    pub lf_invocations: usize,
    /// `true` when the batch rode the steady streaming path: columns
    /// extended, Λ spliced, model re-solved from running statistics via
    /// `fit_online` — **no cold `fit`, no pass over Λ**. `false` when
    /// the backend has no online path or the session needed a full
    /// refresh first (un-refreshed suite edits pending).
    pub online_fit: bool,
    /// Overall drift score after this batch.
    pub drift_score: f64,
    /// Whether the drift threshold was crossed by this batch.
    pub drifted: bool,
    /// Whether a drift-triggered automatic warm refit ran (bumping
    /// [`IncrementalSession::refresh_generation`] a second time).
    pub auto_refit: bool,
    /// The session's refresh generation after the ingest.
    pub generation: u64,
}

/// One suite column: the LF, its cache identity, and its metric handles
/// (tally counters and drift gauge), resolved on first use and kept for
/// the column's life so the write path looks no name up per batch.
struct SessionLf {
    lf: BoxedLf,
    fingerprint: Fingerprint,
    counters: LfCounters,
    drift_gauge: OnceLock<std::sync::Arc<snorkel_obs::Gauge>>,
}

impl SessionLf {
    fn new(lf: BoxedLf, fingerprint: Fingerprint) -> Self {
        SessionLf {
            lf,
            fingerprint,
            counters: LfCounters::default(),
            drift_gauge: OnceLock::new(),
        }
    }
}

/// The session's distilled serving model, stamped with the refresh
/// generation whose marginals trained it. Self-contained: it carries
/// its own [`DiscTrainerConfig`] so a thawed session keeps predicting
/// (and retraining) without the operator re-supplying the
/// configuration.
#[derive(Clone, Debug)]
pub struct DiscState {
    /// Featurizer + training settings the model was distilled with.
    pub config: DiscTrainerConfig,
    /// The distilled model.
    pub model: DistilledModel,
    /// [`IncrementalSession::refresh_generation`] value whose marginals
    /// this model was trained on. Lower than the live counter ⇒ stale
    /// (still serving, just lagging the latest edit).
    pub generation: u64,
}

/// Everything one distillation run needs, cloned out of the session so
/// training can happen **without holding the session lock** — the
/// serving layer's non-blocking retrain path. Produced by
/// [`IncrementalSession::disc_training_set`], consumed by
/// [`DiscTrainingSet::train`], installed with
/// [`IncrementalSession::install_disc`].
#[derive(Clone, Debug)]
pub struct DiscTrainingSet {
    /// Featurizer + training settings to distill with.
    pub config: DiscTrainerConfig,
    /// Hashed feature vectors, row-aligned with the marginals (the
    /// cache may run longer when candidates were ingested since the
    /// last refresh; training uses the first `marginals.len()` rows).
    /// Shared with the session's cache: taking a training set is O(1)
    /// in the feature count, not a deep copy under the caller's lock.
    pub features: std::sync::Arc<Vec<SparseVec>>,
    /// The label model's per-row marginals at `generation`. Shared with
    /// the session's refresh cache — O(1) to take.
    pub marginals: std::sync::Arc<Vec<Vec<f64>>>,
    /// Classes per marginal row.
    pub num_classes: usize,
    /// Previous model to warm-start from, if any.
    pub warm: Option<DistilledModel>,
    /// The refresh generation the marginals belong to.
    pub generation: u64,
}

impl DiscTrainingSet {
    /// Distill (warm when [`Self::warm`] is set). Pure function of the
    /// set — safe to run outside any session lock.
    pub fn train(self) -> (DiscState, DistillReport) {
        let trainer = DiscTrainer::new(self.config);
        // Candidates ingested after the last refresh have features but
        // no marginal row yet; they join training after the next
        // refresh labels them.
        let rows = self.marginals.len();
        let retrain_span = stage_span("disc_retrain");
        let (model, report) = trainer.fit(
            &self.features[..rows],
            &self.marginals,
            self.num_classes,
            self.warm,
        );
        drop(retrain_span);
        (
            DiscState {
                config: trainer.config,
                model,
                generation: self.generation,
            },
            report,
        )
    }
}

/// The incremental labeling engine's façade: an interactive-session
/// counterpart to the batch [`snorkel_core::pipeline::Pipeline`].
///
/// ## Contract
///
/// * **Append-only corpus.** Candidates registered with the session are
///   assumed immutable: the cache key is `(lf_fingerprint, candidate)`,
///   so in-place edits to already-registered candidates would serve
///   stale votes. Grow the corpus through [`Self::corpus_mut`] +
///   [`Self::ingest_candidates`]; build a new session if you must
///   mutate in place.
/// * **Names identify LFs.** [`Self::edit_lf`] / [`Self::remove_lf`]
///   address the suite by `LabelingFunction::name()`; names must be
///   unique within the session.
/// * **Equivalence.** After any edit sequence, [`Self::refresh`]
///   produces a Λ bit-identical to applying the current suite from
///   scratch, and (on the exact training path) labels bit-identical to
///   a cold [`snorkel_core::pipeline::Pipeline::run_from_matrix`] over
///   that Λ — asserted by this crate's property tests.
/// * **Ingest costs its batch.** Beside the registered rows the session
///   keeps the *set* of registered candidates, so the append-only check
///   of [`Self::ingest_candidates`] is O(batch), not O(corpus). The set
///   is derived state: built as rows register, rebuilt by
///   [`Self::thaw`], and never part of a [`FrozenSession`].
pub struct IncrementalSession {
    corpus: Corpus,
    config: SessionConfig,
    candidates: Vec<CandidateId>,
    /// The set of `candidates`, for the append-only duplicate check.
    /// Derived state: rebuilt by [`Self::thaw`], never frozen.
    registered: std::collections::HashSet<CandidateId>,
    lfs: Vec<SessionLf>,
    versions: std::collections::HashMap<String, u64>,
    cache: LfResultCache,
    lambda: Option<LabelMatrix>,
    /// `PatternIndex::build(lambda)`, kept across refreshes: a row
    /// append extends it, any other change to Λ rebuilds it (present
    /// exactly when `lambda` is).
    plan: Option<PatternIndex>,
    /// The label-model backend of the last refresh (whatever the
    /// optimizer selected — majority vote included).
    model: Option<LabelModel>,
    /// Fingerprint layout at the last refresh (column-aligned). The
    /// last refresh's row count is Λ's.
    last_fingerprints: Vec<Fingerprint>,
    /// Last GM strategy (correlation structure) the optimizer produced,
    /// together with the LF-name layout it was derived from — pair
    /// indices are only meaningful against that exact layout.
    last_gm_strategy: Option<(ModelingStrategy, Vec<String>)>,
    /// Bumped by every [`Self::refresh`]; the reference the disc
    /// model's staleness is measured against.
    refresh_generation: u64,
    /// Row-aligned hashed-feature cache for distillation (grown lazily;
    /// cleared when the featurizer changes). Behind an `Arc` so a
    /// [`DiscTrainingSet`] shares it instead of deep-copying under the
    /// caller's lock.
    features: std::sync::Arc<Vec<SparseVec>>,
    /// The featurizer [`Self::features`] was extracted with.
    features_featurizer: Option<TextFeaturizer>,
    /// The last refresh's marginals, kept only while distillation is
    /// configured so [`Self::disc_training_set`] does not recompute a
    /// full inference pass the refresh just produced. `Arc`d so taking
    /// a training set under the serving write lock is O(1).
    last_marginals: Option<std::sync::Arc<Vec<Vec<f64>>>>,
    /// The distilled serving model, if any.
    disc: Option<DiscState>,
    /// The streaming plane: running moment statistics + drift detector,
    /// fed by [`Self::ingest_batch`]. `None` until the first ingest (or
    /// a thawed snapshot) enables it; present only with Λ, whose pattern
    /// index its running statistics are rebuilt from.
    stream: Option<StreamState>,
}

impl IncrementalSession {
    /// A session over `corpus` with no candidates or LFs registered yet.
    pub fn new(corpus: Corpus, config: SessionConfig) -> Self {
        let cache = LfResultCache::new(config.cache_capacity);
        IncrementalSession {
            corpus,
            config,
            candidates: Vec::new(),
            registered: std::collections::HashSet::new(),
            lfs: Vec::new(),
            versions: std::collections::HashMap::new(),
            cache,
            lambda: None,
            plan: None,
            model: None,
            last_fingerprints: Vec::new(),
            last_gm_strategy: None,
            refresh_generation: 0,
            features: std::sync::Arc::new(Vec::new()),
            features_featurizer: None,
            last_marginals: None,
            disc: None,
            stream: None,
        }
    }

    /// Convenience: a session pre-registered with every candidate of the
    /// corpus, in id order (matching
    /// [`snorkel_lf::LfExecutor::apply_all`]).
    pub fn over_all_candidates(corpus: Corpus, config: SessionConfig) -> Self {
        let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
        let mut s = IncrementalSession::new(corpus, config);
        s.ingest_candidates(&ids);
        s
    }

    /// Read access to the corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Read access to the session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the corpus — for *growing* it (new documents,
    /// sentences, spans, candidates). Mutating content of candidates
    /// already registered breaks the cache contract; see the type docs.
    pub fn corpus_mut(&mut self) -> &mut Corpus {
        &mut self.corpus
    }

    /// The registered candidates, in row order.
    pub fn candidates(&self) -> &[CandidateId] {
        &self.candidates
    }

    /// Number of registered candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of LFs in the live suite.
    pub fn num_lfs(&self) -> usize {
        self.lfs.len()
    }

    /// Names of the live suite, in column order.
    pub fn lf_names(&self) -> Vec<&str> {
        self.lfs.iter().map(|s| s.lf.name()).collect()
    }

    /// Whether the live suite is exactly the layout the last refresh's
    /// Λ/model were built for (same fingerprints, same column order) —
    /// i.e. whether [`Self::model`]'s columns can score votes indexed
    /// by the live suite. False after any un-refreshed add/edit/remove.
    pub fn suite_matches_last_refresh(&self) -> bool {
        self.lfs.len() == self.last_fingerprints.len()
            && self
                .lfs
                .iter()
                .zip(&self.last_fingerprints)
                .all(|(s, fp)| s.fingerprint == *fp)
    }

    /// The current label matrix (after the first refresh).
    pub fn label_matrix(&self) -> Option<&LabelMatrix> {
        self.lambda.as_ref()
    }

    /// The label model of the last refresh (any backend; match on the
    /// variant for backend-specific state, e.g.
    /// `if let Some(LabelModel::Generative(gm)) = session.model()`).
    pub fn model(&self) -> Option<&LabelModel> {
        self.model.as_ref()
    }

    /// Name of the active label-model backend (after the first refresh).
    pub fn backend_name(&self) -> Option<&'static str> {
        self.model.as_ref().map(LabelModel::backend_name)
    }

    /// The live pattern index (after the first refresh).
    pub fn pattern_plan(&self) -> Option<&PatternIndex> {
        self.plan.as_ref()
    }

    /// How many refreshes this session has run — the reference point
    /// for disc-model staleness.
    pub fn refresh_generation(&self) -> u64 {
        self.refresh_generation
    }

    /// The distilled serving model (and the generation it was trained
    /// at), if one exists.
    pub fn disc(&self) -> Option<&DiscState> {
        self.disc.as_ref()
    }

    /// Whether the disc model lags the label model: `true` after a
    /// refresh until the next [`Self::distill`] /
    /// [`Self::install_disc`] lands. A session with no disc model is
    /// not "stale" — there is nothing lagging.
    pub fn disc_is_stale(&self) -> bool {
        self.disc
            .as_ref()
            .is_some_and(|d| d.generation < self.refresh_generation)
    }

    /// The streaming plane's state (running moment statistics, drift
    /// detector, lifetime counters), if streaming is active.
    pub fn stream(&self) -> Option<&StreamState> {
        self.stream.as_ref()
    }

    /// Start the streaming plane with the session config's
    /// [`DriftConfig`] unless it already runs. Only
    /// [`Self::ingest_batch`] calls this, once Λ exists. The running
    /// statistics are seeded from Λ's pattern index (one pass over the
    /// unique patterns, once) so subsequent ingests refit over *all*
    /// rows, not just the streamed tail.
    fn start_stream(&mut self) {
        if self.stream.is_some() {
            return;
        }
        let lambda = self
            .lambda
            .as_ref()
            .expect("streaming starts once Λ exists");
        let plan = self
            .plan
            .as_ref()
            .expect("a plan is kept whenever Λ exists");
        let scheme = LabelScheme::from_cardinality(self.config.executor.cardinality);
        let mut state = StreamState::new(lambda.num_lfs(), scheme, self.config.drift.clone());
        state.rebuild_from_index(lambda, plan);
        self.stream = Some(state);
    }

    /// The active distillation configuration: the session config's, or
    /// the one the live disc model carries (a thawed session keeps
    /// retraining with the frozen settings).
    fn distill_config(&self) -> Option<DiscTrainerConfig> {
        self.config
            .distill
            .clone()
            .or_else(|| self.disc.as_ref().map(|d| d.config.clone()))
    }

    /// Bring the row-aligned feature cache up to date for `featurizer`.
    /// Extends in place when the cache is uniquely owned; only when a
    /// previous [`DiscTrainingSet`] still shares it does this pay one
    /// copy-on-write.
    fn ensure_features(&mut self, featurizer: &TextFeaturizer) {
        if self.features_featurizer.as_ref() != Some(featurizer) {
            self.features = std::sync::Arc::new(Vec::new());
            self.features_featurizer = Some(featurizer.clone());
        }
        let from = self.features.len();
        if from < self.candidates.len() {
            let new = featurizer.featurize_all(&self.corpus, &self.candidates[from..]);
            match std::sync::Arc::get_mut(&mut self.features) {
                Some(cache) => cache.extend(new),
                None => {
                    let mut cache = self.features.to_vec();
                    cache.extend(new);
                    self.features = std::sync::Arc::new(cache);
                }
            }
        }
    }

    /// Everything one distillation run needs, cloned out so training can
    /// happen without borrowing the session (the serving layer trains
    /// outside its session lock; see [`DiscTrainingSet`]). `None` until
    /// the first refresh, or when no distillation config is available.
    pub fn disc_training_set(&mut self) -> Option<DiscTrainingSet> {
        let config = self.distill_config()?;
        let lambda = self.lambda.as_ref()?;
        let model = self.model.as_ref()?;
        // Serve the marginals the refresh just computed; recompute only
        // when none are cached (e.g. a freshly thawed session).
        let marginals = match &self.last_marginals {
            Some(m) if m.len() == lambda.num_points() => std::sync::Arc::clone(m),
            _ => std::sync::Arc::new(model.marginals(lambda, self.plan.as_ref())),
        };
        let num_classes = LabelScheme::from_cardinality(lambda.cardinality()).num_classes();
        self.ensure_features(&config.featurizer);
        Some(DiscTrainingSet {
            features: std::sync::Arc::clone(&self.features),
            marginals,
            num_classes,
            warm: self.disc.as_ref().map(|d| d.model.clone()),
            generation: self.refresh_generation,
            config,
        })
    }

    /// Install a freshly distilled model. Returns `true` when the model
    /// is current (trained on this generation's marginals), `false` when
    /// another refresh landed while it trained — it still installs if it
    /// is newer than what it replaces, so serving improves monotonically.
    pub fn install_disc(&mut self, state: DiscState) -> bool {
        let current = state.generation == self.refresh_generation;
        if self
            .disc
            .as_ref()
            .is_none_or(|live| state.generation >= live.generation)
        {
            self.disc = Some(state);
        }
        current
    }

    /// Distill (or warm-retrain) the serving model from the current
    /// marginals, in place. The inline counterpart of the
    /// [`Self::disc_training_set`] → train → [`Self::install_disc`]
    /// flow; returns `None` under the same conditions.
    pub fn distill(&mut self) -> Option<DistillReport> {
        let set = self.disc_training_set()?;
        let (state, report) = set.train();
        self.install_disc(state);
        Some(report)
    }

    /// Cumulative cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of cached LF-result columns (live + superseded).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Maximum cached LF-result columns.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Set the session-shape gauges of the global registry from current
    /// state. Called after every refresh; [`Self::thaw`] calls it too,
    /// so a restarted process reports its reconstructed generation and
    /// cache shape before the first refresh (counters, by contrast,
    /// reset with the process — they count what *this* process did).
    fn publish_gauges(&self) {
        let metrics = incr_metrics();
        metrics
            .refresh_generation
            .set(self.refresh_generation.min(i64::MAX as u64) as i64);
        metrics
            .unique_patterns
            .set(self.plan.as_ref().map_or(0, PatternIndex::num_patterns) as i64);
        metrics.cache_columns.set(self.cache.len() as i64);
        metrics.cache_capacity.set(self.cache.capacity() as i64);
        metrics.rows.set(self.candidates.len() as i64);
        metrics.lfs.set(self.lfs.len() as i64);
    }

    fn column_of(&self, name: &str) -> Option<usize> {
        self.lfs.iter().position(|s| s.lf.name() == name)
    }

    fn next_version(&mut self, name: &str) -> u64 {
        let v = self.versions.entry(name.to_string()).or_insert(0);
        let out = *v;
        *v += 1;
        out
    }

    /// Add an LF (auto-versioned fingerprint). Returns its column index.
    pub fn add_lf(&mut self, lf: BoxedLf) -> usize {
        let version = self.next_version(lf.name());
        let fingerprint = Fingerprint::of_auto(lf.name(), version);
        self.add_lf_with_fingerprint(lf, fingerprint)
    }

    /// Add an LF with a caller-supplied content tag (see
    /// [`Fingerprint`]): same `(name, tag)` ⇒ same fingerprint ⇒ cache
    /// hits across re-adds and reverts. Returns its column index.
    pub fn add_lf_tagged(&mut self, lf: BoxedLf, content_tag: u64) -> usize {
        let fingerprint = Fingerprint::of(lf.name(), content_tag);
        self.add_lf_with_fingerprint(lf, fingerprint)
    }

    fn add_lf_with_fingerprint(&mut self, lf: BoxedLf, fingerprint: Fingerprint) -> usize {
        assert!(
            self.column_of(lf.name()).is_none(),
            "LF {:?} is already in the suite (names are unique; use edit_lf)",
            lf.name()
        );
        self.lfs.push(SessionLf::new(lf, fingerprint));
        self.lfs.len() - 1
    }

    /// Replace the same-named LF with a new version (auto-versioned
    /// fingerprint). Returns its column index.
    pub fn edit_lf(&mut self, lf: BoxedLf) -> usize {
        let version = self.next_version(lf.name());
        let fingerprint = Fingerprint::of_auto(lf.name(), version);
        self.edit_lf_with_fingerprint(lf, fingerprint)
    }

    /// Replace the same-named LF, identifying the new version by a
    /// caller-supplied content tag: editing back to a previously seen tag
    /// reuses that version's cached column. Returns its column index.
    pub fn edit_lf_tagged(&mut self, lf: BoxedLf, content_tag: u64) -> usize {
        let fingerprint = Fingerprint::of(lf.name(), content_tag);
        self.edit_lf_with_fingerprint(lf, fingerprint)
    }

    fn edit_lf_with_fingerprint(&mut self, lf: BoxedLf, fingerprint: Fingerprint) -> usize {
        let col = self
            .column_of(lf.name())
            .unwrap_or_else(|| panic!("LF {:?} is not in the suite (use add_lf)", lf.name()));
        self.lfs[col] = SessionLf::new(lf, fingerprint);
        col
    }

    /// Remove an LF from the suite. Its cached column stays around (LRU)
    /// so re-adding the same version is free. Returns the removed
    /// column's index, or `None` if no such LF.
    pub fn remove_lf(&mut self, name: &str) -> Option<usize> {
        let col = self.column_of(name)?;
        self.lfs.remove(col);
        Some(col)
    }

    /// Apply the live LF suite to one candidate view, returning one vote
    /// per column (0 = abstain). This is the serving probe: a labeling
    /// service answers "label this new data point" by running the suite
    /// on a transient candidate and feeding the votes to
    /// [`Self::model`]'s posterior — no session state is touched, so it
    /// runs under a shared read lock.
    pub fn apply_lfs(&self, view: &CandidateView<'_>) -> Vec<Vote> {
        self.lfs.iter().map(|s| s.lf.label(view)).collect()
    }
}
