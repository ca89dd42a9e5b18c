use super::*;

/// Everything an [`IncrementalSession`] needs to restart warm, as plain
/// owned data — the stable encoding surface for `snorkel-serve`
/// snapshots. Produced by [`IncrementalSession::freeze`], consumed by
/// [`IncrementalSession::thaw`].
///
/// The LF *code* is deliberately absent: Rust closures cannot be
/// serialized, and a corpus is derived state the operator reloads from
/// its own source of truth. Thawing therefore takes the corpus and a
/// freshly constructed LF suite; the frozen fingerprints re-attach to
/// the supplied LFs by name, so nothing is re-executed.
#[derive(Clone, Debug)]
pub struct FrozenSession {
    /// Registered candidate rows, in row order.
    pub candidates: Vec<CandidateId>,
    /// Per-name auto-version counters, sorted by name.
    pub versions: Vec<(String, u64)>,
    /// Live suite layout at freeze time: `(name, fingerprint)` per
    /// column.
    pub suite: Vec<(String, Fingerprint)>,
    /// The LF-result cache.
    pub cache: FrozenCache,
    /// Λ's row count at the last refresh (0 before the first). Λ itself
    /// is not frozen: thawing rebuilds it from the cache's
    /// `last_fingerprints` columns, each of which covers exactly these
    /// rows, and its pattern index with `PatternIndex::build`. The count
    /// is kept on its own because a refresh over an empty suite leaves
    /// Λ with rows but no column to read them from.
    pub lambda_rows: usize,
    /// The label model of the last refresh (present exactly when a
    /// refresh happened, and so exactly when Λ exists).
    pub model: Option<LabelModel>,
    /// Column-aligned fingerprint layout at the last refresh.
    pub last_fingerprints: Vec<Fingerprint>,
    /// Last structure-sweep outcome and the LF-name layout it indexes.
    pub last_gm_strategy: Option<(ModelingStrategy, Vec<String>)>,
    /// Refresh generation at freeze time (the disc staleness reference).
    pub refresh_generation: u64,
    /// The distilled serving model, if one was trained. The row-aligned
    /// feature cache is deliberately absent — features are derived state,
    /// re-extracted from the reloaded corpus on the next distill.
    pub disc: Option<FrozenDisc>,
    /// The streaming plane's state (drift reference window, scores,
    /// lifetime counters), if streaming was active. Its running moment
    /// statistics are not frozen: thawing folds them from Λ's index.
    pub stream: Option<FrozenStream>,
}

/// Plain-data image of a [`DiscState`] (see [`FrozenSession::disc`]).
#[derive(Clone, Debug)]
pub struct FrozenDisc {
    /// Featurizer + training settings the model was distilled with.
    pub config: DiscTrainerConfig,
    /// The distilled model's stable encoding.
    pub model: DiscModelParts,
    /// Refresh generation whose marginals trained the model.
    pub generation: u64,
}

/// Why [`IncrementalSession::thaw`] refused to restore a session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThawError {
    /// The supplied LF suite does not match the frozen layout.
    SuiteMismatch(String),
    /// The frozen state is internally inconsistent (corrupt or
    /// hand-edited snapshot, or a corpus that does not cover the
    /// registered candidates).
    Inconsistent(String),
}

impl std::fmt::Display for ThawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThawError::SuiteMismatch(msg) => write!(f, "LF suite mismatch: {msg}"),
            ThawError::Inconsistent(msg) => write!(f, "inconsistent frozen state: {msg}"),
        }
    }
}

impl std::error::Error for ThawError {}

impl IncrementalSession {
    /// Snapshot the session's warm state as plain data (see
    /// [`FrozenSession`]). The session is untouched; pair with
    /// [`Self::thaw`] to restart a process without re-executing any LF
    /// or re-fitting from scratch.
    pub fn freeze(&self) -> FrozenSession {
        let mut versions: Vec<(String, u64)> = self
            .versions
            .iter()
            .map(|(name, &v)| (name.clone(), v))
            .collect();
        versions.sort();
        FrozenSession {
            candidates: self.candidates.clone(),
            versions,
            suite: self
                .lfs
                .iter()
                .map(|s| (s.lf.name().to_string(), s.fingerprint))
                .collect(),
            cache: self.cache.export(),
            lambda_rows: self.lambda.as_ref().map_or(0, LabelMatrix::num_points),
            model: self.model.clone(),
            last_fingerprints: self.last_fingerprints.clone(),
            last_gm_strategy: self.last_gm_strategy.clone(),
            refresh_generation: self.refresh_generation,
            disc: self.disc.as_ref().map(|d| FrozenDisc {
                config: d.config.clone(),
                model: d.model.to_parts(),
                generation: d.generation,
            }),
            stream: self.stream.as_ref().map(StreamState::freeze),
        }
    }

    /// Restore a frozen session around a reloaded corpus and a freshly
    /// constructed LF suite.
    ///
    /// `lfs` must contain exactly the frozen layout's names (any order);
    /// each LF adopts its frozen fingerprint, i.e. it is *assumed
    /// behaviorally identical* to the version that produced the cached
    /// columns — the same contract as [`Self::add_lf_tagged`] with a
    /// reused tag. A thawed session's first
    /// [`refresh`](Self::refresh) with an unchanged suite executes zero
    /// LF invocations and fits the frozen Λ over the same index (a
    /// correlated CD fit from the frozen model, as the live session's
    /// would), so it reproduces the live session's next marginals
    /// bit-for-bit. Λ is rebuilt from
    /// the cached columns of the last refresh, which must each cover
    /// exactly Λ's frozen row count, and its pattern index is built
    /// from Λ.
    ///
    /// Every structural invariant of the frozen state is validated
    /// against the corpus and `config` — corrupt or mismatched state
    /// returns a typed [`ThawError`] instead of panicking later.
    pub fn thaw(
        corpus: Corpus,
        config: SessionConfig,
        frozen: FrozenSession,
        lfs: Vec<BoxedLf>,
    ) -> Result<Self, ThawError> {
        let FrozenSession {
            candidates,
            versions,
            suite,
            cache,
            lambda_rows,
            model,
            last_fingerprints,
            last_gm_strategy,
            refresh_generation,
            disc,
            stream,
        } = frozen;

        // --- Re-attach the supplied LFs to the frozen layout by name.
        if lfs.len() != suite.len() {
            return Err(ThawError::SuiteMismatch(format!(
                "frozen suite has {} LFs, {} supplied",
                suite.len(),
                lfs.len()
            )));
        }
        let mut by_name: std::collections::HashMap<String, BoxedLf> =
            std::collections::HashMap::new();
        for lf in lfs {
            let name = lf.name().to_string();
            if by_name.insert(name.clone(), lf).is_some() {
                return Err(ThawError::SuiteMismatch(format!("duplicate LF {name:?}")));
            }
        }
        let mut session_lfs = Vec::with_capacity(suite.len());
        for (name, fingerprint) in &suite {
            let Some(lf) = by_name.remove(name) else {
                return Err(ThawError::SuiteMismatch(format!(
                    "frozen suite expects LF {name:?}, not supplied"
                )));
            };
            session_lfs.push(SessionLf::new(lf, *fingerprint));
        }

        // --- Validate the frozen state against corpus and config.
        let cardinality = config.executor.cardinality;
        let mut registered = std::collections::HashSet::with_capacity(candidates.len());
        for id in &candidates {
            if id.index() >= corpus.num_candidates() {
                return Err(ThawError::Inconsistent(format!(
                    "registered candidate {id} not present in the corpus \
                     ({} candidates)",
                    corpus.num_candidates()
                )));
            }
            if !registered.insert(*id) {
                return Err(ThawError::Inconsistent(format!(
                    "candidate {id} registered twice"
                )));
            }
        }
        // Collect into the live map up front so duplicates are caught
        // regardless of the snapshot's ordering (a later duplicate would
        // otherwise silently rewind the counter, letting an auto-tagged
        // re-add reproduce an old fingerprint still in the cache).
        let mut version_map = std::collections::HashMap::new();
        for (name, v) in versions {
            if version_map.insert(name.clone(), v).is_some() {
                return Err(ThawError::Inconsistent(format!(
                    "duplicate version counter for {name:?}"
                )));
            }
        }
        // A cached column is a prefix of the registered rows; a longer
        // one would hand later ingests votes for rows that do not exist.
        if let Some(col) = cache.columns.iter().find(|c| c.rows > candidates.len()) {
            return Err(ThawError::Inconsistent(format!(
                "cached column {} covers {} rows but only {} candidates are registered",
                col.fingerprint,
                col.rows,
                candidates.len()
            )));
        }
        let cache = LfResultCache::import(cache, cardinality).map_err(ThawError::Inconsistent)?;
        // Λ is the last refresh's columns of the cache over its frozen
        // row count, and its index is built from it. A refresh always
        // leaves a model, so the model says whether Λ exists. Peeking
        // leaves the columns' recency as it was frozen.
        let lambda = match &model {
            None if last_fingerprints.is_empty() && lambda_rows == 0 => None,
            None => {
                return Err(ThawError::Inconsistent(
                    "a refresh happened but its model is missing".into(),
                ))
            }
            Some(_) => {
                let rows = lambda_rows;
                if rows > candidates.len() {
                    return Err(ThawError::Inconsistent(format!(
                        "Λ has {rows} rows but only {} candidates are registered",
                        candidates.len()
                    )));
                }
                let columns = last_fingerprints
                    .iter()
                    .map(|&fp| match cache.peek(fp) {
                        Some((covered, entries)) if covered == rows => Ok(entries),
                        Some((covered, _)) => Err(format!(
                            "column {fp} covers {covered} rows but Λ has {rows}"
                        )),
                        None => Err(format!("column {fp} of the last refresh is not cached")),
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(ThawError::Inconsistent)?;
                Some(LabelMatrix::from_columns(rows, cardinality, &columns))
            }
        };
        let plan = lambda.as_ref().map(PatternIndex::build);
        if let Some(model) = &model {
            if model.num_lfs() != last_fingerprints.len() {
                return Err(ThawError::Inconsistent(format!(
                    "{} model covers {} LFs but the last refresh had {}",
                    model.backend_name(),
                    model.num_lfs(),
                    last_fingerprints.len()
                )));
            }
            if model.scheme() != LabelScheme::from_cardinality(cardinality) {
                return Err(ThawError::Inconsistent(
                    "model scheme != executor cardinality".into(),
                ));
            }
        }
        if let Some((
            ModelingStrategy::GenerativeModel {
                correlations,
                strengths,
                ..
            },
            layout,
        )) = &last_gm_strategy
        {
            if strengths.len() != correlations.len() {
                return Err(ThawError::Inconsistent(
                    "correlation strengths not parallel to pairs".into(),
                ));
            }
            if correlations
                .iter()
                .any(|&(a, b)| a >= layout.len() || b >= layout.len() || a == b)
            {
                return Err(ThawError::Inconsistent(
                    "stored correlation pair indexes outside its layout".into(),
                ));
            }
        }

        let disc = match disc {
            None => None,
            Some(frozen_disc) => {
                if frozen_disc.generation > refresh_generation {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model generation {} is ahead of the session's {}",
                        frozen_disc.generation, refresh_generation
                    )));
                }
                if frozen_disc.config.train.dim != frozen_disc.config.featurizer.buckets {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model dim {} != featurizer buckets {}",
                        frozen_disc.config.train.dim, frozen_disc.config.featurizer.buckets
                    )));
                }
                let model = DistilledModel::from_parts(&frozen_disc.model)
                    .map_err(ThawError::Inconsistent)?;
                if model.dim() != frozen_disc.config.train.dim {
                    return Err(ThawError::Inconsistent(format!(
                        "disc model dim {} != its config dim {}",
                        model.dim(),
                        frozen_disc.config.train.dim
                    )));
                }
                Some(DiscState {
                    config: frozen_disc.config,
                    model,
                    generation: frozen_disc.generation,
                })
            }
        };

        // The running moment statistics are a fold of the rebuilt
        // index, so they cover Λ's LFs under the executor's scheme by
        // construction.
        let stream = match (stream, lambda.as_ref().zip(plan.as_ref())) {
            (None, _) => None,
            (Some(_), None) => {
                return Err(ThawError::Inconsistent(
                    "streaming state without a pattern index".into(),
                ))
            }
            (Some(frozen_stream), Some((lambda, plan))) => {
                let scheme = LabelScheme::from_cardinality(cardinality);
                let stats = MomentStats::from_signatures(lambda, Some(plan), scheme);
                Some(
                    StreamState::thaw(frozen_stream, stats)
                        .map_err(|e| ThawError::Inconsistent(e.to_string()))?,
                )
            }
        };

        let session = IncrementalSession {
            corpus,
            config,
            candidates,
            registered,
            lfs: session_lfs,
            versions: version_map,
            cache,
            lambda,
            plan,
            model,
            last_fingerprints,
            last_gm_strategy,
            refresh_generation,
            features: std::sync::Arc::new(Vec::new()),
            features_featurizer: None,
            last_marginals: None,
            disc,
            stream,
        };
        // A thawed process starts with fresh (zero) counters, but the
        // gauges describe reconstructed state — publish them now so the
        // first scrape after a restart already shows the generation the
        // snapshot carried.
        session.publish_gauges();
        Ok(session)
    }
}
