use super::*;

/// Start a span for one [`IncrementalSession::ingest_batch`] call,
/// recording into `snorkel_stream_ingest_seconds` — the steady-state
/// ingest latency the streaming bench gates on.
fn ingest_span() -> snorkel_obs::Span {
    static HIST: OnceLock<std::sync::Arc<snorkel_obs::Histogram>> = OnceLock::new();
    let hist =
        HIST.get_or_init(|| snorkel_obs::global().histogram("snorkel_stream_ingest_seconds", &[]));
    snorkel_obs::Span::start(
        "ingest",
        std::sync::Arc::clone(hist),
        snorkel_obs::TraceLevel::Debug,
    )
}

/// Publish the per-LF drift gauges
/// (`snorkel_stream_drift_score_lf_ppm{lf="…"}`, scores × 10⁶ — the
/// registry's gauges are integers). Registered here rather than in
/// `snorkel-stream` because only the session knows the LF names.
fn publish_drift_gauges<'a>(names: impl Iterator<Item = &'a str>, scores: &[f64]) {
    let registry = snorkel_obs::global();
    for (name, score) in names.zip(scores) {
        registry
            .gauge("snorkel_stream_drift_score_lf_ppm", &[("lf", name)])
            .set((score * 1_000_000.0).round() as i64);
    }
}

impl IncrementalSession {
    /// Register new candidate rows (appended after the existing ones).
    /// Panics on candidates already registered — rows are append-only.
    pub fn ingest_candidates(&mut self, ids: &[CandidateId]) {
        for (at, id) in ids.iter().enumerate() {
            if !self.registered.insert(*id) {
                // Nothing of a rejected batch stays registered.
                for earlier in &ids[..at] {
                    self.registered.remove(earlier);
                }
                panic!("candidate {id} is already registered (rows are append-only and unique)");
            }
        }
        self.candidates.extend_from_slice(ids);
    }

    /// Absorb one streamed candidate batch — the continuous-arrival
    /// counterpart of `ingest_candidates` + [`Self::refresh`], built to
    /// run forever without the per-batch cost growing with the corpus:
    ///
    /// 1. the live LF columns are *extended* onto just the new rows
    ///    (content-addressed cache, same as a refresh extension);
    /// 2. the new rows are spliced into Λ ([`MatrixDelta::AppendRows`])
    ///    and interned into the live sharded plan's tail;
    /// 3. each row is folded into the running moment statistics and the
    ///    drift detector's current window;
    /// 4. the label model is re-solved from the running statistics via
    ///    [`LabelModel::fit_online`] — **no pass over Λ** (backends
    ///    without an online path keep their weights until the next
    ///    refresh);
    /// 5. if the batch pushed the drift score past the configured
    ///    threshold, an automatic warm [`Self::refresh`] runs and the
    ///    detector re-anchors on the post-refit regime.
    ///
    /// An online-refit (and the automatic drift refit) advances
    /// [`Self::refresh_generation`]: the model changed, so posterior
    /// memoizations keyed by generation must not serve stale answers.
    ///
    /// When the steady-state preconditions do not hold (no refresh yet,
    /// or suite edits pending), the batch falls back to registering the
    /// candidates and running a full [`Self::refresh`], which advances
    /// the generation too (with neither refit flag set). Otherwise an
    /// empty batch is a no-op: a zero-row report at the current
    /// generation.
    pub fn ingest_batch(&mut self, ids: &[CandidateId]) -> IngestReport {
        let span = ingest_span();
        if self.lambda.is_none() || !self.suite_matches_last_refresh() {
            self.ingest_candidates(ids);
            let (_, refresh) = self.refresh();
            self.enable_streaming();
            return self.report_without_refit(ids.len(), refresh.lf_invocations);
        }
        if ids.is_empty() {
            // No rows, no refit: bumping the generation would only
            // invalidate every generation-keyed memo for nothing.
            return self.report_without_refit(0, 0);
        }
        self.enable_streaming();
        self.ingest_candidates(ids);
        let m = self.candidates.len();
        let old_m = self.last_rows;
        let new_rows = m - old_m;

        // 1. Extend every live column onto the new rows.
        let (live, sync) = self.sync_columns();

        // 2. Splice the new rows into Λ and the live plan's tail shard.
        let lambda = self.lambda.as_mut().expect("checked above");
        if new_rows > 0 {
            lambda.apply_delta(&appended_rows(&mut self.cache, &live, old_m, new_rows));
            self.plan
                .as_mut()
                .expect("a plan is kept whenever Λ exists")
                .append_rows(lambda);
        }

        // 3. Fold the new rows into the streaming statistics.
        let stream = self.stream.as_mut().expect("enabled above");
        for i in old_m..m {
            let (cols, votes) = lambda.row(i);
            stream.observe_row(cols, votes);
        }
        stream.note_batch(new_rows);
        publish_drift_gauges(self.lfs.iter().map(|s| s.lf.name()), stream.per_lf_scores());

        // 4. Online refit from the running statistics — the steady-state
        //    fast path the streaming bench gates: O(n³) in the LF count,
        //    independent of the corpus size.
        let online_fit = match self.model.as_mut() {
            Some(model) => model
                .fit_online(stream.stats(), &self.config.train)
                .is_some(),
            None => false,
        };

        // 5. Bookkeeping: the splice is committed; an online-refitted
        //    model invalidates generation-keyed posterior memos.
        self.last_rows = m;
        if online_fit {
            self.refresh_generation += 1;
            self.last_marginals = None;
        }

        // 6. Drift response: automatic warm refit, then re-anchor.
        let (drift_score, drifted) = {
            let stream = self.stream.as_ref().expect("enabled above");
            (stream.drift_score(), stream.drifted())
        };
        let mut auto_refit = false;
        if drifted {
            // Λ is already up to date, so this is the warm no-splice
            // path: strategy re-selection + warm training + fresh
            // marginals, bumping the generation.
            let _ = self.refresh();
            if let Some(stream) = &mut self.stream {
                stream.record_auto_refit();
            }
            auto_refit = true;
        }
        self.publish_gauges();
        drop(span);
        IngestReport {
            rows: new_rows,
            lf_invocations: sync.lf_invocations,
            online_fit,
            drift_score,
            drifted,
            auto_refit,
            generation: self.refresh_generation,
        }
    }

    /// The report of a batch that took neither the online nor the drift
    /// refit, at the current generation and drift state.
    fn report_without_refit(&self, rows: usize, lf_invocations: usize) -> IngestReport {
        let stream = self.stream.as_ref();
        IngestReport {
            rows,
            lf_invocations,
            online_fit: false,
            drift_score: stream.map_or(0.0, StreamState::drift_score),
            drifted: stream.is_some_and(StreamState::drifted),
            auto_refit: false,
            generation: self.refresh_generation,
        }
    }

    /// Bring every live column up to date in the cache, executing only
    /// the rows it cannot serve (in parallel across candidates via the
    /// executor, as a 1-LF suite), then evict down to capacity. Returns
    /// the live fingerprints in column order and what was done.
    pub(super) fn sync_columns(&mut self) -> (Vec<Fingerprint>, ColumnSync) {
        let m = self.candidates.len();
        let mut sync = ColumnSync::default();
        for slf in &self.lfs {
            let fp = slf.fingerprint;
            let covered = self.cache.rows(fp);
            if covered >= m {
                self.cache.note_hit();
                sync.reused += 1;
                continue;
            }
            let slice = &self.candidates[covered..];
            let mini =
                self.config
                    .executor
                    .apply(std::slice::from_ref(&slf.lf), &self.corpus, slice);
            let mut entries = mini.column(0);
            for e in &mut entries {
                e.0 += covered as u32;
            }
            sync.lf_invocations += slice.len();
            if covered == 0 {
                sync.recomputed += 1;
                self.cache.insert(fp, m, entries);
            } else {
                sync.extended += 1;
                self.cache.extend(fp, m, entries);
            }
        }
        let live: Vec<Fingerprint> = self.lfs.iter().map(|s| s.fingerprint).collect();
        self.cache.evict_to_capacity(&live);
        (live, sync)
    }
}

/// What [`IncrementalSession::sync_columns`] did, column by column.
#[derive(Default)]
pub(super) struct ColumnSync {
    /// Columns served straight from cache.
    pub(super) reused: usize,
    /// Columns executed from scratch.
    pub(super) recomputed: usize,
    /// Columns extended onto newly registered rows.
    pub(super) extended: usize,
    /// Individual LF invocations (rows executed, over all columns).
    pub(super) lf_invocations: usize,
}

/// The [`MatrixDelta::AppendRows`] that grows Λ from `old_m` rows by
/// `new_rows`, read out of the live columns' cached entries.
pub(super) fn appended_rows(
    cache: &mut LfResultCache,
    live: &[Fingerprint],
    old_m: usize,
    new_rows: usize,
) -> MatrixDelta {
    let mut rows: Vec<Vec<(u32, Vote)>> = vec![Vec::new(); new_rows];
    for (j, fp) in live.iter().enumerate() {
        let entries = cache.entries(*fp).expect("live column cached");
        let start = entries.partition_point(|e| (e.0 as usize) < old_m);
        for &(row, v) in &entries[start..] {
            rows[row as usize - old_m].push((j as u32, v));
        }
    }
    MatrixDelta::AppendRows { rows }
}
