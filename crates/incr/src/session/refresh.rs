use super::{ingest::appended_rows, *};

impl IncrementalSession {
    /// Bring labels up to date after any sequence of edits: re-execute
    /// exactly the LF columns (and candidate rows) the cache cannot
    /// serve, patch Λ in place, re-select the modeling strategy (reusing
    /// the previous structure sweep on one-column edits), and train —
    /// warm-started from the previous model when possible.
    ///
    /// Returns per-class probabilistic labels (`labels[row][class]`) and
    /// the [`RefreshReport`].
    pub fn refresh(&mut self) -> (Vec<Vec<f64>>, RefreshReport) {
        let total_span = stage_span("total");
        let stats_before = self.cache.stats();
        let m = self.candidates.len();
        let n = self.lfs.len();
        let cardinality = self.config.executor.cardinality;

        // ------------------------------------------------------------------
        // 1. Bring every live column up to date in the cache, executing
        //    only what it cannot serve.
        // ------------------------------------------------------------------
        let lf_span = stage_span("lf_exec");
        let (live, sync) = self.sync_columns();
        let lf_time = lf_span.finish();

        // ------------------------------------------------------------------
        // 2. Patch or assemble Λ.
        // ------------------------------------------------------------------
        let asm_span = stage_span("splice");
        let structural = live.len() != self.last_fingerprints.len();
        let changed_cols: Vec<usize> = if structural {
            Vec::new()
        } else {
            (0..n)
                .filter(|&j| live[j] != self.last_fingerprints[j])
                .collect()
        };
        let new_rows = m.saturating_sub(self.last_rows);
        // The stored correlation structure indexes columns of one exact
        // suite layout; drop it whenever the layout's LF identities no
        // longer match (add/remove, including length-preserving
        // shuffles — edits keep the name, so they survive).
        let layout: Vec<String> = self.lfs.iter().map(|s| s.lf.name().to_string()).collect();
        if self
            .last_gm_strategy
            .as_ref()
            .is_some_and(|(_, stored)| *stored != layout)
        {
            self.last_gm_strategy = None;
        }

        let lambda_update;
        if let (Some(lambda), false) = (self.lambda.as_mut(), structural) {
            if changed_cols.is_empty() && new_rows == 0 {
                lambda_update = LambdaUpdate::Unchanged;
            } else {
                // Rows first (changed columns' new-row votes are included
                // here and then overwritten wholesale by their column
                // splice — both sourced from the same cached column, so
                // the result is consistent either way).
                if new_rows > 0 {
                    lambda.apply_delta(&appended_rows(
                        &mut self.cache,
                        &live,
                        self.last_rows,
                        new_rows,
                    ));
                }
                for &j in &changed_cols {
                    let entries = self
                        .cache
                        .entries(live[j])
                        .expect("live column cached")
                        .to_vec();
                    lambda.apply_delta(&MatrixDelta::ReplaceColumn { col: j, entries });
                }
                lambda_update = LambdaUpdate::Patched {
                    columns_replaced: changed_cols.len(),
                    rows_appended: new_rows,
                };
            }
        } else {
            let cols: Vec<Vec<(u32, Vote)>> = live
                .iter()
                .map(|fp| {
                    self.cache
                        .entries(*fp)
                        .expect("live column cached")
                        .to_vec()
                })
                .collect();
            self.lambda = Some(LabelMatrix::from_columns(m, cardinality, &cols));
            lambda_update = LambdaUpdate::Assembled;
        }
        // Keep the sharded pattern plan in sync with Λ. Delta refreshes
        // touch only the affected patterns: an appended batch interns
        // just the new rows into the tail shard (an auto-sized plan gains
        // shards as it grows past 8 192 rows); a column splice re-signs
        // just the rows that voted in the old or new column. Structural
        // suite changes rebuild.
        let lambda = self.lambda.as_ref().expect("Λ assembled above");
        match (&mut self.plan, lambda_update) {
            (Some(plan), LambdaUpdate::Patched { .. }) => {
                if new_rows > 0 {
                    plan.append_rows(lambda);
                }
                for &j in &changed_cols {
                    plan.refresh_column_with(lambda, j, &mut self.resign_scratch);
                }
            }
            (Some(_), LambdaUpdate::Unchanged) => {}
            _ => self.plan = Some(ShardedMatrix::build(lambda, 0)),
        }
        let assembly_time = asm_span.finish();

        // ------------------------------------------------------------------
        // 3. Strategy selection (Algorithm 1, with sweep reuse).
        // ------------------------------------------------------------------
        let strat_span = stage_span("strategy");
        // Offer the previous structure sweep (by far the most expensive
        // part) for reuse on a binary one-column edit with no new rows:
        // such an edit rarely changes which LF pairs correlate.
        let reuse = lambda.is_binary() && !structural && new_rows == 0 && changed_cols.len() <= 1;
        let reusable = match &self.last_gm_strategy {
            Some((stored, _)) if reuse => Some(stored),
            _ => None,
        };
        let forced = self.config.force_strategy.as_ref();
        let (strategy, predicted, structure_reused) =
            decide(lambda, &self.config.optimizer, forced, reusable);
        if matches!(strategy, ModelingStrategy::GenerativeModel { .. })
            && forced.is_none()
            && lambda.is_binary()
        {
            self.last_gm_strategy = Some((strategy.clone(), layout));
        }
        let strategy_time = strat_span.finish();

        // ------------------------------------------------------------------
        // 4. Labels: build the selected backend and fit it — warm-started
        //    from the previous refresh's model when possible.
        // ------------------------------------------------------------------
        let train_span = stage_span("fit");
        let plan = self
            .plan
            .as_ref()
            .expect("a plan is kept whenever Λ exists");
        let warm = self.model.take().map(|prev| {
            if structural || prev.num_lfs() != n {
                // Map surviving columns to their previous per-column
                // state by fingerprint; new/edited columns start fresh.
                let col_map: Vec<Option<usize>> = live
                    .iter()
                    .map(|fp| self.last_fingerprints.iter().position(|p| p == fp))
                    .collect();
                let fresh: Vec<usize> = (0..n).filter(|&j| col_map[j].is_none()).collect();
                (prev.remapped(&col_map), fresh)
            } else {
                (prev, changed_cols)
            }
        });
        let (model, fit, labels) =
            fit_and_label(&strategy, lambda, Some(plan), &self.config.train, warm);
        let backend = model.backend_name();
        self.model = Some(model);
        let training_time = train_span.finish();

        // ------------------------------------------------------------------
        // 5. Commit refresh bookkeeping and report.
        // ------------------------------------------------------------------
        self.last_fingerprints = live;
        self.last_rows = m;
        // Keep the streaming plane consistent with the refreshed Λ:
        // suite edits and batch-path row appends change per-LF counts,
        // so the running moment statistics are rebuilt from Λ (edits
        // are rare; ingest — the hot path — never comes through here)
        // and the drift baseline restarts. A no-op refresh (e.g. the
        // automatic post-drift warm refit) leaves the stream untouched.
        if lambda_update != LambdaUpdate::Unchanged {
            if let Some(stream) = &mut self.stream {
                stream.rebuild_from_matrix(lambda);
            }
        }
        // The disc model (if any) now lags these marginals; readers keep
        // serving it while a retrain runs, comparing its generation
        // against this counter. Cache the marginals so the upcoming
        // distillation pass does not redo this refresh's inference.
        self.refresh_generation += 1;
        self.last_marginals = if self.distill_config().is_some() {
            Some(std::sync::Arc::new(labels.clone()))
        } else {
            None
        };
        // Publish this refresh's cache activity (deltas of the session's
        // cumulative stats) and the session-shape gauges.
        let label_density = lambda.label_density();
        let stats_after = self.cache.stats();
        let metrics = incr_metrics();
        metrics.refreshes.inc();
        metrics.cache_hits.add(stats_after.hits - stats_before.hits);
        metrics
            .cache_misses
            .add(stats_after.misses - stats_before.misses);
        metrics
            .cache_extensions
            .add(stats_after.extensions - stats_before.extensions);
        metrics
            .cache_evictions
            .add(stats_after.evictions - stats_before.evictions);
        let unique_patterns = plan.num_patterns();
        self.publish_gauges();

        let report = RefreshReport {
            strategy,
            backend,
            predicted_advantage: predicted,
            label_density,
            lambda_update,
            columns_reused: sync.reused,
            columns_recomputed: sync.recomputed,
            columns_extended: sync.extended,
            lf_invocations: sync.lf_invocations,
            structure_reused,
            warm_started: fit.warm_started,
            fit_epochs: fit.epochs,
            unique_patterns,
            cache: stats_after,
            timings: RefreshTimings {
                lf_application: lf_time,
                matrix_assembly: assembly_time,
                strategy_selection: strategy_time,
                training: training_time,
                total: total_span.finish(),
            },
        };
        (labels, report)
    }
}
