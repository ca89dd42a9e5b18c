//! End-to-end label-generation pipeline with wall-clock instrumentation.
//!
//! `labeling functions → Λ → backend selection → fit → probabilistic
//! labels Ỹ`.
//!
//! This is the loop the paper's users run on every LF edit, and the unit
//! the §3 timing claims are about: skipping generative training when the
//! optimizer picks MV sped pipelines up 1.8×, and stopping the ε sweep
//! at the elbow saved up to 61% of training time. The [`PipelineReport`]
//! exposes per-stage timings so the bench harness can regenerate those
//! numbers.
//!
//! Labeling itself is delegated to whichever [`LabelModel`] backend the
//! strategy selects — a forced [`PipelineConfig::force_strategy`], else
//! [`select_model`] — built by [`ModelRegistry::build`]. Majority vote
//! is just the cheapest backend, not a special case.

use std::time::Duration;

use snorkel_context::{CandidateId, Corpus};
use snorkel_disc::{DistillConfig, DistillReport, DistilledModel, TextFeaturizer};
use snorkel_lf::{BoxedLf, LfExecutor};
use snorkel_linalg::SparseVec;
use snorkel_matrix::{LabelMatrix, ShardedMatrix};

use crate::label_model::{LabelModel, ModelRegistry};
use crate::model::{LabelScheme, TrainConfig};
use crate::optimizer::{select_model, ModelingStrategy, OptimizerConfig};

/// Start a span for one pipeline stage. The span's
/// [`finish`](snorkel_obs::Span::finish) both records into
/// `snorkel_core_pipeline_stage_seconds{stage="…"}` and hands the
/// duration back — the [`PipelineReport`] timings and the live metrics
/// are the same measurement, not two clocks that can disagree.
fn stage_span(stage: &'static str) -> snorkel_obs::Span {
    let hist =
        snorkel_obs::global().histogram("snorkel_core_pipeline_stage_seconds", &[("stage", stage)]);
    snorkel_obs::Span::start(stage, hist, snorkel_obs::TraceLevel::Debug)
}

/// Configuration of the optional distillation stage: how candidates are
/// featurized and how the discriminative model trains on the label
/// model's marginals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiscTrainerConfig {
    /// Hashed-text featurizer (its bucket count must equal
    /// [`DistillConfig::dim`]; [`DiscTrainerConfig::with_dim`] keeps
    /// them in sync).
    pub featurizer: TextFeaturizer,
    /// Noise-aware training settings for the distilled model.
    pub train: DistillConfig,
}

impl DiscTrainerConfig {
    /// A configuration with featurizer buckets and model dimensionality
    /// agreeing at `dim`.
    pub fn with_dim(dim: u32) -> Self {
        DiscTrainerConfig {
            featurizer: TextFeaturizer::with_buckets(dim),
            train: DistillConfig {
                dim,
                ..DistillConfig::default()
            },
        }
    }
}

/// The distillation stage (paper §2.3/§2.4): train a discriminative
/// model on the label model's probabilistic labels with the noise-aware
/// expected loss, so predictions generalize **beyond the labeling
/// functions' coverage**. Training is minibatched: each step takes one
/// minibatch from each of the scale-out plan's [`ShardedMatrix`] row
/// ranges and sums their gradients in one sequential pass, in range
/// order; abstain-marginal (near-uniform) rows are down-weighted by
/// their confidence and dropped at the floor.
#[derive(Clone, Debug, Default)]
pub struct DiscTrainer {
    /// Stage configuration.
    pub config: DiscTrainerConfig,
}

impl DiscTrainer {
    /// A trainer with the given configuration.
    pub fn new(config: DiscTrainerConfig) -> Self {
        DiscTrainer { config }
    }

    /// The contiguous row ranges training draws its minibatches from:
    /// the plan's shard ranges when one is live, else one range
    /// covering all `rows`.
    pub fn ranges_for(plan: Option<&ShardedMatrix>, rows: usize) -> Vec<(usize, usize)> {
        match plan {
            Some(plan) if plan.num_rows() == rows => plan
                .shards()
                .iter()
                .map(|s| {
                    let r = s.row_range();
                    (r.start, r.end)
                })
                .collect(),
            _ => vec![(0, rows)],
        }
    }

    /// Hashed feature vectors for the given candidates.
    pub fn featurize(&self, corpus: &Corpus, candidates: &[CandidateId]) -> Vec<SparseVec> {
        self.config.featurizer.featurize_all(corpus, candidates)
    }

    /// Cold-train a fresh distilled model on the label model's
    /// marginals. `num_classes` must match the marginal rows' width
    /// (it exists so an empty training set still builds a model of the
    /// right shape); a mismatch panics instead of silently training a
    /// different class count.
    pub fn train(
        &self,
        xs: &[SparseVec],
        marginals: &[Vec<f64>],
        num_classes: usize,
        plan: Option<&ShardedMatrix>,
    ) -> (DistilledModel, DistillReport) {
        if let Some(row) = marginals.first() {
            assert_eq!(
                row.len(),
                num_classes,
                "train: marginals have {} classes, caller claimed {num_classes}",
                row.len()
            );
        }
        let mut model = DistilledModel::new(self.config.train.dim, num_classes);
        let ranges = DiscTrainer::ranges_for(plan, xs.len());
        let report = model.fit(xs, marginals, &ranges, &self.config.train);
        (model, report)
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Optimizer settings (Algorithm 1).
    pub optimizer: OptimizerConfig,
    /// Label-model training settings.
    pub train: TrainConfig,
    /// LF executor (parallelism, cardinality).
    pub executor: LfExecutor,
    /// Force a backend instead of running the optimizer (ablations).
    pub force_strategy: Option<ModelingStrategy>,
    /// Distillation stage: when set, [`Pipeline::run`] featurizes the
    /// candidates and trains a [`DistilledModel`] on the marginals
    /// (matrix-only entry points cannot featurize and skip it).
    pub distill: Option<DiscTrainerConfig>,
}

/// Per-stage wall-clock timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineTimings {
    /// Applying the LF suite.
    pub lf_application: Duration,
    /// Optimizer: advantage bound + structure sweep.
    pub strategy_selection: Duration,
    /// Backend fit + marginals (near zero for the majority-vote
    /// backend, whose fit is a no-op).
    pub training: Duration,
    /// Distillation: featurizing the candidates and training the
    /// discriminative model on the marginals (zero when disabled).
    pub distillation: Duration,
    /// Whole pipeline.
    pub total: Duration,
}

/// Everything the pipeline produced besides the labels themselves.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// The strategy that produced the labels.
    pub strategy: ModelingStrategy,
    /// Name of the backend that produced the labels.
    pub backend: &'static str,
    /// Predicted advantage bound A~* (NaN when forced or multi-class).
    pub predicted_advantage: f64,
    /// Label density of Λ.
    pub label_density: f64,
    /// Stage timings.
    pub timings: PipelineTimings,
    /// The fitted label model. Match on the variant to read
    /// backend-specific state, e.g. `LabelModel::Generative(gm)` for the
    /// exact backend's accuracy weights.
    pub model: LabelModel,
    /// The distilled discriminative model, when the
    /// [`PipelineConfig::distill`] stage ran — it answers for
    /// candidates *outside* Λ's coverage.
    pub disc: Option<DistilledModel>,
    /// What the distillation stage did (rows trained / dropped, loss).
    pub disc_report: Option<DistillReport>,
}

/// The staged pipeline: build once, then run against label matrices as
/// LFs evolve.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Configuration used for every run.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Run from raw candidates: apply LFs, model, and — when
    /// [`PipelineConfig::distill`] is set — featurize the candidates and
    /// distill a discriminative model from the marginals (minibatches
    /// drawn from the scale-out plan's shard ranges). Returns per-class
    /// probabilistic labels (`labels[i][class]`) and the report.
    pub fn run(
        &self,
        lfs: &[BoxedLf],
        corpus: &Corpus,
        candidates: &[CandidateId],
    ) -> (Vec<Vec<f64>>, PipelineReport) {
        let lf_span = stage_span("lf_application");
        let lambda = self.config.executor.apply(lfs, corpus, candidates);
        let lf_time = lf_span.finish();
        let (labels, mut report, plan) = self.run_from_matrix_inner(&lambda);
        report.timings.lf_application = lf_time;
        report.timings.total += lf_time;
        if let Some(disc_cfg) = &self.config.distill {
            let disc_span = stage_span("distillation");
            let trainer = DiscTrainer::new(disc_cfg.clone());
            let xs = trainer.featurize(corpus, candidates);
            let num_classes = LabelScheme::from_cardinality(lambda.cardinality()).num_classes();
            let (disc, disc_report) = trainer.train(&xs, &labels, num_classes, plan.as_ref());
            report.disc = Some(disc);
            report.disc_report = Some(disc_report);
            report.timings.distillation = disc_span.finish();
            report.timings.total += report.timings.distillation;
        }
        (labels, report)
    }

    /// Run from an existing label matrix (LF outputs are cached across
    /// development iterations in practice). Matrix-only entry points
    /// have no corpus to featurize, so the distillation stage is
    /// skipped; use [`Self::run`] or drive a [`DiscTrainer`] directly.
    pub fn run_from_matrix(&self, lambda: &LabelMatrix) -> (Vec<Vec<f64>>, PipelineReport) {
        let (labels, report, _) = self.run_from_matrix_inner(lambda);
        (labels, report)
    }

    fn run_from_matrix_inner(
        &self,
        lambda: &LabelMatrix,
    ) -> (Vec<Vec<f64>>, PipelineReport, Option<ShardedMatrix>) {
        let strategy_span = stage_span("strategy_selection");

        let (strategy, predicted) = match &self.config.force_strategy {
            Some(s) => (s.clone(), f64::NAN),
            None => {
                let d = select_model(lambda, &self.config.optimizer, &ModelRegistry);
                (d.strategy, d.predicted_advantage)
            }
        };
        let strategy_time = strategy_span.finish();

        let training_span = stage_span("training");
        let Ok(mut model) = ModelRegistry.build(&strategy, lambda.num_lfs(), lambda.cardinality());
        // Build the plan once and reuse it for both training and the
        // final marginals pass — unless the backend would not profit
        // (majority vote: the Algorithm-1 skip-work branch must not pay
        // an index build it cannot amortize).
        let plan = model
            .benefits_from_plan()
            .then(|| ShardedMatrix::build(lambda, 0));
        model.fit(lambda, plan.as_ref(), &self.config.train);
        let labels = model.marginals(lambda, plan.as_ref());
        let training_time = training_span.finish();

        let report = PipelineReport {
            backend: model.backend_name(),
            strategy,
            predicted_advantage: predicted,
            label_density: lambda.label_density(),
            timings: PipelineTimings {
                lf_application: Duration::ZERO,
                strategy_selection: strategy_time,
                training: training_time,
                distillation: Duration::ZERO,
                total: strategy_time + training_time,
            },
            model,
            disc: None,
            disc_report: None,
        };
        (labels, report, plan)
    }
}

/// One-call convenience: run the default pipeline over a matrix.
pub fn run_pipeline(lambda: &LabelMatrix) -> (Vec<Vec<f64>>, PipelineReport) {
    Pipeline::default().run_from_matrix(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snorkel_matrix::{LabelMatrixBuilder, Vote};

    fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> (LabelMatrix, Vec<Vote>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = LabelMatrixBuilder::new(m, accs.len());
        let mut gold = Vec::with_capacity(m);
        for i in 0..m {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            gold.push(y);
            for (j, &acc) in accs.iter().enumerate() {
                if rng.gen::<f64>() < pl {
                    b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
                }
            }
        }
        (b.build(), gold)
    }

    #[test]
    fn gm_path_produces_calibratedish_labels() {
        let (lambda, gold) = planted(2000, &[0.9, 0.8, 0.7, 0.6], 0.5, 1);
        let cfg = PipelineConfig {
            optimizer: OptimizerConfig {
                skip_structure_search: true,
                ..OptimizerConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (labels, report) = Pipeline::new(cfg).run_from_matrix(&lambda);
        assert!(matches!(
            report.strategy,
            ModelingStrategy::GenerativeModel { .. }
        ));
        assert_eq!(report.backend, "generative");
        assert!(matches!(report.model, LabelModel::Generative(_)));
        assert_eq!(labels.len(), 2000);
        // Probabilistic labels should beat coin-flipping on gold. The
        // Bayes-optimal accuracy for this suite (accs 0.9..0.6 at 50%
        // propensity) sits right around 0.80, so assert with a margin
        // that tolerates per-realization wobble.
        let acc: f64 = labels
            .iter()
            .zip(&gold)
            .map(|(l, &g)| {
                let pred: Vote = if l[0] > 0.5 { 1 } else { -1 };
                (pred == g) as u8 as f64
            })
            .sum::<f64>()
            / 2000.0;
        assert!(acc > 0.77, "pipeline label accuracy {acc:.3}");
    }

    #[test]
    fn mv_path_skips_training() {
        let (lambda, _) = planted(1000, &[0.75, 0.75], 0.05, 2);
        let (labels, report) = run_pipeline(&lambda);
        assert_eq!(report.strategy, ModelingStrategy::MajorityVote);
        assert_eq!(report.backend, "majority-vote");
        assert!(matches!(report.model, LabelModel::MajorityVote(_)));
        assert!(report.timings.training < report.timings.total);
        // Uniform rows where nothing voted.
        assert!(labels.iter().any(|l| (l[0] - 0.5).abs() < 1e-12));
    }

    #[test]
    fn forced_strategy_bypasses_optimizer() {
        let (lambda, _) = planted(500, &[0.8, 0.8, 0.8], 0.5, 3);
        let cfg = PipelineConfig {
            force_strategy: Some(ModelingStrategy::MajorityVote),
            ..PipelineConfig::default()
        };
        let (_, report) = Pipeline::new(cfg).run_from_matrix(&lambda);
        assert_eq!(report.strategy, ModelingStrategy::MajorityVote);
        assert!(report.predicted_advantage.is_nan(), "no bound when forced");
    }

    #[test]
    fn mv_is_faster_than_gm_on_same_matrix() {
        // The §3.1.2 speedup claim in miniature: forcing MV must beat
        // forcing GM on wall clock.
        let (lambda, _) = planted(3000, &[0.8; 10], 0.3, 4);
        let mv_cfg = PipelineConfig {
            force_strategy: Some(ModelingStrategy::MajorityVote),
            ..PipelineConfig::default()
        };
        let gm_cfg = PipelineConfig {
            force_strategy: Some(ModelingStrategy::GenerativeModel {
                epsilon: 0.0,
                correlations: Vec::new(),
                strengths: Vec::new(),
            }),
            ..PipelineConfig::default()
        };
        let (_, mv_report) = Pipeline::new(mv_cfg).run_from_matrix(&lambda);
        let (_, gm_report) = Pipeline::new(gm_cfg).run_from_matrix(&lambda);
        assert!(mv_report.timings.total < gm_report.timings.total);
    }

    #[test]
    fn forced_moment_backend_labels_through_trait() {
        let (lambda, gold) = planted(2000, &[0.9, 0.8, 0.7, 0.6], 0.5, 1);
        let cfg = PipelineConfig {
            force_strategy: Some(ModelingStrategy::MomentMatching),
            ..PipelineConfig::default()
        };
        let (labels, report) = Pipeline::new(cfg).run_from_matrix(&lambda);
        assert_eq!(report.backend, "moment");
        let acc: f64 = labels
            .iter()
            .zip(&gold)
            .map(|(l, &g)| {
                let pred: Vote = if l[0] > 0.5 { 1 } else { -1 };
                (pred == g) as u8 as f64
            })
            .sum::<f64>()
            / 2000.0;
        assert!(acc > 0.77, "moment-backend label accuracy {acc:.3}");
    }

    #[test]
    fn distill_stage_trains_on_marginals_and_covers_unseen_candidates() {
        use snorkel_lf::KeywordBetweenLf;
        use snorkel_nlp::tokenize;

        // Corpus where "causes"/"induces" ⇒ +1 and "treats"/"cures" ⇒ −1,
        // but the LF suite only knows "causes"/"treats".
        let mut corpus = Corpus::new();
        let doc = corpus.add_document("d");
        let mut add = |verb: &str, i: usize| {
            let text = format!("chem{i} {verb} disease{i}");
            let tokens = tokenize(&text);
            let last = tokens.len();
            let s = corpus.add_sentence(doc, &text, tokens);
            let a = corpus.add_span(s, 0, 1, Some("Chemical"));
            let b = corpus.add_span(s, last - 1, last, Some("Disease"));
            corpus.add_candidate(vec![a, b])
        };
        let mut train_ids = Vec::new();
        for i in 0..120 {
            // Covered verbs co-occur with the uncovered cue words via
            // shared sentences ("causes" rows also mention "induces").
            let verb = if i % 2 == 0 {
                "causes and induces"
            } else {
                "treats and cures"
            };
            train_ids.push(add(verb, i));
        }
        // Held-out candidates with ZERO LF coverage: only the cue words.
        let pos_unseen = add("induces", 500);
        let neg_unseen = add("cures", 501);

        let lfs: Vec<BoxedLf> = vec![
            Box::new(KeywordBetweenLf::new("lf_causes", &["causes"], 1, 1)),
            Box::new(KeywordBetweenLf::new("lf_treats", &["treats"], -1, -1)),
        ];
        let cfg = PipelineConfig {
            distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
            ..PipelineConfig::default()
        };
        let pipeline = Pipeline::new(cfg);
        let (_, report) = pipeline.run(&lfs, &corpus, &train_ids);
        let disc = report.disc.as_ref().expect("distill stage ran");
        let disc_report = report.disc_report.expect("distill report present");
        assert!(disc_report.rows_trained > 0);
        assert!(report.timings.distillation > Duration::ZERO);

        // The LFs abstain on the held-out candidates…
        for &id in &[pos_unseen, neg_unseen] {
            let view = corpus.candidate(id);
            assert!(
                lfs.iter().all(|lf| lf.label(&view) == 0),
                "not zero-coverage"
            );
        }
        // …but the distilled model classifies them from features alone.
        let trainer = DiscTrainer::new(pipeline.config.distill.clone().unwrap());
        let xs = trainer.featurize(&corpus, &[pos_unseen, neg_unseen]);
        assert_eq!(disc.predict_vote(&xs[0]), 1, "unseen 'induces' row");
        assert_eq!(disc.predict_vote(&xs[1]), -1, "unseen 'cures' row");
    }

    #[test]
    fn stage_spans_feed_live_metrics() {
        let hist = snorkel_obs::global().histogram(
            "snorkel_core_pipeline_stage_seconds",
            &[("stage", "training")],
        );
        let before = hist.snapshot().count();
        let (lambda, _) = planted(200, &[0.8, 0.8], 0.5, 7);
        let (_, report) = run_pipeline(&lambda);
        // The report timing and the histogram recording are the same
        // measurement (monotone assertions: the registry is global).
        assert!(report.timings.training <= report.timings.total);
        // Other tests in this binary run pipelines concurrently, so
        // assert growth, not an exact delta.
        assert!(hist.snapshot().count() > before);
    }

    #[test]
    fn matrix_only_entry_skips_distillation() {
        let (lambda, _) = planted(500, &[0.8, 0.8], 0.5, 9);
        let cfg = PipelineConfig {
            distill: Some(DiscTrainerConfig::with_dim(1 << 10)),
            ..PipelineConfig::default()
        };
        let (_, report) = Pipeline::new(cfg).run_from_matrix(&lambda);
        assert!(report.disc.is_none(), "no corpus to featurize");
    }

    #[test]
    fn multiclass_always_trains_gm() {
        let mut b = LabelMatrixBuilder::with_cardinality(50, 3, 5);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..50 {
            for j in 0..3 {
                if rng.gen::<f64>() < 0.8 {
                    b.set(i, j, rng.gen_range(1..=5));
                }
            }
        }
        let (labels, report) = run_pipeline(&b.build());
        assert!(matches!(
            report.strategy,
            ModelingStrategy::GenerativeModel { .. }
        ));
        assert_eq!(labels[0].len(), 5);
        for row in &labels {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
