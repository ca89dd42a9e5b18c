//! `pipeline_dev`: the paper's batch path and its dev loop, no sockets.
//!
//! The CDR analogue (33 LFs) at a frozen size. First half of the run:
//! cold `Pipeline::run` repetitions (LF application → strategy
//! selection → fit → marginals → distillation). Second half: an
//! `IncrementalSession` over the same corpus takes scripted LF edits,
//! each followed by `refresh()`. `lf`, `matrix`, `core`, `disc` and
//! `incr` do all the work and `serve` none, so a serve-side change must
//! leave this workload flat.

use std::sync::Arc;
use std::time::{Duration, Instant};

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::label_model::ModelRegistry;
use snorkel_core::model::{GenerativeModel, TrainConfig};
use snorkel_core::optimizer::{select_model, OptimizerConfig};
use snorkel_core::pipeline::{DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_incr::{IncrementalSession, RefreshReport, SessionConfig};
use snorkel_lf::{lf, BoxedLf, LfExecutor};
use snorkel_matrix::ShardedMatrix;

use crate::fixture::Scrape;
use crate::gen::{self, EditOp};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{StageTable, Tracer};
use crate::Opts;

/// Fewest cold repetitions and dev-loop steps, however short the run.
const MIN_REPS: usize = 3;
const MIN_STEPS: usize = 8;

/// Hash buckets of the distilled model the cold pipeline trains.
const DISC_DIM: u32 = 1 << 16;

struct Fixture {
    corpus: Corpus,
    candidates: Vec<CandidateId>,
    /// The CDR suite, shared: every LF handed to the pipeline or the
    /// session is a closure delegating into it, because the suite's KB
    /// lookups are tied to this corpus and cannot be rebuilt apart.
    suite: Arc<Vec<BoxedLf>>,
    session: IncrementalSession,
    corpus_build_s: f64,
}

/// LF `j` of the suite under `name`; with a `salt`, a dev-loop
/// refinement of it that abstains on a salt-chosen tenth of candidates.
fn delegate(suite: &Arc<Vec<BoxedLf>>, j: usize, name: String, salt: Option<u64>) -> BoxedLf {
    let suite = Arc::clone(suite);
    lf(name, move |x| match salt {
        Some(salt) if x.sentence().text().len() as u64 % 10 == salt % 10 => 0,
        _ => suite[j].label(x),
    })
}

fn whole_suite(suite: &Arc<Vec<BoxedLf>>) -> Vec<BoxedLf> {
    (0..suite.len())
        .map(|j| delegate(suite, j, suite[j].name().to_string(), None))
        .collect()
}

/// Corpus generation, session build and the first (cold) refresh.
fn setup(seed: u64) -> Fixture {
    let t = Instant::now();
    let task = cdr::build(TaskConfig {
        num_candidates: gen::PIPELINE_CANDIDATES,
        seed,
    });
    let corpus_build_s = t.elapsed().as_secs_f64();
    let suite = Arc::new(task.lfs);
    let mut session = IncrementalSession::new(task.corpus.clone(), SessionConfig::default());
    session.ingest_candidates(&task.candidates);
    for (j, f) in whole_suite(&suite).into_iter().enumerate() {
        session.add_lf_tagged(f, j as u64);
    }
    session.refresh();
    Fixture {
        corpus: task.corpus,
        candidates: task.candidates,
        suite,
        session,
        corpus_build_s,
    }
}

/// FNV-1a over the bit patterns of every marginal.
fn digest(labels: &[Vec<f64>]) -> u64 {
    labels
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ p.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn rows_sum_to_one(labels: &[Vec<f64>]) -> bool {
    labels
        .iter()
        .all(|row| (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9)
}

/// One dev-loop step applied to the session. Returns the invocations a
/// correct cache must spend on it: one column's worth for an edit or an
/// add, none for a remove.
fn apply_step(fx: &mut Fixture, op: EditOp, step: usize, added: &mut Vec<String>) -> usize {
    let rows = fx.candidates.len();
    match op {
        EditOp::Edit { lf, salt } => {
            let name = fx.suite[lf].name().to_string();
            fx.session
                .edit_lf(delegate(&fx.suite, lf, name, Some(salt)));
            rows
        }
        EditOp::Add { lf, salt } => {
            let name = format!("lf_added_{step}");
            fx.session
                .add_lf(delegate(&fx.suite, lf, name.clone(), Some(salt)));
            added.push(name);
            rows
        }
        EditOp::Remove => {
            let name = added.pop().expect("the script removes only what it added");
            fx.session
                .remove_lf(&name)
                .expect("added LF is in the suite");
            0
        }
    }
}

/// Seconds of each public stage call of one cold pipeline, made
/// directly and in order — the per-layer view of `Pipeline::run`.
struct Stages {
    apply_s: f64,
    invocations: f64,
    select_s: f64,
    plan_build_s: f64,
    dedup_ratio: f64,
    fit_s: f64,
    marginals_s: f64,
    featurize_s: f64,
    train_s: f64,
}

fn replay_stages(fx: &Fixture, lfs: &[BoxedLf], tracer: &mut Tracer) -> Stages {
    let secs = |ns: u64| ns as f64 / 1e9;
    let train = TrainConfig::default();
    let registry = ModelRegistry::standard();

    let before = Scrape::now();
    let (lambda, apply_ns) = tracer.timed("lf.apply", 0, || {
        LfExecutor::default().apply(lfs, &fx.corpus, &fx.candidates)
    });
    let invocations = before.delta(&Scrape::now(), "snorkel_lf_invocations_total");
    let (decision, select_ns) = tracer.timed("core.select", 0, || {
        select_model(&lambda, &OptimizerConfig::default(), &registry)
    });
    let (sharded, plan_build_ns) =
        tracer.timed("matrix.plan_build", 0, || ShardedMatrix::build(&lambda, 0));

    let mut model = registry
        .build(&decision.strategy, lambda.num_lfs(), lambda.cardinality())
        .expect("standard registry builds every strategy");
    // The plan the pipeline itself would use (none below the scale-out
    // row threshold), so fit and marginals take the pipeline's path.
    let plan = if model.benefits_from_plan() {
        GenerativeModel::plan_for(&lambda, &train)
    } else {
        None
    };
    let (_, fit_ns) = tracer.timed("core.fit", 0, || {
        model.fit(&lambda, plan.as_ref(), &train);
    });
    let (labels, marginals_ns) = tracer.timed("core.marginals", 0, || {
        model.marginals(&lambda, plan.as_ref())
    });

    let trainer = DiscTrainer::new(DiscTrainerConfig::with_dim(DISC_DIM));
    let (xs, featurize_ns) = tracer.timed("disc.featurize", 0, || {
        trainer.featurize(&fx.corpus, &fx.candidates)
    });
    let (_, train_ns) = tracer.timed("disc.train", 0, || {
        std::hint::black_box(trainer.train(&xs, &labels, labels[0].len(), plan.as_ref()));
    });
    Stages {
        apply_s: secs(apply_ns),
        invocations,
        select_s: secs(select_ns),
        plan_build_s: secs(plan_build_ns),
        dedup_ratio: sharded.dedup_ratio(),
        fit_s: secs(fit_ns),
        marginals_s: secs(marginals_ns),
        featurize_s: secs(featurize_ns),
        train_s: secs(train_ns),
    }
}

pub fn run(opts: &Opts) -> RunResult {
    let mut result = opts.result();
    let (setup_s, mut fx) = crate::median_setup(|| setup(opts.seed), drop);
    result.e2e("setup_s", setup_s.0, setup_s.1);

    let pipeline = Pipeline::new(PipelineConfig {
        distill: Some(DiscTrainerConfig::with_dim(DISC_DIM)),
        ..PipelineConfig::default()
    });
    let lfs = whole_suite(&fx.suite);
    let rows = fx.candidates.len();

    let epoch = Instant::now();
    let half = epoch + Duration::from_secs(opts.seconds) / 2;
    let deadline = epoch + Duration::from_secs(opts.seconds);
    let mut tracer = Tracer::new("main", epoch, opts.trace);
    tracer.open("window", 0);

    // Phase 1: cold pipeline repetitions.
    let mut cold_s = Vec::new();
    let mut digests = Vec::new();
    let mut sums_ok = true;
    while cold_s.len() < MIN_REPS || Instant::now() < half {
        let rep = cold_s.len() as u64;
        let ((labels, _), ns) = tracer.timed("core.pipeline.run", rep, || {
            pipeline.run(&lfs, &fx.corpus, &fx.candidates)
        });
        cold_s.push(ns as f64 / 1e9);
        tracer.open("bench.check", rep);
        digests.push(digest(&labels));
        sums_ok &= labels.len() == rows && rows_sum_to_one(&labels);
        tracer.close();
    }

    // Phase 2: the dev loop.
    let script = gen::edit_script(opts.seed, fx.suite.len(), 64);
    let mut added = Vec::new();
    let mut steps: Vec<(EditOp, f64, RefreshReport)> = Vec::new();
    let mut invocations_ok = true;
    while steps.len() < MIN_STEPS || Instant::now() < deadline {
        let k = steps.len();
        let op = script[k % script.len()];
        tracer.open("incr.edit", k as u64);
        let expect = apply_step(&mut fx, op, k, &mut added);
        tracer.close();
        let ((labels, report), ns) =
            tracer.timed("incr.refresh", k as u64, || fx.session.refresh());
        let took = ns as f64 / 1e9;
        tracer.open("bench.check", k as u64);
        invocations_ok &= report.lf_invocations == expect;
        sums_ok &= labels.len() == rows && rows_sum_to_one(&labels);
        tracer.close();
        steps.push((op, took, report));
    }
    tracer.close();

    result.attempted = (cold_s.len() + steps.len()) as u64;
    result.check(
        format!(
            "{} cold repetitions produce one marginals digest",
            digests.len()
        ),
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    result.check("every marginal row sums to 1 within 1e-9", sums_ok);
    result.check(
        "an edit or add re-executes exactly one column, a remove none",
        invocations_ok,
    );

    let of_kind = |want: fn(&EditOp) -> bool| -> Vec<f64> {
        steps
            .iter()
            .filter(|(op, _, _)| want(op))
            .map(|(_, s, _)| *s * 1e6)
            .collect()
    };
    let mut edits = of_kind(|op| matches!(op, EditOp::Edit { .. }));
    let rate = rows as f64 / stats::median(&mut cold_s);
    let p50 = stats::median(&mut edits);
    result.primary((rate, cold_s.len()), (p50, edits.len()));
    result.info(
        "cold_run_p50_s",
        stats::quantile(&cold_s, 0.5),
        "s",
        cold_s.len(),
    );
    for (name, mut us) in [
        (
            "refresh_add_p50_ms",
            of_kind(|op| matches!(op, EditOp::Add { .. })),
        ),
        (
            "refresh_remove_p50_ms",
            of_kind(|op| matches!(op, EditOp::Remove)),
        ),
    ] {
        if !us.is_empty() {
            result.info(name, stats::median(&mut us) / 1e3, "ms", us.len());
        }
    }

    if opts.trace {
        let mut replay_tracer = Tracer::new("replay", epoch, true);
        replay_tracer.open("replay", 0);
        let st = replay_stages(&fx, &lfs, &mut replay_tracer);
        replay_tracer.close();
        result.layer("nlp.corpus_build_s", fx.corpus_build_s, 1);
        result.layer("context.candidates", rows as f64, 1);
        result.layer("lf.apply_s", st.apply_s, 1);
        result.layer("lf.invocations", st.invocations, 1);
        result.layer("matrix.plan_build_s", st.plan_build_s, 1);
        result.layer("matrix.dedup_ratio", st.dedup_ratio, 1);
        result.layer("core.select_s", st.select_s, 1);
        result.layer("core.fit_s", st.fit_s, 1);
        result.layer("core.marginals_s", st.marginals_s, 1);
        result.layer("disc.featurize_s", st.featurize_s, 1);
        result.layer("disc.train_s", st.train_s, 1);

        let edit_reports: Vec<&RefreshReport> = steps
            .iter()
            .filter(|(op, _, _)| matches!(op, EditOp::Edit { .. }))
            .map(|(_, _, r)| r)
            .collect();
        let med = |f: fn(&RefreshReport) -> Duration| {
            let mut v: Vec<f64> = edit_reports.iter().map(|r| f(r).as_secs_f64()).collect();
            stats::median(&mut v)
        };
        let n = edit_reports.len();
        result.layer(
            "incr.refresh_stage_s.lf_application",
            med(|r| r.timings.lf_application),
            n,
        );
        result.layer(
            "incr.refresh_stage_s.matrix_assembly",
            med(|r| r.timings.matrix_assembly),
            n,
        );
        result.layer(
            "incr.refresh_stage_s.strategy_selection",
            med(|r| r.timings.strategy_selection),
            n,
        );
        result.layer(
            "incr.refresh_stage_s.training",
            med(|r| r.timings.training),
            n,
        );
        result.layer(
            "matrix.delta_splice_s",
            med(|r| r.timings.matrix_assembly),
            n,
        );
        let mut per_edit: Vec<f64> = edit_reports
            .iter()
            .map(|r| r.lf_invocations as f64)
            .collect();
        result.layer("lf.invocations_per_edit", stats::median(&mut per_edit), n);
        let cache = fx.session.cache_stats();
        result.layer(
            "incr.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            (cache.hits + cache.misses) as usize,
        );

        let mut table = StageTable::build(std::slice::from_ref(&tracer));
        let reps = cold_s.len() as u64;
        let part = |name, secs: f64| (name, secs * reps as f64, reps);
        table.attribute(
            "main",
            "core.pipeline.run",
            &[
                part("lf.apply (replayed)", st.apply_s),
                part("core.select (replayed)", st.select_s),
                part("core.fit (replayed)", st.fit_s),
                part("core.marginals (replayed)", st.marginals_s),
                part("disc.featurize (replayed)", st.featurize_s),
                part("disc.train (replayed)", st.train_s),
            ],
            "core.pipeline.residual",
        );
        // `refresh()` has no public stage calls to replay; its own
        // report says where its time went.
        let reported = |name, f: fn(&RefreshReport) -> Duration| {
            let total: f64 = steps.iter().map(|(_, _, r)| f(r).as_secs_f64()).sum();
            (name, total, steps.len() as u64)
        };
        table.attribute(
            "main",
            "incr.refresh",
            &[
                reported("lf_application (RefreshReport)", |r| {
                    r.timings.lf_application
                }),
                reported("matrix_assembly (RefreshReport)", |r| {
                    r.timings.matrix_assembly
                }),
                reported("strategy_selection (RefreshReport)", |r| {
                    r.timings.strategy_selection
                }),
                reported("training (RefreshReport)", |r| r.timings.training),
            ],
            "incr.refresh.residual",
        );
        crate::finish_trace(&mut result, table, &[tracer, replay_tracer]);
    }
    result
}
