//! Criterion microbenchmarks for the hot paths of every subsystem:
//! generative-model training (exact and Gibbs/CD, and the dev loop's
//! warm CD refit after an LF edit), structure learning,
//! LF application (serial vs parallel), label-matrix diagnostics, the
//! pattern engine, one discriminative training epoch, the distillation
//! fit at serving scale (100 k rows, binary and K = 3), and the serving
//! read path's two hashing kernels (`OP_PREDICT` decode + compute, and
//! memo probes that miss).
//!
//! Run with `cargo bench --workspace`.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_context::{CandidateId, Corpus};
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::optimizer::{decide, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{
    fit_and_label, DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig,
};
use snorkel_core::structure::{learn_structure, structure_sweep, StructureConfig};
use snorkel_core::vote::majority_vote;
use snorkel_datasets::synthetic::{correlated_matrix, independent_matrix, Cluster};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_disc::{LogRegConfig, LogisticRegression, TextFeaturizer};
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf, LfExecutor, Vote};
use snorkel_matrix::stats::matrix_stats;
use snorkel_matrix::PatternIndex;
use snorkel_nlp::tokenize;
use snorkel_pattern::Regex;
use snorkel_serve::frame;
use snorkel_serve::hotpath::{self, ReadScratch, SigMemo, MEMO_CAP};
use snorkel_serve::LfSpec;

/// The shape of the default dev loop's traffic (what `select_model`
/// returns on the 2000-candidate CDR analogue): 33 sparse LFs at about
/// two votes per row, two hub LFs correlated with every other LF, and a
/// few low-degree pairs among the rest — 71 pairs in all.
fn hub_traffic() -> (snorkel_matrix::LabelMatrix, Vec<(usize, usize)>) {
    let (lambda, _) = independent_matrix(2000, 33, 0.75, 2.0 / 33.0, 5);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for hub in [26usize, 29] {
        pairs.extend(
            (0..33)
                .filter(|&j| j != hub)
                .map(|j| (j.min(hub), j.max(hub))),
        );
    }
    pairs.extend((10..19).map(|j| (j, j + 1)));
    pairs.sort_unstable();
    pairs.dedup();
    (lambda, pairs)
}

fn bench_generative_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("generative_model");
    group.sample_size(10);
    // 200×5 is the small-matrix end; 8000×25 is mostly-unique rows, the
    // one shape where the per-pattern pass loses to the old row-wise
    // pass.
    for &(m, n) in &[(200usize, 5usize), (1000, 10), (5000, 20), (8000, 25)] {
        let (lambda, _) = independent_matrix(m, n, 0.75, 0.3, 1);
        let cfg = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("exact_fit_100_epochs", format!("{m}x{n}")),
            &lambda,
            |b, lambda| {
                b.iter(|| {
                    let mut gm = GenerativeModel::new(n, LabelScheme::Binary);
                    gm.fit(lambda, &cfg)
                })
            },
        );
    }

    // Gibbs/CD path with a planted correlated cluster.
    let clusters = [Cluster {
        size: 4,
        accuracy: 0.6,
        deviation: 0.05,
    }];
    let (lambda, _, pairs) = correlated_matrix(2000, 8, 0.75, &clusters, 0.4, 2);
    let cfg = TrainConfig {
        cd_epochs: 10,
        ..TrainConfig::default()
    };
    group.bench_function("gibbs_cd_fit_10_epochs_2000x12", |b| {
        b.iter(|| {
            let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary)
                .with_correlations(&pairs);
            gm.fit(&lambda, &cfg)
        })
    });
    let (lambda, pairs) = hub_traffic();
    group.bench_function("gibbs_cd_fit_10_epochs_2000x33_hubs", |b| {
        b.iter(|| {
            let mut gm = GenerativeModel::new(lambda.num_lfs(), LabelScheme::Binary)
                .with_correlations(&pairs);
            gm.fit(&lambda, &cfg)
        })
    });
    group.finish();
}

/// The fit `pipeline_dev`'s `latency_us` times: one warm refit after an
/// LF edit on the CDR analogue at 2 000 candidates (seed 1), with the
/// structure `decide` picks there (71 correlation pairs). The edit is
/// the dev loop's refinement: LF 5 abstains on the tenth of candidates
/// whose sentence length ends in 3. Each iteration is what a session's
/// `refresh()` runs after the edit once the column is re-executed:
/// `decide` reuses the structure, then `fit_and_label` warm-starts from
/// the model before the edit.
fn bench_cd_warm_refit(c: &mut Criterion) {
    let task = cdr::build(TaskConfig {
        num_candidates: 2000,
        seed: 1,
    });
    let executor = LfExecutor::default();
    let lambda = executor.apply(&task.lfs, &task.corpus, &task.candidates);
    let cfg = OptimizerConfig::default();
    let train = TrainConfig::default();
    let (strategy, _, _) = decide(&lambda, &cfg, None, None);
    let plan = PatternIndex::build(&lambda);
    let (before, _, _) = fit_and_label(&strategy, &lambda, Some(&plan), &train, None);

    const EDITED: usize = 5;
    let suite = Arc::new(task.lfs);
    let edited_lfs: Vec<BoxedLf> = (0..suite.len())
        .map(|j| {
            let suite = Arc::clone(&suite);
            lf(suite[j].name().to_string(), move |x| {
                if j == EDITED && x.sentence().text().len() % 10 == 3 {
                    0
                } else {
                    suite[j].label(x)
                }
            })
        })
        .collect();
    let edited = executor.apply(&edited_lfs, &task.corpus, &task.candidates);
    let edited_plan = PatternIndex::build(&edited);
    let (strategy, _, reused) = decide(&edited, &cfg, None, Some(&strategy));
    assert!(reused, "an edit reuses the structure");

    let mut group = c.benchmark_group("generative_model");
    group.sample_size(20);
    group.bench_function("cd_warm_refit_cdr_2000", |b| {
        b.iter(|| {
            let warm = Some((before.clone(), vec![EDITED]));
            fit_and_label(&strategy, &edited, Some(&edited_plan), &train, warm).2
        })
    });
    group.finish();
}

fn bench_structure_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("structure_learning");
    group.sample_size(10);
    let clusters = [
        Cluster {
            size: 4,
            accuracy: 0.6,
            deviation: 0.05,
        },
        Cluster {
            size: 4,
            accuracy: 0.65,
            deviation: 0.05,
        },
    ];
    for &(m, indep) in &[(1000usize, 8usize), (2000, 16)] {
        let (lambda, _, _) = correlated_matrix(m, indep, 0.75, &clusters, 0.4, 3);
        group.bench_with_input(
            BenchmarkId::new("single_pass", format!("{m}x{}", indep + 8)),
            &lambda,
            |b, lambda| b.iter(|| learn_structure(lambda, &StructureConfig::default())),
        );
        group.bench_with_input(
            BenchmarkId::new("sweep_12_epsilons", format!("{m}x{}", indep + 8)),
            &lambda,
            |b, lambda| {
                let eps: Vec<f64> = (1..=12).rev().map(|i| i as f64 * 0.04).collect();
                b.iter(|| structure_sweep(lambda, &eps, &StructureConfig::default()))
            },
        );
    }
    // The optimizer's default ε grid over the dev loop's matrix shape.
    let (lambda, _) = hub_traffic();
    let eps: Vec<f64> = (1..=25).rev().map(|i| i as f64 * 0.02).collect();
    group.bench_function("structure_sweep_2000x33", |b| {
        b.iter(|| structure_sweep(&lambda, &eps, &StructureConfig::default()))
    });
    group.finish();
}

fn bench_lf_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("lf_application");
    group.sample_size(10);
    let task = cdr::build(TaskConfig {
        num_candidates: 2000,
        seed: 1,
    });
    let ids: Vec<_> = task.candidates.clone();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("cdr_33lfs_2000cands", format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                let exec = LfExecutor::new().with_parallelism(threads);
                b.iter(|| exec.apply(&task.lfs, &task.corpus, &ids))
            },
        );
    }
    group.finish();
}

fn bench_matrix_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_matrix");
    let (lambda, _) = independent_matrix(20000, 50, 0.75, 0.2, 4);
    group.bench_function("stats_20000x50", |b| b.iter(|| matrix_stats(&lambda)));
    group.bench_function("majority_vote_20000x50", |b| {
        b.iter(|| majority_vote(&lambda))
    });
    group.finish();
}

fn bench_pattern_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("pattern_engine");
    let re = Regex::new(r"\b(caus|induc)(es|ed|ing)?\b").expect("compiles");
    let hay = "administration of magnesium sulfate induced transient weakness in the cohort \
               while the control arm received placebo without any causally linked events"
        .repeat(4);
    group.bench_function("alternation_search_600B", |b| b.iter(|| re.is_match(&hay)));
    let lit = Regex::new("placebo").expect("compiles");
    group.bench_function("literal_search_600B", |b| b.iter(|| lit.find(&hay)));
    group.finish();
}

fn bench_discriminative(c: &mut Criterion) {
    let mut group = c.benchmark_group("discriminative");
    group.sample_size(10);
    let task = cdr::build(TaskConfig {
        num_candidates: 1000,
        seed: 5,
    });
    let featurizer = TextFeaturizer::with_buckets(1 << 16);
    let xs = featurizer.featurize_all(&task.corpus, &task.candidates);
    let soft: Vec<f64> = task
        .gold
        .iter()
        .map(|&g| if g == 1 { 0.9 } else { 0.1 })
        .collect();
    let cfg = LogRegConfig {
        dim: 1 << 16,
        epochs: 1,
        ..LogRegConfig::default()
    };
    group.bench_function("logreg_epoch_1000_examples", |b| {
        b.iter(|| {
            let mut lr = LogisticRegression::new(1 << 16);
            lr.fit(&xs, &soft, &cfg)
        })
    });
    group.bench_function("featurize_1000_candidates", |b| {
        b.iter(|| featurizer.featurize_all(&task.corpus, &task.candidates))
    });
    group.finish();
}

/// The distillation fit a leader's `REFRESH` waits on, at serving
/// scale: 100 000 featurized CDR candidates at the default 2^18 buckets,
/// 5 epochs, trained on the moment model's marginals (binary) and on a
/// K = 3 widening of them that puts `(i mod 5) / 10` of row `i`'s mass
/// on a third class (softmax).
fn bench_distill_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill_fit");
    group.sample_size(10);
    let task = cdr::build(TaskConfig {
        num_candidates: 100_000,
        seed: 5,
    });
    let lambda = LfExecutor::default().apply(&task.lfs, &task.corpus, &task.candidates);
    let pipeline = Pipeline::new(PipelineConfig {
        force_strategy: Some(ModelingStrategy::MomentMatching),
        ..PipelineConfig::default()
    });
    let (binary, _) = pipeline.run_from_matrix(&lambda);
    let ternary: Vec<Vec<f64>> = binary
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = (i % 5) as f64 / 10.0;
            vec![(1.0 - t) * p[0], (1.0 - t) * p[1], t]
        })
        .collect();
    let trainer = DiscTrainer::new(DiscTrainerConfig::default());
    let xs = trainer.featurize(&task.corpus, &task.candidates);
    for (name, marginals, k) in [("binary_100k", &binary, 2), ("softmax3_100k", &ternary, 3)] {
        group.bench_function(name, |b| b.iter(|| trainer.fit(&xs, marginals, k, None).1));
    }
    group.finish();
}

/// A refreshed and distilled serving session: 200 candidates, two
/// keyword LFs, the default 2^18 hash buckets.
fn distilled_session() -> IncrementalSession {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..200 {
        let verb = ["causes", "treats", "mentions"][i % 3];
        let text = format!("alpha{} {verb} beta{}", i % 7, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let config = SessionConfig {
        distill: Some(DiscTrainerConfig::default()),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::new(corpus, config);
    session.ingest_candidates(&ids);
    for spec in [
        "lf_causes KEYWORD 1 1 causes",
        "lf_treats KEYWORD -1 -1 treats",
    ] {
        let spec = LfSpec::parse(spec).expect("valid spec");
        session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
    }
    session.refresh();
    session.distill().expect("distills");
    session
}

fn bench_read_path_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_path");
    let mut rng = StdRng::seed_from_u64(36);

    // 32 rows of 17 names of about 8 bytes, the shape of `read_cold`'s
    // OP_PREDICT traffic.
    let session = distilled_session();
    let rows: Vec<Vec<String>> = (0..32)
        .map(|_| {
            (0..17)
                .map(|k| {
                    let word = rng.gen_range(0..5000);
                    if k < 9 {
                        format!("u=w{word}")
                    } else {
                        format!("btw=w{word}")
                    }
                })
                .collect()
        })
        .collect();
    let request = frame::encode_predict(&rows);
    let payload = &request[frame::FRAME_HEADER_BYTES..];
    let mut scratch = ReadScratch::new();
    group.bench_function("predict_batch_32_rows", |b| {
        b.iter(|| {
            hotpath::decode_predict(payload, &mut scratch).expect("valid payload");
            hotpath::compute_predict(&session, payload, &mut scratch).expect("distilled");
            black_box(scratch.probs()[0])
        })
    });

    // 32 lookups of fresh signatures over 20 LFs against a full memo.
    let signature = |rng: &mut StdRng| {
        let (mut cols, mut votes) = (Vec::new(), Vec::<Vote>::new());
        for j in 0..20u32 {
            if rng.gen_bool(0.4) {
                cols.push(j);
                votes.push(if rng.gen_bool(0.5) { 1 } else { -1 });
            }
        }
        (cols, votes)
    };
    let mut memo = SigMemo::new();
    while memo.len() < MEMO_CAP {
        let (cols, votes) = signature(&mut rng);
        memo.insert(&cols, &votes, &[0.5, 0.5]);
    }
    let misses: Vec<(Vec<u32>, Vec<Vote>)> = std::iter::repeat_with(|| signature(&mut rng))
        .filter(|(cols, votes)| memo.lookup(cols, votes).is_none())
        .take(32)
        .collect();
    group.bench_function("memo_miss_32_rows", |b| {
        b.iter(|| {
            misses
                .iter()
                .filter(|(cols, votes)| {
                    let hash = SigMemo::hash(cols, votes);
                    memo.lookup_hashed(hash, cols, votes).is_none()
                })
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generative_training,
    bench_cd_warm_refit,
    bench_structure_learning,
    bench_lf_application,
    bench_matrix_ops,
    bench_pattern_engine,
    bench_discriminative,
    bench_distill_fit,
    bench_read_path_hashing
);
criterion_main!(benches);
