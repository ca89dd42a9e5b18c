//! Distill-and-serve end to end (paper §2.4): the discriminative model
//! trained on the label model's probabilistic labels must *generalize
//! beyond the labeling functions' coverage* — on held-out candidates
//! where every LF abstains, majority vote is stuck at a coin flip while
//! the distilled model classifies from features alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel::context::{CandidateId, Corpus};
use snorkel::core::label_model::{LabelModel, MomentModel};
use snorkel::core::model::{LabelScheme, TrainConfig};
use snorkel::core::pipeline::{DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig};
use snorkel::disc::{hash_features, DistillConfig};
use snorkel::lf::{BoxedLf, KeywordBetweenLf};
use snorkel::linalg::SparseVec;
use snorkel::matrix::{LabelMatrixBuilder, ShardedMatrix, Vote};
use snorkel::nlp::tokenize;

/// Binary relation corpus. Positive sentences use a *covered* verb
/// ("causes"/"induces", both known to LFs) plus an *uncovered* cue
/// ("triggers"); negatives mirror it ("treats"/"cures" covered,
/// "blocks" uncovered). Held-out candidates carry only the uncovered
/// cue — zero LF coverage by construction.
struct Fixture {
    corpus: Corpus,
    train: Vec<CandidateId>,
    holdout: Vec<(CandidateId, Vote)>,
}

fn fixture(train_rows: usize, holdout_rows: usize) -> Fixture {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    let mut add = |verb: &str, i: usize| {
        let text = format!("chem{} {verb} disease{}", i % 23, i % 17);
        let tokens = tokenize(&text);
        let last = tokens.len();
        let s = corpus.add_sentence(doc, &text, tokens);
        let a = corpus.add_span(s, 0, 1, Some("Chemical"));
        let b = corpus.add_span(s, last - 1, last, Some("Disease"));
        corpus.add_candidate(vec![a, b])
    };
    let mut train = Vec::new();
    for i in 0..train_rows {
        // The covered verbs co-occur with the uncovered cue words, so
        // the cue's feature weight is learned from LF-covered rows.
        let verb = if i % 2 == 0 {
            "causes and triggers"
        } else {
            "treats and blocks"
        };
        train.push(add(verb, i));
    }
    let mut holdout = Vec::new();
    for i in 0..holdout_rows {
        let (verb, gold): (&str, Vote) = if i % 2 == 0 {
            ("triggers", 1)
        } else {
            ("blocks", -1)
        };
        holdout.push((add(verb, 1000 + i), gold));
    }
    Fixture {
        corpus,
        train,
        holdout,
    }
}

fn suite() -> Vec<BoxedLf> {
    vec![
        Box::new(KeywordBetweenLf::new("lf_causes", &["causes"], 1, 1)),
        Box::new(KeywordBetweenLf::new("lf_induces", &["induces"], 1, 1)),
        Box::new(KeywordBetweenLf::new("lf_treats", &["treats"], -1, -1)),
        Box::new(KeywordBetweenLf::new("lf_cures", &["cures"], -1, -1)),
    ]
}

#[test]
fn distilled_model_beats_majority_vote_on_zero_coverage_holdout() {
    let fx = fixture(300, 80);
    let lfs = suite();

    // Every held-out candidate has zero LF coverage: all four LFs
    // abstain, so the label-model path (any backend) is uniform and
    // majority vote scores exactly chance.
    for &(id, _) in &fx.holdout {
        let view = fx.corpus.candidate(id);
        assert!(
            lfs.iter().all(|lf| lf.label(&view) == 0),
            "held-out candidate is covered — fixture broken"
        );
    }

    let cfg = PipelineConfig {
        distill: Some(DiscTrainerConfig {
            train: DistillConfig {
                dim: 1 << 14,
                epochs: 30,
                batch_size: 32,
                ..DistillConfig::default()
            },
            ..DiscTrainerConfig::with_dim(1 << 14)
        }),
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(cfg);
    let (_, report) = pipeline.run(&lfs, &fx.corpus, &fx.train);
    let disc = report.disc.as_ref().expect("distill stage ran");
    let disc_report = report.disc_report.expect("distill report");
    assert!(disc_report.rows_trained > 0);

    // Majority vote on zero coverage: uniform posterior, tie-broken —
    // accuracy is chance no matter the tie-break. Score it as the best
    // case for MV: a constant class guess (the majority gold class).
    let holdout_ids: Vec<CandidateId> = fx.holdout.iter().map(|&(id, _)| id).collect();
    let gold: Vec<Vote> = fx.holdout.iter().map(|&(_, g)| g).collect();
    let n_pos = gold.iter().filter(|&&g| g == 1).count();
    let mv_best_accuracy = n_pos.max(gold.len() - n_pos) as f64 / gold.len() as f64;
    assert!(
        mv_best_accuracy <= 0.51,
        "fixture must be class-balanced so chance ≈ 0.5"
    );

    // The distilled model answers from features alone.
    let trainer = DiscTrainer::new(pipeline.config.distill.clone().unwrap());
    let xs = trainer.featurize(&fx.corpus, &holdout_ids);
    let preds: Vec<Vote> = xs.iter().map(|x| disc.predict_vote(x)).collect();
    let accuracy = snorkel::disc::accuracy(&preds, &gold);

    assert!(
        accuracy >= 0.9,
        "distilled model should classify zero-coverage candidates from \
         their features: accuracy {accuracy:.3}"
    );
    assert!(
        accuracy > mv_best_accuracy + 0.25,
        "distilled {accuracy:.3} must clearly beat the majority-vote \
         ceiling {mv_best_accuracy:.3} on zero-coverage candidates"
    );
}

#[test]
fn distilled_probabilities_are_calibrated_distributions() {
    let fx = fixture(200, 20);
    let pipeline = Pipeline::new(PipelineConfig {
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..PipelineConfig::default()
    });
    let (_, report) = pipeline.run(&suite(), &fx.corpus, &fx.train);
    let disc = report.disc.expect("distilled");
    let trainer = DiscTrainer::new(pipeline.config.distill.clone().unwrap());
    let ids: Vec<CandidateId> = fx.holdout.iter().map(|&(id, _)| id).collect();
    for x in trainer.featurize(&fx.corpus, &ids) {
        let p = disc.predict_proba(&x);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// Hashed features for a candidate of planted class `y`: two cues from
/// a 50-word per-class vocabulary plus twelve noise words shared by
/// both classes.
fn planted_features(y: Vote, dim: u32, rng: &mut StdRng) -> SparseVec {
    let cue = |c: u64| format!("cue{}={c}", if y == 1 { "pos" } else { "neg" });
    let mut names = vec![cue(rng.gen_range(0..50)), cue(rng.gen_range(0..50))];
    for _ in 0..12 {
        names.push(format!("noise={}", rng.gen_range(0..5000u64)));
    }
    hash_features(names.iter().map(String::as_str), dim)
}

#[test]
fn planted_suite_distills_to_95_percent_on_zero_coverage_candidates() {
    // 20 000 rows × 25 LFs of accuracy 0.9 → 0.6, each voting on 30 %
    // of the rows; the moment backend's marginals, through a sharded
    // plan, train the default distillation config.
    let (rows, lfs, holdout) = (20_000, 25, 2_000);
    let dim = DiscTrainerConfig::default().train.dim;
    let mut rng = StdRng::seed_from_u64(11);
    let accs: Vec<f64> = (0..lfs)
        .map(|j| 0.9 - 0.3 * j as f64 / lfs as f64)
        .collect();
    let mut b = LabelMatrixBuilder::new(rows, lfs);
    let mut xs = Vec::with_capacity(rows);
    for i in 0..rows {
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        for (j, &acc) in accs.iter().enumerate() {
            if rng.gen::<f64>() < 0.3 {
                b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
            }
        }
        xs.push(planted_features(y, dim, &mut rng));
    }
    // Held-out candidates have features but no row in Λ: every LF
    // abstains, so majority vote is a coin flip.
    let (gold, xs_holdout): (Vec<Vote>, Vec<SparseVec>) = (0..holdout)
        .map(|_| {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            (y, planted_features(y, dim, &mut rng))
        })
        .unzip();
    let lambda = b.build();
    let plan = ShardedMatrix::build(&lambda, 0);
    let mut lm = LabelModel::Moment(MomentModel::new(lfs, LabelScheme::Binary));
    lm.fit(&lambda, Some(&plan), &TrainConfig::default());
    let marginals = lm.marginals(&lambda, Some(&plan));

    let trainer = DiscTrainer::new(DiscTrainerConfig::with_dim(dim));
    let (disc, report) = trainer.train(&xs, &marginals, 2, Some(&plan));
    assert!(report.rows_trained > rows / 2, "{report:?}");
    let preds: Vec<Vote> = xs_holdout.iter().map(|x| disc.predict_vote(x)).collect();
    let accuracy = snorkel::disc::accuracy(&preds, &gold);
    assert!(
        accuracy >= 0.95,
        "zero-coverage accuracy {accuracy:.3} (majority vote: 0.5)"
    );
}
