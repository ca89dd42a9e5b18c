//! Distill-and-serve benchmark: noise-aware discriminative training on
//! label-model marginals, plus the serve-path prediction latency —
//! the numbers behind `BENCH_distill.json`.
//!
//! On a planted 100k×25 binary suite (resize with
//! `SNORKEL_DISTILL_ROWS` / `SNORKEL_DISTILL_LFS`):
//!
//! 1. fit the moment backend through a sharded plan and read marginals;
//! 2. time [`DiscTrainer`]'s shard-parallel noise-aware fit of the
//!    distilled model on those marginals (the `REFRESH`-triggered
//!    retrain the server runs outside its write lock);
//! 3. time the serve path — `hash features → predict_proba` — per
//!    query, the work one `PREDICT` request does under the read lock;
//! 4. score the distilled model on held-out candidates with **zero LF
//!    coverage** against the planted gold, versus the 50% majority-vote
//!    ceiling (no votes ⇒ uniform posterior).
//!
//! `SNORKEL_DISTILL_MIN_ADVANTAGE` gates the zero-coverage
//! accuracy-over-chance ratio (accuracy / 0.5; the CI floor of 1.9 ⇒
//! ≥95% accuracy where majority vote is stuck at 50%).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::{LabelModel, MomentModel};
use snorkel_core::model::{LabelScheme, TrainConfig};
use snorkel_core::pipeline::{DiscTrainer, DiscTrainerConfig};
use snorkel_disc::hash_features;
use snorkel_linalg::SparseVec;
use snorkel_matrix::{LabelMatrixBuilder, ShardedMatrix, Vote};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const DIM: u32 = 1 << 18;

/// Synthetic hashed features for a candidate of planted class `y`: a
/// couple of class-diagnostic cue features (drawn from a per-class
/// vocabulary) plus shared noise features.
fn featurize(y: Vote, rng: &mut StdRng) -> SparseVec {
    let cue = |c: u64| format!("cue{}={}", if y == 1 { "pos" } else { "neg" }, c);
    let mut names = vec![cue(rng.gen_range(0..50)), cue(rng.gen_range(0..50))];
    for _ in 0..12 {
        names.push(format!("noise={}", rng.gen_range(0..5000u64)));
    }
    hash_features(names.iter().map(String::as_str), DIM)
}

fn main() {
    let rows = env_usize("SNORKEL_DISTILL_ROWS", 100_000);
    let n = env_usize("SNORKEL_DISTILL_LFS", 25);
    let holdout = (rows / 10).clamp(100, 20_000);
    let mut rng = StdRng::seed_from_u64(11);

    // Planted truth → Λ (training rows only) + features for everything.
    let accs: Vec<f64> = (0..n).map(|j| 0.9 - 0.3 * j as f64 / n as f64).collect();
    let mut b = LabelMatrixBuilder::new(rows, n);
    let mut xs = Vec::with_capacity(rows);
    let mut gold_holdout = Vec::with_capacity(holdout);
    let mut xs_holdout = Vec::with_capacity(holdout);
    for i in 0..rows {
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        for (j, &acc) in accs.iter().enumerate() {
            if rng.gen::<f64>() < 0.3 {
                b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
            }
        }
        xs.push(featurize(y, &mut rng));
    }
    for _ in 0..holdout {
        // Held-out candidates: features only, NO row in Λ — the traffic
        // the distilled model exists for.
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        gold_holdout.push(y);
        xs_holdout.push(featurize(y, &mut rng));
    }
    let lambda = b.build();
    let plan = ShardedMatrix::build(&lambda, 0);

    // Label model: the moment backend (deployment-scale default).
    let mut lm = LabelModel::Moment(MomentModel::new(n, LabelScheme::Binary));
    lm.fit(&lambda, Some(&plan), &TrainConfig::default());
    let marginals = lm.marginals(&lambda, Some(&plan));

    // 1. Distillation cost (the post-REFRESH retrain).
    let trainer = DiscTrainer::new(DiscTrainerConfig::with_dim(DIM));
    let t = Instant::now();
    let (disc, report) = trainer.train(&xs, &marginals, 2, Some(&plan));
    let train_secs = t.elapsed().as_secs_f64();

    // 2. Serve-path latency: the full per-request PREDICT cost under
    //    the read lock — hash the raw feature names, normalize, score.
    let queries = 10_000.min(holdout * 10);
    let query_names: Vec<Vec<String>> = (0..queries)
        .map(|q| {
            let y: Vote = if q % 2 == 0 { 1 } else { -1 };
            let cue = |c: usize| format!("cue{}={}", if y == 1 { "pos" } else { "neg" }, c % 50);
            let mut names = vec![cue(q), cue(q / 2)];
            for d in 0..12 {
                names.push(format!("noise={}", (q * 13 + d * 7) % 5000));
            }
            names
        })
        .collect();
    let t = Instant::now();
    let mut sink = 0.0f64;
    for names in &query_names {
        let x = hash_features(names.iter().map(String::as_str), DIM);
        sink += disc.predict_proba(&x)[0];
    }
    let predict_secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let predict_us = 1e6 * predict_secs / queries as f64;

    // 3. Zero-coverage accuracy vs the majority-vote ceiling (0.5).
    let correct = xs_holdout
        .iter()
        .zip(&gold_holdout)
        .filter(|(x, &y)| disc.predict_vote(x) == y)
        .count();
    let accuracy = correct as f64 / holdout as f64;
    let advantage = accuracy / 0.5;

    println!(
        "{rows}×{n}: distill {train_secs:.2}s ({} rows trained, {} dropped, {} steps), \
         serve path {predict_us:.1} µs/query ({:.0} qps), \
         zero-coverage accuracy {accuracy:.3} vs 0.500 majority-vote ceiling",
        report.rows_trained,
        report.rows_dropped,
        report.steps,
        1e6 / predict_us,
    );
    snorkel_bench::report::emit(
        "distill",
        &[
            ("rows", rows as f64),
            ("lfs", n as f64),
            ("holdout", holdout as f64),
            ("train_secs", train_secs),
            ("rows_trained", report.rows_trained as f64),
            ("rows_dropped", report.rows_dropped as f64),
            ("predict_us_per_query", predict_us),
            ("predict_qps", 1e6 / predict_us),
            ("zero_coverage_accuracy", accuracy),
            ("accuracy_over_chance", advantage),
        ],
    );
    snorkel_bench::report::enforce_floor(
        "SNORKEL_DISTILL_MIN_ADVANTAGE",
        "zero-coverage accuracy over chance",
        advantage,
    );
}
