//! Label-model backend acceptance: the closed-form moment backend must
//! track the exact generative backend's marginals closely on synthetic
//! data, and its fit must be ≥10× faster than the exact Newton fit at
//! 100k×25.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel::core::label_model::{LabelModel, MomentModel};
use snorkel::core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel::matrix::{LabelMatrix, LabelMatrixBuilder, PatternIndex, Vote};

/// Planted conditionally-independent binary suite (the moment
/// estimator's model assumptions).
fn planted(m: usize, accs: &[f64], pl: f64, seed: u64) -> LabelMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = LabelMatrixBuilder::new(m, accs.len());
    for i in 0..m {
        let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
        for (j, &acc) in accs.iter().enumerate() {
            if rng.gen::<f64>() < pl {
                b.set(i, j, if rng.gen::<f64>() < acc { y } else { -y });
            }
        }
    }
    b.build()
}

/// The realistic dev-loop suite used across the workspace's tests.
const SUITE: [f64; 10] = [0.9, 0.85, 0.82, 0.78, 0.75, 0.72, 0.7, 0.67, 0.63, 0.6];

#[test]
fn moment_marginals_within_5e2_of_exact() {
    let m = 40_000;
    let lambda = planted(m, &SUITE, 0.4, 8);
    let cfg = TrainConfig::default();

    let mut exact = GenerativeModel::new(SUITE.len(), LabelScheme::Binary);
    exact.fit(&lambda, &cfg);
    let mut moment = LabelModel::Moment(MomentModel::new(SUITE.len(), LabelScheme::Binary));
    moment.fit(&lambda, None, &cfg);

    let reference = exact.marginals(&lambda);
    let approx = moment.marginals(&lambda, None);
    let mut sup = 0.0f64;
    let mut mean = 0.0f64;
    for (a, b) in approx.iter().zip(&reference) {
        for (pa, pb) in a.iter().zip(b) {
            let d = (pa - pb).abs();
            sup = sup.max(d);
            mean += d;
        }
    }
    mean /= (2 * m) as f64;
    println!("moment vs exact marginals: sup {sup:.4}, mean {mean:.5}");
    assert!(
        sup < 5e-2,
        "moment marginals drifted {sup:.4} (> 5e-2) from the exact model's"
    );
}

#[test]
fn moment_fit_is_10x_faster_than_newton_at_100k() {
    let m = 100_000;
    let n = 25;
    // Mostly-unique vote patterns (the regime where training cost is
    // proportional to per-pass work, not pattern-index bookkeeping —
    // pattern-collapsed corpora are covered by the bench artifact).
    let accs: Vec<f64> = (0..n).map(|j| 0.9 - 0.014 * j as f64).collect();
    let lambda = planted(m, &accs, 0.3, 7);
    // Both backends fit through the same prebuilt plan, so the timing
    // compares the training loops, not index construction.
    let plan = PatternIndex::build(&lambda);
    let cfg = TrainConfig::default();

    // Each backend's time is its minimum over three alternated fits — a
    // single `Instant` sample under a loaded test runner is too noisy
    // to gate on. Every fit starts from a fresh model, so all three
    // produce the same weights.
    let (mut exact_time, mut moment_time) = (Duration::MAX, Duration::MAX);
    let mut exact = GenerativeModel::new(n, LabelScheme::Binary);
    let mut moment = MomentModel::new(n, LabelScheme::Binary);
    for _ in 0..3 {
        let t0 = Instant::now();
        exact = GenerativeModel::new(n, LabelScheme::Binary);
        exact.fit_with(&lambda, &plan, &cfg);
        exact_time = exact_time.min(t0.elapsed());

        let t1 = Instant::now();
        moment = MomentModel::new(n, LabelScheme::Binary);
        moment.fit(&lambda, Some(&plan), &cfg);
        moment_time = moment_time.min(t1.elapsed());
    }

    let speedup = exact_time.as_secs_f64() / moment_time.as_secs_f64().max(1e-9);
    println!(
        "100k×25 fit: exact {:.1} ms, moment {:.2} ms → {speedup:.0}×",
        1e3 * exact_time.as_secs_f64(),
        1e3 * moment_time.as_secs_f64()
    );
    assert!(
        speedup >= 10.0,
        "moment fit only {speedup:.1}× faster than Newton (want ≥10×)"
    );

    // The speed is not bought with garbage: both backends order the
    // planted LF accuracies the same way at the top and bottom.
    let ea = exact.implied_accuracies();
    let ma = moment.implied_accuracies();
    let max_gap = ea
        .iter()
        .zip(&ma)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_gap < 0.1,
        "implied accuracies diverged by {max_gap:.3} between backends"
    );
}
