//! Streaming-ingest steady state: the per-batch online moment refit
//! against the cold batch fit it replaces — the numbers behind the
//! `BENCH_stream_ingest.json` artifact.
//!
//! On a planted binary suite of `SNORKEL_STREAM_ROWS` rows (default
//! 100k) × `SNORKEL_STREAM_LFS` LFs (default 25), the running moment
//! sufficient statistics have already absorbed the whole corpus — the
//! regime a long-lived `INGEST` stream reaches after its first few
//! minutes. Each new batch then costs:
//!
//! * **online** — fold the batch's rows into the running statistics and
//!   re-solve the closed-form accuracies from the totals
//!   (`MomentModel::fit_from_stats`): O(n³) in the LF count,
//!   independent of the corpus size, **no pass over Λ**.
//! * **cold** — what a non-streaming session pays for the same model
//!   update: a full `fit` over the spliced matrix (statistics pass
//!   over every row, then the same solve).
//!
//! The CI floor `SNORKEL_STREAM_MIN_SPEEDUP` gates the cold-vs-online
//! ratio (acceptance: ≥10× at 100k rows). The online path's weights are
//! bit-identical to the cold fit's — integer counts sum exactly in f64
//! below 2⁵³ — which the bench asserts outright, so the speedup can
//! never come from solving a cheaper problem.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::{MomentModel, MomentStats};
use snorkel_core::model::{LabelScheme, TrainConfig};
use snorkel_matrix::{LabelMatrix, LabelMatrixBuilder, Vote};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

fn median_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let rows = env_usize("SNORKEL_STREAM_ROWS", 100_000);
    let n = env_usize("SNORKEL_STREAM_LFS", 25);
    let batch = env_usize("SNORKEL_STREAM_BATCH", 512);
    let iters = 5;
    let scheme = LabelScheme::Binary;
    let cfg = TrainConfig::default();
    let accs: Vec<f64> = (0..n).map(|j| 0.9 - 0.35 * j as f64 / n as f64).collect();

    // The corpus so far, plus the batch an INGEST frame would splice.
    let lambda = planted(rows, &accs, 0.3, 7);
    let incoming = planted(batch, &accs, 0.3, 8);
    let mut spliced = LabelMatrixBuilder::new(rows + batch, n);
    for src in [&lambda, &incoming] {
        let off = if std::ptr::eq(src, &lambda) { 0 } else { rows };
        for i in 0..src.num_points() {
            let (cols, votes) = src.row(i);
            for (&c, &v) in cols.iter().zip(votes) {
                spliced.set(off + i, c as usize, v);
            }
        }
    }
    let spliced = spliced.build();

    // Steady state: the running statistics already cover the corpus.
    let mut base = MomentStats::new(n, scheme);
    base.accumulate_matrix(&lambda);

    // Online: fold the batch into the running totals, re-solve from them.
    let online_refit = median_secs(iters, || {
        let mut stats = base.clone();
        for i in 0..incoming.num_points() {
            let (cols, votes) = incoming.row(i);
            stats.accumulate(cols, votes, 1.0);
        }
        let mut mm = MomentModel::new(n, scheme);
        mm.fit_from_stats(&stats, &cfg);
        mm
    });

    // Cold: the statistics pass over all rows the online path skips.
    let cold_fit = median_secs(iters, || {
        let mut mm = MomentModel::new(n, scheme);
        mm.fit(&spliced, None, &cfg);
        mm
    });

    // Equivalence: the two paths must land on bit-identical statistics,
    // hence bit-identical closed-form accuracies.
    let mut online_stats = base.clone();
    for i in 0..incoming.num_points() {
        let (cols, votes) = incoming.row(i);
        online_stats.accumulate(cols, votes, 1.0);
    }
    let mut batch_stats = MomentStats::new(n, scheme);
    batch_stats.accumulate_matrix(&spliced);
    assert_eq!(
        online_stats, batch_stats,
        "running statistics diverged from the batch recompute"
    );

    let speedup = cold_fit / online_refit.max(1e-12);
    println!(
        "{rows}+{batch} rows × {n} LFs: online refit {:.3} ms, cold fit {:.1} ms \
         → online {speedup:.0}× faster (statistics bit-identical)",
        1e3 * online_refit,
        1e3 * cold_fit,
    );
    snorkel_bench::report::emit(
        "stream_ingest",
        &[
            ("rows", rows as f64),
            ("lfs", n as f64),
            ("batch", batch as f64),
            ("online_refit_secs", online_refit),
            ("cold_fit_secs", cold_fit),
            ("online_vs_cold_speedup", speedup),
        ],
    );
    snorkel_bench::report::enforce_floor(
        "SNORKEL_STREAM_MIN_SPEEDUP",
        "online-vs-cold streaming refit",
        speedup,
    );
}
