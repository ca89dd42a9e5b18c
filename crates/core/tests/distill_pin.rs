//! The distillation fit's outputs, pinned past `digest_pin.rs`'s cold
//! binary fit: a cold softmax (K = 3) fit, and a warm chain — fit,
//! append rows, refit from the fitted model — for both model kinds.
//! Each digest covers the model's parts, the step count and the bits of
//! the final loss, so a change to the fit that must not move outputs (a
//! faster step doing the same float operations in the same order) is
//! checked to the bit, loss included.
//!
//! As in `digest_pin.rs`, the digests are FNV-1a over bit patterns,
//! taken on x86_64 Linux (glibc libm).

use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::{DiscTrainer, DiscTrainerConfig, Pipeline, PipelineConfig};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_disc::{DistillReport, DistilledModel};
use snorkel_linalg::SparseVec;

/// FNV-1a over a byte string.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a pin covers of one fit: the model's parts, the steps taken and
/// the final loss's bit pattern.
fn record(model: &DistilledModel, report: &DistillReport) -> String {
    format!(
        "{:?} steps={} loss={:016x}",
        model.to_parts(),
        report.steps,
        report.final_loss.to_bits()
    )
}

/// Featurized CDR candidates (2 000, seed 1) and their moment-model
/// marginals, plus a K = 3 widening of those marginals: row `i` puts
/// `t = (i mod 5) / 10` on a third class and scales the binary pair by
/// `1 − t`, so confidence varies per row and the softmax path trains.
struct Rows {
    trainer: DiscTrainer,
    xs: Vec<SparseVec>,
    binary: Vec<Vec<f64>>,
    ternary: Vec<Vec<f64>>,
}

fn rows() -> Rows {
    let t = cdr::build(TaskConfig {
        num_candidates: 2000,
        seed: 1,
    });
    let pipeline = Pipeline::new(PipelineConfig {
        force_strategy: Some(ModelingStrategy::MomentMatching),
        ..PipelineConfig::default()
    });
    let lambda = pipeline
        .config
        .executor
        .apply(&t.lfs, &t.corpus, &t.candidates);
    let (binary, _) = pipeline.run_from_matrix(&lambda);
    let ternary = binary
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = (i % 5) as f64 / 10.0;
            vec![(1.0 - t) * p[0], (1.0 - t) * p[1], t]
        })
        .collect();
    let trainer = DiscTrainer::new(DiscTrainerConfig::with_dim(1 << 16));
    let xs = trainer.featurize(&t.corpus, &t.candidates);
    Rows {
        trainer,
        xs,
        binary,
        ternary,
    }
}

#[test]
fn cold_softmax_fit_is_pinned() {
    let r = rows();
    let (model, report) = r.trainer.fit(&r.xs, &r.ternary, 3, None);
    assert!(report.steps > 0 && report.rows_trained > 0);
    let got = fnv1a(record(&model, &report).into_bytes());
    assert_eq!(got, 0xb288_fa6b_a04a_d041, "cold K = 3 digest: {got:016x}");
}

/// Fit on the first 1 500 rows, then append the last 500 and refit warm
/// from the fitted model, as a `REFRESH` after an `INGEST` does.
#[test]
fn warm_chains_are_pinned() {
    let r = rows();
    for (k, marginals, want) in [
        (2, &r.binary, 0x000f_97e7_a171_8d75),
        (3, &r.ternary, 0x7234_61c6_a1e0_f638),
    ] {
        let (first, report) = r.trainer.fit(&r.xs[..1500], &marginals[..1500], k, None);
        let first_record = record(&first, &report);
        let (second, report) = r.trainer.fit(&r.xs, marginals, k, Some(first));
        let chain = format!("{first_record}\n{}", record(&second, &report));
        let got = fnv1a(chain.into_bytes());
        assert_eq!(got, want, "warm chain digest at K = {k}: {got:016x}");
    }
}
