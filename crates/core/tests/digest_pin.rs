//! The default pipeline's outputs, pinned. A change that must not move
//! outputs (a faster kernel doing the same float operations in the same
//! order) is checked here: the marginals of the default strategy and
//! the distilled model on the CDR analogue must hash to the committed
//! values.
//!
//! The digests are FNV-1a over bit patterns, so they are tied to the
//! platform's float library: they were taken on x86_64 Linux (glibc
//! libm). On another target a mismatch here needs a second look, not
//! necessarily a fix.

use snorkel_core::label_model::ModelRegistry;
use snorkel_core::model::TrainConfig;
use snorkel_core::optimizer::{select_model, ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{DiscTrainerConfig, Pipeline, PipelineConfig};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_lf::LfExecutor;

/// FNV-1a over a sequence of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn task(seed: u64) -> snorkel_datasets::RelationTask {
    cdr::build(TaskConfig {
        num_candidates: 2000,
        seed,
    })
}

#[test]
fn default_strategy_marginals_are_pinned() {
    let cfg = OptimizerConfig::default();
    let registry = ModelRegistry::standard();
    for (seed, want) in [
        (1, 0x8f2c_ff0a_bf9a_e69e),
        (3, 0xb447_448c_dd10_4aca),
        (11, 0xc5f9_c860_12fb_f996),
    ] {
        let t = task(seed);
        let lambda = LfExecutor::default().apply(&t.lfs, &t.corpus, &t.candidates);
        let decision = select_model(&lambda, &cfg, &registry);
        if seed == 1 {
            match &decision.strategy {
                ModelingStrategy::GenerativeModel {
                    epsilon,
                    correlations,
                    ..
                } => {
                    assert_eq!(correlations.len(), 71, "selected pairs at seed 1");
                    assert!((epsilon - 0.04).abs() < 1e-12, "ε = {epsilon} at seed 1");
                }
                other => panic!("seed 1 chose {other:?}"),
            }
        }
        let Ok(mut model) =
            registry.build(&decision.strategy, lambda.num_lfs(), lambda.cardinality());
        model.fit(&lambda, None, &TrainConfig::default());
        let marginals = model.marginals(&lambda, None);
        let got = fnv1a(marginals.iter().flatten().map(|p| p.to_bits()));
        assert_eq!(got, want, "marginals digest at seed {seed}: {got:016x}");
    }
}

/// The digests fix the distillation step's gradient summation order
/// (range, then minibatch row, then feature). Reordering it moves them
/// in the last bits only; `snorkel-disc`'s
/// `sequential_step_matches_the_sort_merge_reference` holds such a
/// move to 1e-12.
#[test]
fn distilled_model_is_pinned() {
    let pipeline = Pipeline::new(PipelineConfig {
        distill: Some(DiscTrainerConfig::with_dim(1 << 16)),
        ..PipelineConfig::default()
    });
    for (seed, want) in [
        (1, 0xa508_a7d2_9a55_34c4),
        (3, 0x43b7_6927_6a4e_e962),
        (11, 0x09b1_cd06_44a4_a1c7),
    ] {
        let t = task(seed);
        let (_, report) = pipeline.run(&t.lfs, &t.corpus, &t.candidates);
        let disc = report.disc.expect("the distill stage ran");
        let parts = format!("{:?}", disc.to_parts());
        let got = fnv1a(parts.bytes().map(u64::from));
        assert_eq!(
            got, want,
            "distilled-model digest at seed {seed}: {got:016x}"
        );
    }
}
