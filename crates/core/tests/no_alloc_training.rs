//! The allocation budget of the three training kernels, enforced:
//! nothing allocates inside an epoch. A counting global allocator
//! ([`snorkel_arena::CountingAlloc`]) observes a correlated CD/Gibbs
//! fit, a structure-learning pass and a distillation fit at two epoch
//! counts; the counts must be equal, i.e. every buffer is built before
//! the first epoch.
//!
//! As in `crates/serve/tests/no_alloc_read_path.rs`, the budget is
//! asserted only in release builds (debug builds of generic std code may
//! allocate where release builds do not) and a debug run reports the
//! counts. The counter is per thread: the fits run on the measuring
//! thread, and so does the first run of structure-learning targets (the
//! calling thread is one of the sweep's workers).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_arena::alloc_check::allocations_in;
use snorkel_core::model::{GenerativeModel, LabelScheme, TrainConfig};
use snorkel_core::structure::{learn_structure, StructureConfig};
use snorkel_datasets::synthetic::independent_matrix;
use snorkel_disc::{DistillConfig, DistilledModel};
use snorkel_linalg::SparseVec;
use snorkel_matrix::LabelMatrix;

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

/// Sparse binary votes over 12 LFs.
fn matrix() -> LabelMatrix {
    independent_matrix(300, 12, 0.75, 0.2, 3).0
}

/// Hashed binary rows: a class bucket plus four noise buckets, with
/// soft marginals on the class (every tenth row uniform, so dropped).
fn planted_features(n: usize, seed: u64) -> (Vec<SparseVec>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let y = rng.gen_range(0..2u32);
            let mut pairs = vec![(y, 1.0)];
            pairs.extend((0..4).map(|_| (rng.gen_range(2..1024), 1.0)));
            let mut x = SparseVec::from_pairs(pairs);
            x.l2_normalize();
            let p = match (i % 10, y) {
                (0, _) => 0.5,
                (_, 0) => 0.9,
                _ => 0.1,
            };
            (x, vec![p, 1.0 - p])
        })
        .unzip()
}

fn assert_same_budget(what: &str, one_epoch: u64, many_epochs: u64) {
    println!("{what}: {one_epoch} allocations at 1 epoch, {many_epochs} at many");
    if !cfg!(debug_assertions) {
        assert_eq!(
            one_epoch, many_epochs,
            "{what} allocates inside its epoch loop"
        );
    }
}

#[test]
fn correlated_fit_allocates_nothing_per_epoch() {
    let lambda = matrix();
    // LF 0 is a hub over the memo cap (3^7 configurations); LF 11 has
    // no pair; the rest are memoized.
    let pairs: Vec<(usize, usize)> = (1..8).map(|j| (0, j)).chain([(8, 9), (9, 10)]).collect();
    let fit = |cd_epochs: usize| {
        let mut gm = GenerativeModel::new(12, LabelScheme::Binary).with_correlations(&pairs);
        let cfg = TrainConfig {
            cd_epochs,
            ..TrainConfig::default()
        };
        allocations_in(|| gm.fit(&lambda, &cfg)).0
    };
    assert_same_budget("correlated fit", fit(1), fit(10));
}

#[test]
fn distill_fit_allocates_nothing_per_epoch() {
    let (xs, marginals) = planted_features(400, 7);
    let fit = |ranges: &[(usize, usize)], epochs: usize| {
        let cfg = DistillConfig {
            dim: 1 << 10,
            epochs,
            batch_size: 16,
            ..DistillConfig::default()
        };
        let mut model = DistilledModel::new(cfg.dim, 2);
        allocations_in(|| model.fit(&xs, &marginals, ranges, &cfg)).0
    };
    for ranges in [&[(0, 400)][..], &[(0, 250), (250, 400)]] {
        let what = format!("distill fit over {} range(s)", ranges.len());
        assert_same_budget(&what, fit(ranges, 1), fit(ranges, 5));
    }
}

#[test]
fn structure_sweep_allocates_nothing_per_epoch() {
    let lambda = matrix();
    let learn = |epochs: usize| {
        // ε above every fitted weight: no pair is selected at either
        // epoch count, so the report's own vectors stay out of the count.
        let cfg = StructureConfig {
            epochs,
            epsilon: 10.0,
            ..StructureConfig::default()
        };
        allocations_in(|| learn_structure(&lambda, &cfg)).0
    };
    assert_same_budget("structure sweep", learn(1), learn(20));
}
