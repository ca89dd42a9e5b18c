//! Property tests for the streaming plane (ISSUE 9 satellite):
//!
//! 1. **Online equals batch, bit-identically.** After *any* sequence of
//!    ingested batches, the running [`MomentStats`] carried by
//!    [`StreamState`] equal a single-pass recompute over the
//!    concatenated rows — bit-for-bit, not approximately — and the
//!    online moment solve (`fit_from_stats`) therefore reproduces the
//!    cold `fit` weights exactly.
//! 2. **Drift score calibration.** Two windows drawn from the same
//!    empirical distribution score exactly 0; a window with one LF's
//!    votes flipped scores strictly positive.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_core::label_model::{MomentModel, MomentStats};
use snorkel_core::model::{LabelScheme, TrainConfig};
use snorkel_matrix::{LabelMatrixBuilder, Vote};
use snorkel_stream::{DriftConfig, StreamState};

/// One random sparse row over `n` LFs: sorted columns + binary votes.
fn random_row(n: usize, density: f64, rng: &mut StdRng) -> (Vec<u32>, Vec<Vote>) {
    let mut cols = Vec::new();
    let mut votes = Vec::new();
    for j in 0..n {
        if rng.gen::<f64>() < density {
            cols.push(j as u32);
            votes.push(if rng.gen::<bool>() { 1 } else { -1 });
        }
    }
    (cols, votes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Running stats after any batch-arrival schedule equal a
    /// single-pass batch recompute over the same rows, bit-identically,
    /// and the online solve matches the cold fit's weights exactly.
    #[test]
    fn online_stats_match_batch_recompute_bitwise(
        n in 2usize..6,
        batch_sizes in prop::collection::vec(1usize..40, 1..8),
        density in 0.2f64..0.9,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = StreamState::new(n, LabelScheme::Binary, DriftConfig::default());
        let mut all_rows: Vec<(Vec<u32>, Vec<Vote>)> = Vec::new();

        // Online path: rows arrive in arbitrary batch groupings.
        for &size in &batch_sizes {
            for _ in 0..size {
                let (cols, votes) = random_row(n, density, &mut rng);
                state.observe_row(&cols, &votes);
                all_rows.push((cols, votes));
            }
            state.note_batch(size);
        }

        // Batch path: one pass over the concatenated rows.
        let mut batch = MomentStats::new(n, LabelScheme::Binary);
        for (cols, votes) in &all_rows {
            batch.accumulate(cols, votes, 1.0);
        }
        prop_assert_eq!(state.stats(), &batch, "running totals diverged from batch recompute");

        // The solves agree bit-for-bit too: online from running stats,
        // cold from the materialized matrix.
        let mut b = LabelMatrixBuilder::new(all_rows.len(), n);
        for (i, (cols, votes)) in all_rows.iter().enumerate() {
            for (&c, &v) in cols.iter().zip(votes) {
                b.set(i, c as usize, v);
            }
        }
        let lambda = b.build();
        let cfg = TrainConfig::default();
        let mut online = MomentModel::new(n, LabelScheme::Binary);
        online.fit_from_stats(state.stats(), &cfg);
        let mut cold = MomentModel::new(n, LabelScheme::Binary);
        cold.fit(&lambda, None, &cfg);
        for (a, b) in online
            .accuracy_weights()
            .iter()
            .zip(cold.accuracy_weights())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "online solve != cold fit");
        }
    }

    /// Feeding the detector the same row multiset twice (reference
    /// window, then a second window) scores exactly 0 — identical
    /// empirical distributions are not drift.
    #[test]
    fn identical_windows_score_exactly_zero(
        n in 2usize..6,
        window in 4usize..32,
        density in 0.3f64..0.9,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(Vec<u32>, Vec<Vote>)> =
            (0..window).map(|_| random_row(n, density, &mut rng)).collect();
        let cfg = DriftConfig { window_rows: window, ..DriftConfig::default() };
        let mut state = StreamState::new(n, LabelScheme::Binary, cfg);
        for (cols, votes) in &rows {
            state.observe_row(cols, votes); // fills + seals the reference
        }
        prop_assert_eq!(state.drift_score(), 0.0);
        for (cols, votes) in &rows {
            state.observe_row(cols, votes); // identical second window
        }
        prop_assert_eq!(state.drift_score(), 0.0, "identical windows must score exactly 0");
        prop_assert!(!state.drifted());
    }

    /// Flipping one LF's votes in the second window scores strictly
    /// positive: its agreement with the plurality inverts.
    #[test]
    fn flipped_lf_window_scores_positive(
        n in 3usize..6,
        window in 8usize..32,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Correlated suite: every LF votes the planted label, so the
        // plurality is unanimous and agreement rates start at 1.
        let rows: Vec<(Vec<u32>, Vec<Vote>)> = (0..window)
            .map(|_| {
                let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
                ((0..n as u32).collect(), vec![y; n])
            })
            .collect();
        let cfg = DriftConfig { window_rows: window, ..DriftConfig::default() };
        let mut state = StreamState::new(n, LabelScheme::Binary, cfg);
        for (cols, votes) in &rows {
            state.observe_row(cols, votes);
        }
        // Second window: LF 0 flips against the rest of the suite.
        for (cols, votes) in &rows {
            let mut flipped = votes.clone();
            flipped[0] = -flipped[0];
            state.observe_row(cols, &flipped);
        }
        prop_assert!(
            state.drift_score() > 0.0,
            "flipped LF must register positive drift, got {}",
            state.drift_score()
        );
        prop_assert!(state.per_lf_scores()[0] > 0.0);
    }
}
