//! Noise-aware binary logistic regression over sparse features.
//!
//! The loss is the expected log-loss under the probabilistic label
//! (paper §2.3): for soft target `p̃_i = P(y_i = +1)` and score `s_i`,
//!
//! ```text
//! ℓ_i = −[ p̃_i log σ(s_i) + (1 − p̃_i) log σ(−s_i) ]    ∂ℓ_i/∂s_i = σ(s_i) − p̃_i
//! ```
//!
//! Hard supervision is the special case `p̃ ∈ {0, 1}`, which is exactly
//! how the hand-label baselines are trained — same model, same
//! optimizer, different targets.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use snorkel_linalg::math::sigmoid;
use snorkel_linalg::{dot_dense_slices, SparseVec};
use snorkel_matrix::Vote;

use crate::adam::Adam;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct LogRegConfig {
    /// Feature dimensionality (hash buckets).
    pub dim: u32,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Shuffle/ordering seed.
    pub seed: u64,
    /// Drop training rows whose soft label is within `abstain_margin` of
    /// 0.5 (no supervision signal; Snorkel trains on covered points).
    pub abstain_margin: f64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            dim: 1 << 18,
            epochs: 10,
            learning_rate: 0.01,
            l2: 1e-6,
            batch_size: 32,
            seed: 0,
            abstain_margin: 1e-6,
        }
    }
}

/// Sparse binary logistic regression.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Zero-initialized model of the given dimensionality.
    pub fn new(dim: u32) -> Self {
        LogisticRegression {
            weights: vec![0.0; dim as usize],
            bias: 0.0,
        }
    }

    /// Rebuild from a dense weight vector and bias (snapshot decode).
    pub(crate) fn from_raw(weights: Vec<f64>, bias: f64) -> Self {
        LogisticRegression { weights, bias }
    }

    /// Feature dimensionality (weight-vector length).
    pub(crate) fn dim(&self) -> u32 {
        self.weights.len() as u32
    }

    /// Borrow the raw parameters (weights, bias).
    pub(crate) fn raw(&self) -> (&[f64], f64) {
        (&self.weights, self.bias)
    }

    /// Mutably borrow the raw parameters (weights, bias).
    pub(crate) fn raw_mut(&mut self) -> (&mut [f64], &mut f64) {
        (&mut self.weights, &mut self.bias)
    }

    /// The raw score `w·x + b`.
    pub fn score(&self, x: &SparseVec) -> f64 {
        self.score_slices(x.indices(), x.values())
    }

    /// [`Self::score`] of a row held as parallel index/value slices.
    pub(crate) fn score_slices(&self, idx: &[u32], val: &[f64]) -> f64 {
        dot_dense_slices(idx, val, &self.weights) + self.bias
    }

    /// `P(y = +1 | x)`.
    pub fn predict_proba(&self, x: &SparseVec) -> f64 {
        sigmoid(self.score(x))
    }

    /// Probabilities for a batch.
    pub fn predict_proba_all(&self, xs: &[SparseVec]) -> Vec<f64> {
        xs.iter().map(|x| self.predict_proba(x)).collect()
    }

    /// Hard ±1 predictions at threshold 0.5.
    pub fn predict_all(&self, xs: &[SparseVec]) -> Vec<Vote> {
        xs.iter()
            .map(|x| if self.score(x) > 0.0 { 1 } else { -1 })
            .collect()
    }

    /// Train on soft targets `P(y=+1)` with the noise-aware loss.
    /// Returns the mean training loss of the final epoch.
    pub fn fit(&mut self, xs: &[SparseVec], soft: &[f64], cfg: &LogRegConfig) -> f64 {
        assert_eq!(xs.len(), soft.len(), "fit: one target per example");
        assert_eq!(
            self.weights.len(),
            cfg.dim as usize,
            "fit: model/config dim mismatch"
        );
        // Keep only rows carrying supervision signal.
        let trainable: Vec<usize> = (0..xs.len())
            .filter(|&i| (soft[i] - 0.5).abs() > cfg.abstain_margin)
            .collect();
        if trainable.is_empty() {
            return 0.0;
        }
        let mut adam = Adam::new(cfg.dim as usize, cfg.learning_rate);
        let mut bias_adam = Adam::new(1, cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order = trainable.clone();
        let mut last_epoch_loss = 0.0;

        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(cfg.batch_size) {
                // Accumulate sparse gradient over the batch.
                let mut grad_pairs: Vec<(u32, f64)> = Vec::new();
                let mut grad_bias = 0.0;
                for &i in batch {
                    let s = self.score(&xs[i]);
                    let p = sigmoid(s);
                    let err = p - soft[i]; // ∂ℓ/∂s
                    epoch_loss += -(soft[i] * sigmoid(s).max(1e-12).ln()
                        + (1.0 - soft[i]) * sigmoid(-s).max(1e-12).ln());
                    for (idx, val) in xs[i].iter() {
                        grad_pairs.push((idx, err * val));
                    }
                    grad_bias += err;
                }
                let bf = batch.len() as f64;
                let grad = SparseVec::from_pairs(grad_pairs);
                // L2 on active coordinates only (proximal-style sparse reg).
                let mut g: Vec<f64> = grad.values().to_vec();
                for (gi, &idx) in g.iter_mut().zip(grad.indices()) {
                    *gi = *gi / bf + cfg.l2 * self.weights[idx as usize];
                }
                adam.step_sparse(&mut self.weights, grad.indices(), &g);
                let mut bias_slot = [self.bias];
                bias_adam.step(&mut bias_slot, &[grad_bias / bf]);
                self.bias = bias_slot[0];
            }
            last_epoch_loss = epoch_loss / order.len() as f64;
        }
        last_epoch_loss
    }

    /// Train on hard ±1 labels (hand-supervision baseline); rows with
    /// gold 0 are skipped.
    pub fn fit_hard(&mut self, xs: &[SparseVec], gold: &[Vote], cfg: &LogRegConfig) -> f64 {
        let soft: Vec<f64> = gold
            .iter()
            .map(|&g| match g {
                1 => 1.0,
                -1 => 0.0,
                _ => 0.5, // dropped by the abstain margin
            })
            .collect();
        self.fit(xs, &soft, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy data: feature 0 ⇒ positive, feature 1 ⇒
    /// negative, plus distractor features.
    fn toy(n: usize, seed: u64) -> (Vec<SparseVec>, Vec<Vote>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            let mut pairs = vec![(if y == 1 { 0 } else { 1 }, 1.0)];
            for _ in 0..3 {
                pairs.push((rng.gen_range(2..64), 1.0));
            }
            let mut v = SparseVec::from_pairs(pairs);
            v.l2_normalize();
            xs.push(v);
            ys.push(y);
        }
        (xs, ys)
    }

    fn cfg() -> LogRegConfig {
        LogRegConfig {
            dim: 64,
            epochs: 30,
            ..LogRegConfig::default()
        }
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = toy(500, 1);
        let mut lr = LogisticRegression::new(64);
        lr.fit_hard(&xs, &ys, &cfg());
        let preds = lr.predict_all(&xs);
        let acc = crate::metrics::accuracy(&preds, &ys);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn soft_labels_train_like_hard_when_confident() {
        let (xs, ys) = toy(500, 2);
        let soft: Vec<f64> = ys.iter().map(|&y| if y == 1 { 0.9 } else { 0.1 }).collect();
        let mut lr = LogisticRegression::new(64);
        lr.fit(&xs, &soft, &cfg());
        let acc = crate::metrics::accuracy(&lr.predict_all(&xs), &ys);
        assert!(acc > 0.95, "soft-label accuracy {acc}");
    }

    #[test]
    fn uninformative_labels_learn_nothing() {
        let (xs, _) = toy(200, 3);
        let soft = vec![0.5; 200];
        let mut lr = LogisticRegression::new(64);
        let loss = lr.fit(&xs, &soft, &cfg());
        assert_eq!(loss, 0.0, "all rows dropped by abstain margin");
        assert!(lr.predict_proba(&xs[0]) == 0.5);
    }

    #[test]
    fn fit_is_deterministic() {
        let (xs, ys) = toy(200, 4);
        let mut a = LogisticRegression::new(64);
        let mut b = LogisticRegression::new(64);
        a.fit_hard(&xs, &ys, &cfg());
        b.fit_hard(&xs, &ys, &cfg());
        assert_eq!(a.predict_proba(&xs[0]), b.predict_proba(&xs[0]));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (xs, ys) = toy(100, 5);
        let mut lr = LogisticRegression::new(64);
        lr.fit_hard(&xs, &ys, &cfg());
        for p in lr.predict_proba_all(&xs) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn noise_aware_training_is_robust_to_label_noise() {
        // 30% of labels flipped; soft targets encode the calibrated
        // per-label confidence (0.7/0.3). The soft and hard fits carry
        // the same information here, so we check the noise-aware loss is
        // *comparable* (within a few points) and far above chance — the
        // paper's point is that soft targets lose nothing while
        // propagating lineage.
        use rand::Rng;
        let (xs, ys) = toy(600, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let noisy: Vec<Vote> = ys
            .iter()
            .map(|&y| if rng.gen::<f64>() < 0.3 { -y } else { y })
            .collect();
        let soft: Vec<f64> = noisy
            .iter()
            .map(|&y| if y == 1 { 0.7 } else { 0.3 })
            .collect();

        let mut hard_model = LogisticRegression::new(64);
        hard_model.fit_hard(&xs, &noisy, &cfg());
        let mut soft_model = LogisticRegression::new(64);
        soft_model.fit(&xs, &soft, &cfg());

        let acc_hard = crate::metrics::accuracy(&hard_model.predict_all(&xs), &ys);
        let acc_soft = crate::metrics::accuracy(&soft_model.predict_all(&xs), &ys);
        assert!(acc_soft > 0.85, "soft fit collapsed: {acc_soft:.3}");
        assert!(
            (acc_soft - acc_hard).abs() < 0.05,
            "soft {acc_soft:.3} vs hard {acc_hard:.3}"
        );
    }
}
