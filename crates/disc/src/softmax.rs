//! Noise-aware multinomial (softmax) regression over sparse features.
//!
//! The multi-class counterpart of [`crate::LogisticRegression`], used for
//! the Crowd task (5-way sentiment). Targets are full posterior rows
//! from the generative model; the loss is cross-entropy against the soft
//! distribution, whose gradient at the logits is `softmax(s) − t`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use snorkel_linalg::math::softmax_in_place;
use snorkel_linalg::{dot_dense_slices, SparseVec};
use snorkel_matrix::Vote;

use crate::adam::Adam;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct SoftmaxConfig {
    /// Feature dimensionality (hash buckets).
    pub dim: u32,
    /// Number of classes.
    pub classes: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SoftmaxConfig {
    fn default() -> Self {
        SoftmaxConfig {
            dim: 1 << 16,
            classes: 2,
            epochs: 10,
            learning_rate: 0.01,
            l2: 1e-6,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Sparse multinomial logistic regression. Weights are one dense vector
/// per class; classes are 0-based dense indices (callers map them to
/// vote values `1..=K`).
#[derive(Clone, Debug)]
pub struct SoftmaxRegression {
    /// Per-class weight vectors, `classes × dim`.
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

impl SoftmaxRegression {
    /// Zero-initialized model.
    pub fn new(dim: u32, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        SoftmaxRegression {
            weights: vec![vec![0.0; dim as usize]; classes],
            bias: vec![0.0; classes],
        }
    }

    /// Rebuild from per-class dense weights and biases (snapshot
    /// decode). Panics unless shapes agree and `classes ≥ 2`.
    pub(crate) fn from_raw(weights: Vec<Vec<f64>>, bias: Vec<f64>) -> Self {
        assert!(weights.len() >= 2, "need at least two classes");
        assert_eq!(weights.len(), bias.len(), "one bias per class");
        assert!(
            weights.windows(2).all(|w| w[0].len() == w[1].len()),
            "ragged class weights"
        );
        SoftmaxRegression { weights, bias }
    }

    /// Feature dimensionality (per-class weight-vector length).
    pub(crate) fn dim(&self) -> u32 {
        self.weights[0].len() as u32
    }

    /// Borrow the raw parameters (per-class weights, biases).
    pub(crate) fn raw(&self) -> (&[Vec<f64>], &[f64]) {
        (&self.weights, &self.bias)
    }

    /// Mutably borrow the raw parameters (per-class weights, biases).
    pub(crate) fn raw_mut(&mut self) -> (&mut Vec<Vec<f64>>, &mut Vec<f64>) {
        (&mut self.weights, &mut self.bias)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Class probability distribution for one example, written into a
    /// caller-owned slice of `num_classes()` elements, allocating
    /// nothing.
    ///
    /// Panics if `out.len() != num_classes()`.
    pub fn predict_proba_into(&self, x: &SparseVec, out: &mut [f64]) {
        self.proba_slices_into(x.indices(), x.values(), out);
    }

    /// [`Self::predict_proba_into`] of a row held as parallel
    /// index/value slices.
    pub(crate) fn proba_slices_into(&self, idx: &[u32], val: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.weights.len(),
            "predict_proba_into needs one slot per class"
        );
        for (slot, (w, b)) in out.iter_mut().zip(self.weights.iter().zip(&self.bias)) {
            *slot = dot_dense_slices(idx, val, w) + b;
        }
        softmax_in_place(out);
    }

    /// [`Self::predict_proba_into`] into a fresh `Vec`.
    pub fn predict_proba(&self, x: &SparseVec) -> Vec<f64> {
        let mut out = vec![0.0; self.weights.len()];
        self.predict_proba_into(x, &mut out);
        out
    }

    /// MAP class (0-based) per example.
    pub fn predict_class(&self, x: &SparseVec) -> usize {
        let p = self.predict_proba(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(i, _)| i)
            .expect("non-empty class set")
    }

    /// MAP classes as 1-based vote values (`class + 1`), matching the
    /// multi-class vote scheme.
    pub fn predict_votes(&self, xs: &[SparseVec]) -> Vec<Vote> {
        xs.iter()
            .map(|x| (self.predict_class(x) + 1) as Vote)
            .collect()
    }

    /// Train on soft target distributions (`targets[i].len() ==
    /// classes`, each row summing to ~1). Returns final-epoch mean loss.
    pub fn fit(&mut self, xs: &[SparseVec], targets: &[Vec<f64>], cfg: &SoftmaxConfig) -> f64 {
        assert_eq!(xs.len(), targets.len(), "fit: one target row per example");
        assert_eq!(self.weights.len(), cfg.classes, "fit: class count mismatch");
        let k = cfg.classes;
        let mut adams: Vec<Adam> = (0..k)
            .map(|_| Adam::new(cfg.dim as usize, cfg.learning_rate))
            .collect();
        let mut bias_adam = Adam::new(k, cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut last_loss = 0.0;

        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(cfg.batch_size) {
                let mut grad_pairs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); k];
                let mut grad_bias = vec![0.0; k];
                for &i in batch {
                    let probs = self.predict_proba(&xs[i]);
                    for c in 0..k {
                        let err = probs[c] - targets[i][c];
                        epoch_loss -= targets[i][c] * probs[c].max(1e-12).ln();
                        grad_bias[c] += err;
                        for (idx, val) in xs[i].iter() {
                            grad_pairs[c].push((idx, err * val));
                        }
                    }
                }
                let bf = batch.len() as f64;
                for c in 0..k {
                    let grad = SparseVec::from_pairs(std::mem::take(&mut grad_pairs[c]));
                    let mut g: Vec<f64> = grad.values().to_vec();
                    for (gi, &idx) in g.iter_mut().zip(grad.indices()) {
                        *gi = *gi / bf + cfg.l2 * self.weights[c][idx as usize];
                    }
                    adams[c].step_sparse(&mut self.weights[c], grad.indices(), &g);
                    grad_bias[c] /= bf;
                }
                bias_adam.step(&mut self.bias, &grad_bias);
            }
            last_loss = epoch_loss / order.len() as f64;
        }
        last_loss
    }

    /// Train on hard class labels given as 1-based votes (`1..=K`);
    /// votes of 0 (unlabeled) are skipped.
    pub fn fit_hard(&mut self, xs: &[SparseVec], gold: &[Vote], cfg: &SoftmaxConfig) -> f64 {
        let keep: Vec<usize> = (0..xs.len()).filter(|&i| gold[i] != 0).collect();
        let xs_kept: Vec<SparseVec> = keep.iter().map(|&i| xs[i].clone()).collect();
        let targets: Vec<Vec<f64>> = keep
            .iter()
            .map(|&i| {
                let mut t = vec![0.0; cfg.classes];
                t[(gold[i] as usize) - 1] = 1.0;
                t
            })
            .collect();
        self.fit(&xs_kept, &targets, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// 3-class toy data: feature c is diagnostic of class c.
    fn toy(n: usize, seed: u64) -> (Vec<SparseVec>, Vec<Vote>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c = rng.gen_range(0..3u32);
            let mut pairs = vec![(c, 1.0)];
            for _ in 0..2 {
                pairs.push((rng.gen_range(3..32), 1.0));
            }
            let mut v = SparseVec::from_pairs(pairs);
            v.l2_normalize();
            xs.push(v);
            ys.push((c + 1) as Vote);
        }
        (xs, ys)
    }

    fn cfg() -> SoftmaxConfig {
        SoftmaxConfig {
            dim: 32,
            classes: 3,
            epochs: 30,
            ..SoftmaxConfig::default()
        }
    }

    #[test]
    fn learns_three_classes() {
        let (xs, ys) = toy(600, 1);
        let mut m = SoftmaxRegression::new(32, 3);
        m.fit_hard(&xs, &ys, &cfg());
        let acc = crate::metrics::accuracy(&m.predict_votes(&xs), &ys);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (xs, ys) = toy(100, 2);
        let mut m = SoftmaxRegression::new(32, 3);
        m.fit_hard(&xs, &ys, &cfg());
        for x in &xs[..10] {
            let p = m.predict_proba(x);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn soft_targets_work() {
        let (xs, ys) = toy(600, 3);
        // Smoothed one-hot targets.
        let targets: Vec<Vec<f64>> = ys
            .iter()
            .map(|&y| {
                let mut t = vec![0.1; 3];
                t[(y as usize) - 1] = 0.8;
                t
            })
            .collect();
        let mut m = SoftmaxRegression::new(32, 3);
        m.fit(&xs, &targets, &cfg());
        let acc = crate::metrics::accuracy(&m.predict_votes(&xs), &ys);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn unlabeled_rows_skipped_in_hard_fit() {
        let (xs, mut ys) = toy(200, 4);
        for y in ys.iter_mut().take(50) {
            *y = 0;
        }
        let mut m = SoftmaxRegression::new(32, 3);
        m.fit_hard(&xs, &ys, &cfg());
        let acc = crate::metrics::accuracy(&m.predict_votes(&xs), &ys);
        assert!(acc > 0.85);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn one_class_rejected() {
        let _ = SoftmaxRegression::new(8, 1);
    }
}
