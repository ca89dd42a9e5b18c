//! Distillation: noise-aware training of a serving model on the label
//! model's marginals.
//!
//! The label model can only score candidates that appear in Λ. The
//! *distilled* model is the discriminative half of the paper (§2.4): it
//! trains on the probabilistic labels `Ỹ` with the noise-aware expected
//! loss and generalizes to candidates **outside the labeling functions'
//! coverage** — the traffic a deployed labeling service mostly gets.
//!
//! [`DistilledModel`] wraps the crate's linear backends (binary
//! [`LogisticRegression`], multi-class [`SoftmaxRegression`]) behind one
//! marginal-row-in / posterior-out surface, and [`DistilledModel::fit`]
//! implements the training scheme the serving layer needs:
//!
//! * **Noise-aware weighting.** Every row trains on its full marginal
//!   distribution; rows whose marginal is close to uniform (the
//!   all-abstain posterior) carry almost no supervision signal, so each
//!   row's gradient is scaled by its *confidence*
//!   `(max_c p̃_c − 1/K) · K/(K−1) ∈ [0, 1]` and rows below
//!   [`DistillConfig::min_confidence`] are dropped outright.
//! * **One minibatch per range and step.** Each of the caller's row
//!   ranges — in production the ranges of the live `ShardedMatrix`
//!   plan — keeps its own shuffle stream, and every step takes one
//!   minibatch from each of them (effective batch = `batch_size × live
//!   ranges`). The step is one sequential pass on the calling thread:
//!   every row's gradient is scatter-added into a dense per-fit buffer
//!   in one canonical order — range order, then minibatch row order,
//!   then the row's feature order — and the touched buckets get a
//!   single Adam update. No thread is spawned and nothing is allocated
//!   inside the epoch loop.
//! * **Warm starts.** `fit` continues from the model's current weights
//!   (and runs the full `epochs`), so the serving layer's
//!   retrain-after-edit starts from the previous model, not from zero.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use snorkel_linalg::math::sigmoid;
use snorkel_linalg::SparseVec;
use snorkel_matrix::Vote;

use crate::adam::Adam;
use crate::features::hash_feature;
use crate::logreg::LogisticRegression;
use crate::softmax::SoftmaxRegression;

/// Hash raw feature strings into an L2-normalized [`SparseVec`] — the
/// serving-side counterpart of [`crate::TextFeaturizer::featurize`] for
/// callers that ship pre-extracted feature names (the `PREDICT` wire
/// verb). Duplicate names merge by summation before normalization.
///
/// ```
/// use snorkel_disc::hash_features;
/// let v = hash_features(["u=magnesium", "btw=causes"], 1 << 18);
/// assert_eq!(v.nnz(), 2);
/// assert!((v.norm2_sq() - 1.0).abs() < 1e-9);
/// ```
pub fn hash_features<'a>(names: impl IntoIterator<Item = &'a str>, buckets: u32) -> SparseVec {
    let mut v = SparseVec::new();
    hash_features_into(names, buckets, &mut Vec::new(), &mut v);
    v
}

/// The hashing kernel behind [`hash_features`], into caller-owned
/// scratch: `pairs` is the hash staging buffer, `out` receives the
/// L2-normalized vector. Both keep their capacity across calls, so a
/// warm serving worker hashes every request without touching the
/// allocator.
pub fn hash_features_into<'a>(
    names: impl IntoIterator<Item = &'a str>,
    buckets: u32,
    pairs: &mut Vec<(u32, f64)>,
    out: &mut SparseVec,
) {
    pairs.clear();
    pairs.extend(
        names
            .into_iter()
            .map(|name| (hash_feature(name, buckets), 1.0)),
    );
    out.assign_from_pairs(pairs);
    out.l2_normalize();
}

/// Per-row confidence of a marginal distribution: 0 on the uniform
/// (all-abstain) posterior, 1 on a one-hot posterior.
pub fn marginal_confidence(row: &[f64]) -> f64 {
    let k = row.len();
    if k < 2 {
        return 0.0;
    }
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    ((max - 1.0 / k as f64) * k as f64 / (k - 1) as f64).clamp(0.0, 1.0)
}

/// Training configuration for [`DistilledModel::fit`].
#[derive(Clone, Debug, PartialEq)]
pub struct DistillConfig {
    /// Feature dimensionality (hash buckets).
    pub dim: u32,
    /// Training epochs (one pass over every shard's trainable rows).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength (applied to touched coordinates).
    pub l2: f64,
    /// Minibatch size *per shard and step*; the effective step batch is
    /// `batch_size × live shards`.
    pub batch_size: usize,
    /// Shuffle seed (per-shard streams are derived from it).
    pub seed: u64,
    /// Rows whose [`marginal_confidence`] is at or below this floor are
    /// dropped from training (no supervision signal); everything above
    /// it is down-weighted by its confidence, not clipped.
    pub min_confidence: f64,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            dim: 1 << 18,
            epochs: 5,
            learning_rate: 0.02,
            l2: 1e-6,
            batch_size: 128,
            seed: 0,
            min_confidence: 1e-6,
        }
    }
}

/// What one [`DistilledModel::fit`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistillReport {
    /// Rows offered (the union of the row ranges).
    pub rows_total: usize,
    /// Rows that carried supervision signal and trained.
    pub rows_trained: usize,
    /// Rows dropped at the confidence floor (abstain-marginal rows).
    pub rows_dropped: usize,
    /// Mean confidence weight of the trained rows.
    pub mean_confidence: f64,
    /// Epochs run.
    pub epochs: usize,
    /// Optimizer steps taken (one merged Adam update each).
    pub steps: usize,
    /// Weighted mean training loss of the final epoch.
    pub final_loss: f64,
}

/// Stable plain-data encoding of a [`DistilledModel`] — the snapshot
/// surface for `snorkel-serve`. Weight vectors are stored sparse
/// (non-zero buckets only): a freshly distilled model touches a small
/// fraction of its hash space.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscModelParts {
    /// Feature dimensionality (hash buckets).
    pub dim: u32,
    /// Per-class sparse weight vectors, `(bucket, weight)` with strictly
    /// increasing buckets. One entry means the binary model (class +1
    /// scores); `K ≥ 2` entries mean the `K`-class softmax model.
    pub class_weights: Vec<Vec<(u32, f64)>>,
    /// Per-class biases, parallel to `class_weights` (one entry for the
    /// binary model).
    pub bias: Vec<f64>,
}

impl DiscModelParts {
    /// Check every structural invariant; [`DistilledModel::from_parts`]
    /// refuses parts that fail.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("disc model dim is zero".into());
        }
        if self.class_weights.is_empty() {
            return Err("disc model has no weight vectors".into());
        }
        if self.class_weights.len() != self.bias.len() {
            return Err(format!(
                "disc model has {} weight vectors but {} biases",
                self.class_weights.len(),
                self.bias.len()
            ));
        }
        for (c, w) in self.class_weights.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &(idx, val) in w {
                if idx >= self.dim {
                    return Err(format!(
                        "class {c} references bucket {idx} ≥ dim {}",
                        self.dim
                    ));
                }
                if prev.is_some_and(|p| p >= idx) {
                    return Err(format!("class {c} buckets are not strictly increasing"));
                }
                if !val.is_finite() {
                    return Err(format!("class {c} has a non-finite weight"));
                }
                prev = Some(idx);
            }
        }
        if self.bias.iter().any(|b| !b.is_finite()) {
            return Err("disc model has a non-finite bias".into());
        }
        Ok(())
    }
}

/// The distilled serving model: a noise-aware linear model over hashed
/// features, trained on label-model marginals and able to score
/// candidates **with zero LF coverage**. Class order matches the label
/// model's marginal rows (binary: index 0 = vote `+1`; multi-class:
/// index `c` = vote `c + 1`).
#[derive(Clone, Debug)]
pub enum DistilledModel {
    /// Binary tasks: logistic regression, `P(y = +1)` first.
    Binary(LogisticRegression),
    /// `K`-class tasks (`K > 2` at construction): softmax regression.
    Multi(SoftmaxRegression),
}

impl DistilledModel {
    /// Zero-initialized model for `num_classes` classes over `dim`
    /// hashed-feature buckets. Two classes build the binary backend.
    pub fn new(dim: u32, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        if num_classes == 2 {
            DistilledModel::Binary(LogisticRegression::new(dim))
        } else {
            DistilledModel::Multi(SoftmaxRegression::new(dim, num_classes))
        }
    }

    /// Feature dimensionality (hash buckets).
    pub fn dim(&self) -> u32 {
        match self {
            DistilledModel::Binary(m) => m.dim(),
            DistilledModel::Multi(m) => m.dim(),
        }
    }

    /// Number of classes scored.
    pub fn num_classes(&self) -> usize {
        match self {
            DistilledModel::Binary(_) => 2,
            DistilledModel::Multi(m) => m.num_classes(),
        }
    }

    /// Class posterior for one feature vector, in marginal-row order,
    /// written into a caller-owned slice of `num_classes()` elements,
    /// allocating nothing — the kernel under the serving layer's
    /// `PREDICT` arena path.
    ///
    /// Panics if `out.len() != num_classes()`.
    pub fn predict_proba_into(&self, x: &SparseVec, out: &mut [f64]) {
        match self {
            DistilledModel::Binary(m) => {
                assert_eq!(out.len(), 2, "predict_proba_into needs two slots");
                let p = m.predict_proba(x);
                out[0] = p;
                out[1] = 1.0 - p;
            }
            DistilledModel::Multi(m) => m.predict_proba_into(x, out),
        }
    }

    /// [`Self::predict_proba_into`] into a fresh `Vec`.
    pub fn predict_proba(&self, x: &SparseVec) -> Vec<f64> {
        let mut out = vec![0.0; self.num_classes()];
        self.predict_proba_into(x, &mut out);
        out
    }

    /// Independent parameter groups: one weight vector + bias for the
    /// binary model, one per class for the softmax model.
    fn num_groups(&self) -> usize {
        match self {
            DistilledModel::Binary(_) => 1,
            DistilledModel::Multi(m) => m.num_classes(),
        }
    }

    /// MAP prediction as a vote value: `±1` for the binary model,
    /// `1..=K` for the multi-class model.
    pub fn predict_vote(&self, x: &SparseVec) -> Vote {
        match self {
            DistilledModel::Binary(m) => {
                if m.score(x) > 0.0 {
                    1
                } else {
                    -1
                }
            }
            DistilledModel::Multi(m) => (m.predict_class(x) + 1) as Vote,
        }
    }

    /// Export the model as plain data (see [`DiscModelParts`]).
    pub fn to_parts(&self) -> DiscModelParts {
        let sparse = |w: &[f64]| -> Vec<(u32, f64)> {
            w.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect()
        };
        match self {
            DistilledModel::Binary(m) => {
                let (w, b) = m.raw();
                DiscModelParts {
                    dim: m.dim(),
                    class_weights: vec![sparse(w)],
                    bias: vec![b],
                }
            }
            DistilledModel::Multi(m) => {
                let (ws, bs) = m.raw();
                DiscModelParts {
                    dim: m.dim(),
                    class_weights: ws.iter().map(|w| sparse(w)).collect(),
                    bias: bs.to_vec(),
                }
            }
        }
    }

    /// Rebuild a model from validated parts; structurally invalid parts
    /// (out-of-range buckets, non-finite weights, shape mismatches) are
    /// refused with a message.
    pub fn from_parts(parts: &DiscModelParts) -> Result<DistilledModel, String> {
        parts.validate()?;
        let dense = |w: &[(u32, f64)]| -> Vec<f64> {
            let mut out = vec![0.0; parts.dim as usize];
            for &(idx, val) in w {
                out[idx as usize] = val;
            }
            out
        };
        if parts.class_weights.len() == 1 {
            Ok(DistilledModel::Binary(LogisticRegression::from_raw(
                dense(&parts.class_weights[0]),
                parts.bias[0],
            )))
        } else {
            Ok(DistilledModel::Multi(SoftmaxRegression::from_raw(
                parts.class_weights.iter().map(|w| dense(w)).collect(),
                parts.bias.clone(),
            )))
        }
    }

    /// Noise-aware fit on label-model marginals, warm-continuing from
    /// the current weights (a fresh model starts cold).
    ///
    /// `ranges` are contiguous row ranges, each with its own shuffle
    /// stream and one minibatch per step — normally the live
    /// `ShardedMatrix` plan's shard ranges; empty means one range
    /// covering every row. The result is a pure function of
    /// `(self, xs, marginals, ranges, cfg)`.
    ///
    /// # Panics
    /// If `xs` and `marginals` lengths differ, a range is out of
    /// bounds, or a marginal row's class count mismatches the model's.
    pub fn fit(
        &mut self,
        xs: &[SparseVec],
        marginals: &[Vec<f64>],
        ranges: &[(usize, usize)],
        cfg: &DistillConfig,
    ) -> DistillReport {
        assert_eq!(
            xs.len(),
            marginals.len(),
            "fit: one marginal row per example"
        );
        assert_eq!(
            self.dim(),
            cfg.dim,
            "fit: model dim {} != config dim {}",
            self.dim(),
            cfg.dim
        );
        let k = self.num_classes();
        let whole = [(0usize, xs.len())];
        let ranges: &[(usize, usize)] = if ranges.is_empty() { &whole } else { ranges };

        // Per-shard trainable rows and their confidence weights.
        let mut rows_total = 0usize;
        let mut weight_sum = 0.0f64;
        let mut max_nnz = 0usize;
        let mut shard_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(ranges.len());
        for &(lo, hi) in ranges {
            assert!(
                lo <= hi && hi <= xs.len(),
                "fit: range {lo}..{hi} out of bounds"
            );
            rows_total += hi - lo;
            let mut kept = Vec::new();
            for (i, row) in marginals.iter().enumerate().take(hi).skip(lo) {
                assert_eq!(row.len(), k, "fit: marginal row {i} has wrong class count");
                let w = marginal_confidence(row);
                if w > cfg.min_confidence {
                    weight_sum += w;
                    max_nnz = max_nnz.max(xs[i].nnz());
                    kept.push((i, w));
                }
            }
            shard_rows.push(kept);
        }
        let rows_trained: usize = shard_rows.iter().map(Vec::len).sum();
        let mut report = DistillReport {
            rows_total,
            rows_trained,
            rows_dropped: rows_total - rows_trained,
            mean_confidence: if rows_trained == 0 {
                0.0
            } else {
                weight_sum / rows_trained as f64
            },
            epochs: cfg.epochs,
            steps: 0,
            final_loss: 0.0,
        };
        if rows_trained == 0 {
            return report;
        }

        let groups = self.num_groups();
        let mut adams: Vec<Adam> = (0..groups)
            .map(|_| Adam::new(cfg.dim as usize, cfg.learning_rate))
            .collect();
        let mut bias_adam = Adam::new(groups, cfg.learning_rate);
        let batch = cfg.batch_size.max(1);
        // A step takes at most `batch` rows per shard, so the touched
        // list never outgrows this and the epoch loop never allocates.
        let max_touched = (cfg.dim as usize).min(shard_rows.len() * batch * max_nnz);
        let mut scratch = StepScratch::new(groups, k, cfg.dim, max_touched);

        for epoch in 0..cfg.epochs {
            // Per-shard shuffle streams: deterministic per (seed, shard,
            // epoch) and independent of every other shard.
            for (s, rows) in shard_rows.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed
                        ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (epoch as u64) << 32,
                );
                rows.shuffle(&mut rng);
            }
            let steps = shard_rows
                .iter()
                .map(|r| r.len().div_ceil(batch))
                .max()
                .unwrap_or(0);
            let mut epoch_loss = 0.0f64;
            let mut epoch_weight = 0.0f64;
            for step in 0..steps {
                for rows in &shard_rows {
                    let lo = (step * batch).min(rows.len());
                    let hi = ((step + 1) * batch).min(rows.len());
                    self.accumulate(xs, marginals, &rows[lo..hi], &mut scratch);
                }
                if scratch.weight > 0.0 {
                    epoch_loss += scratch.loss;
                    epoch_weight += scratch.weight;
                    self.apply_step(&mut scratch, &mut adams, &mut bias_adam, cfg);
                    report.steps += 1;
                }
                scratch.reset();
            }
            if epoch_weight > 0.0 {
                report.final_loss = epoch_loss / epoch_weight;
            }
        }
        report
    }

    /// Add one shard's minibatch `(row, weight)` slice to the step:
    /// every row's gradient is scatter-added into `s.grad` in slice
    /// order, and the slice's loss, weight and bias-gradient partials
    /// are summed on their own and then added to the step totals — the
    /// per-shard-then-shard-order merge the scalars have always had.
    fn accumulate(
        &self,
        xs: &[SparseVec],
        marginals: &[Vec<f64>],
        slice: &[(usize, f64)],
        s: &mut StepScratch,
    ) {
        let (mut loss, mut weight) = (0.0f64, 0.0f64);
        s.shard_bias.fill(0.0);
        for &(i, w) in slice {
            let x = &xs[i];
            s.touch(x);
            match self {
                DistilledModel::Binary(m) => {
                    let score = m.score(x);
                    let p = sigmoid(score);
                    let target = marginals[i][0];
                    let err = w * (p - target);
                    loss -= w
                        * (target * p.max(1e-12).ln()
                            + (1.0 - target) * sigmoid(-score).max(1e-12).ln());
                    s.scatter(0, x, err);
                    s.shard_bias[0] += err;
                }
                DistilledModel::Multi(m) => {
                    m.predict_proba_into(x, &mut s.probs);
                    for (c, &target) in marginals[i].iter().enumerate() {
                        let p = s.probs[c];
                        let err = w * (p - target);
                        loss -= w * target * p.max(1e-12).ln();
                        s.shard_bias[c] += err;
                        s.scatter(c, x, err);
                    }
                }
            }
            weight += w;
        }
        s.loss += loss;
        s.weight += weight;
        for (total, &part) in s.grad_bias.iter_mut().zip(&s.shard_bias) {
            *total += part;
        }
    }

    /// One Adam update per group over the step's touched buckets
    /// (weighted-mean gradient + L2 on those coordinates). A bucket
    /// whose gradient summed to exactly zero is left out.
    fn apply_step(
        &mut self,
        s: &mut StepScratch,
        adams: &mut [Adam],
        bias_adam: &mut Adam,
        cfg: &DistillConfig,
    ) {
        let wf = s.weight;
        for (c, adam) in adams.iter_mut().enumerate() {
            s.grad_bias[c] /= wf;
            let weights: &mut [f64] = match self {
                DistilledModel::Binary(m) => m.raw_mut().0,
                DistilledModel::Multi(m) => &mut m.raw_mut().0[c],
            };
            s.idx.clear();
            s.vals.clear();
            for &b in &s.touched {
                let sum = s.grad[c][b as usize];
                if sum != 0.0 {
                    s.idx.push(b);
                    s.vals.push(sum / wf + cfg.l2 * weights[b as usize]);
                }
            }
            adam.step_sparse(weights, &s.idx, &s.vals);
        }
        match self {
            DistilledModel::Binary(m) => {
                let (_, bias) = m.raw_mut();
                let mut slot = [*bias];
                bias_adam.step(&mut slot, &s.grad_bias);
                *bias = slot[0];
            }
            DistilledModel::Multi(m) => {
                let (_, bias) = m.raw_mut();
                bias_adam.step(bias, &s.grad_bias);
            }
        }
    }
}

/// Every buffer of [`DistilledModel::fit`]'s minibatch step, built once
/// per fit. Between steps (after [`Self::reset`]) every gradient slot
/// and `seen` flag is clear, so a bucket's first contribution in a step
/// lands on an exact zero — the same sum as seeding the slot with it.
struct StepScratch {
    /// Gradient sums, one dense `dim`-long buffer per parameter group.
    grad: Vec<Vec<f64>>,
    /// Per bucket: touched this step (and listed in `touched`).
    seen: Vec<bool>,
    /// This step's touched buckets, in first-touch order.
    touched: Vec<u32>,
    /// One group's nonzero buckets and gradients, handed to Adam.
    idx: Vec<u32>,
    vals: Vec<f64>,
    /// Multi-class posterior of the current row.
    probs: Vec<f64>,
    /// The current shard's bias-gradient partials.
    shard_bias: Vec<f64>,
    /// Step totals, merged from the shard partials in shard order.
    grad_bias: Vec<f64>,
    loss: f64,
    weight: f64,
}

impl StepScratch {
    fn new(groups: usize, classes: usize, dim: u32, max_touched: usize) -> Self {
        StepScratch {
            grad: vec![vec![0.0; dim as usize]; groups],
            seen: vec![false; dim as usize],
            touched: Vec::with_capacity(max_touched),
            idx: Vec::with_capacity(max_touched),
            vals: Vec::with_capacity(max_touched),
            probs: vec![0.0; classes],
            shard_bias: vec![0.0; groups],
            grad_bias: vec![0.0; groups],
            loss: 0.0,
            weight: 0.0,
        }
    }

    /// List `x`'s buckets not yet touched this step.
    fn touch(&mut self, x: &SparseVec) {
        for &b in x.indices() {
            let seen = &mut self.seen[b as usize];
            if !*seen {
                *seen = true;
                self.touched.push(b);
            }
        }
    }

    /// Add `err · x` to group `c`'s gradient, in `x`'s feature order.
    fn scatter(&mut self, c: usize, x: &SparseVec, err: f64) {
        let grad = &mut self.grad[c];
        for (b, v) in x.iter() {
            grad[b as usize] += err * v;
        }
    }

    /// Clear the step: zero the touched slots and the totals.
    fn reset(&mut self) {
        for &b in &self.touched {
            self.seen[b as usize] = false;
            for grad in &mut self.grad {
                grad[b as usize] = 0.0;
            }
        }
        self.touched.clear();
        self.grad_bias.fill(0.0);
        self.loss = 0.0;
        self.weight = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The fit the scatter-add step replaced, body verbatim less the
    /// argument checks and with the shards accumulating one after
    /// another where it spawned a thread per shard (it merged in shard
    /// order, so the bits are the same): per-shard `(bucket, gradient)`
    /// pair lists, merged by cloning and sorting them into a
    /// `SparseVec`. The definition the sequential step must match in all
    /// but the last bits.
    fn reference_fit(
        model: &mut DistilledModel,
        xs: &[SparseVec],
        marginals: &[Vec<f64>],
        ranges: &[(usize, usize)],
        cfg: &DistillConfig,
    ) -> DistillReport {
        let k = model.num_classes();
        let whole = [(0usize, xs.len())];
        let ranges: &[(usize, usize)] = if ranges.is_empty() { &whole } else { ranges };

        // Per-shard trainable rows and their confidence weights.
        let mut rows_total = 0usize;
        let mut weight_sum = 0.0f64;
        let mut shard_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(ranges.len());
        for &(lo, hi) in ranges {
            rows_total += hi - lo;
            let mut kept = Vec::new();
            for (i, row) in marginals.iter().enumerate().take(hi).skip(lo) {
                assert_eq!(row.len(), k, "fit: marginal row {i} has wrong class count");
                let w = marginal_confidence(row);
                if w > cfg.min_confidence {
                    weight_sum += w;
                    kept.push((i, w));
                }
            }
            shard_rows.push(kept);
        }
        let rows_trained: usize = shard_rows.iter().map(Vec::len).sum();
        let mut report = DistillReport {
            rows_total,
            rows_trained,
            rows_dropped: rows_total - rows_trained,
            mean_confidence: if rows_trained == 0 {
                0.0
            } else {
                weight_sum / rows_trained as f64
            },
            epochs: cfg.epochs,
            steps: 0,
            final_loss: 0.0,
        };
        if rows_trained == 0 {
            return report;
        }

        let groups = model.num_groups();
        let mut adams: Vec<Adam> = (0..groups)
            .map(|_| Adam::new(cfg.dim as usize, cfg.learning_rate))
            .collect();
        let mut bias_adam = Adam::new(groups, cfg.learning_rate);
        let batch = cfg.batch_size.max(1);

        for epoch in 0..cfg.epochs {
            for (s, rows) in shard_rows.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed
                        ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (epoch as u64) << 32,
                );
                rows.shuffle(&mut rng);
            }
            let steps = shard_rows
                .iter()
                .map(|r| r.len().div_ceil(batch))
                .max()
                .unwrap_or(0);
            let mut epoch_loss = 0.0f64;
            let mut epoch_weight = 0.0f64;
            for step in 0..steps {
                let slices: Vec<&[(usize, f64)]> = shard_rows
                    .iter()
                    .map(|rows| {
                        let lo = (step * batch).min(rows.len());
                        let hi = ((step + 1) * batch).min(rows.len());
                        &rows[lo..hi]
                    })
                    .collect();
                let partials: Vec<StepAccum> = slices
                    .iter()
                    .map(|slice| reference_accumulate(model, xs, marginals, slice))
                    .collect();
                let mut merged = StepAccum::new(groups);
                for p in partials {
                    merged.merge(p);
                }
                if merged.weight <= 0.0 {
                    continue;
                }
                epoch_loss += merged.loss;
                epoch_weight += merged.weight;
                reference_apply_step(model, &merged, &mut adams, &mut bias_adam, cfg);
                report.steps += 1;
            }
            if epoch_weight > 0.0 {
                report.final_loss = epoch_loss / epoch_weight;
            }
        }
        report
    }

    fn reference_accumulate(
        model: &DistilledModel,
        xs: &[SparseVec],
        marginals: &[Vec<f64>],
        slice: &[(usize, f64)],
    ) -> StepAccum {
        let k = model.num_classes();
        let mut acc = StepAccum::new(model.num_groups());
        for &(i, w) in slice {
            let x = &xs[i];
            match model {
                DistilledModel::Binary(m) => {
                    let s = m.score(x);
                    let p = sigmoid(s);
                    let target = marginals[i][0];
                    let err = w * (p - target);
                    acc.loss -= w
                        * (target * sigmoid(s).max(1e-12).ln()
                            + (1.0 - target) * sigmoid(-s).max(1e-12).ln());
                    for (idx, val) in x.iter() {
                        acc.grad[0].push((idx, err * val));
                    }
                    acc.grad_bias[0] += err;
                }
                DistilledModel::Multi(m) => {
                    let probs = m.predict_proba(x);
                    for c in 0..k {
                        let err = w * (probs[c] - marginals[i][c]);
                        acc.loss -= w * marginals[i][c] * probs[c].max(1e-12).ln();
                        acc.grad_bias[c] += err;
                        for (idx, val) in x.iter() {
                            acc.grad[c].push((idx, err * val));
                        }
                    }
                }
            }
            acc.weight += w;
        }
        acc
    }

    fn reference_apply_step(
        model: &mut DistilledModel,
        merged: &StepAccum,
        adams: &mut [Adam],
        bias_adam: &mut Adam,
        cfg: &DistillConfig,
    ) {
        let wf = merged.weight;
        let groups = model.num_groups();
        let mut bias_grad = vec![0.0; groups];
        for c in 0..groups {
            bias_grad[c] = merged.grad_bias[c] / wf;
            let grad = SparseVec::from_pairs(merged.grad[c].clone());
            let weights: &mut [f64] = match model {
                DistilledModel::Binary(m) => m.raw_mut().0,
                DistilledModel::Multi(m) => &mut m.raw_mut().0[c],
            };
            let mut g: Vec<f64> = grad.values().to_vec();
            for (gi, &idx) in g.iter_mut().zip(grad.indices()) {
                *gi = *gi / wf + cfg.l2 * weights[idx as usize];
            }
            adams[c].step_sparse(weights, grad.indices(), &g);
        }
        match model {
            DistilledModel::Binary(m) => {
                let (_, bias) = m.raw_mut();
                let mut slot = [*bias];
                bias_adam.step(&mut slot, &bias_grad);
                *bias = slot[0];
            }
            DistilledModel::Multi(m) => {
                let (_, bias) = m.raw_mut();
                bias_adam.step(bias, &bias_grad);
            }
        }
    }

    /// Per-step gradient accumulator of the reference (one slot per
    /// class).
    struct StepAccum {
        grad: Vec<Vec<(u32, f64)>>,
        grad_bias: Vec<f64>,
        loss: f64,
        weight: f64,
    }

    impl StepAccum {
        fn new(k: usize) -> Self {
            StepAccum {
                grad: vec![Vec::new(); k],
                grad_bias: vec![0.0; k],
                loss: 0.0,
                weight: 0.0,
            }
        }

        fn merge(&mut self, other: StepAccum) {
            for (mine, theirs) in self.grad.iter_mut().zip(other.grad) {
                mine.extend(theirs);
            }
            for (mine, theirs) in self.grad_bias.iter_mut().zip(other.grad_bias) {
                *mine += theirs;
            }
            self.loss += other.loss;
            self.weight += other.weight;
        }
    }

    /// Planted `k`-class data over 64 buckets: bucket `c` marks class
    /// `c`, plus three distractors with random values. A tenth of the
    /// rows get the uniform (dropped) marginal; the rest put a random
    /// confidence on their class.
    fn planted_k(n: usize, k: usize, seed: u64) -> (Vec<SparseVec>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut xs, mut ms) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let c = rng.gen_range(0..k);
            let mut pairs = vec![(c as u32, 1.0)];
            for _ in 0..3 {
                pairs.push((rng.gen_range(k as u32..64), rng.gen_range(0.2..1.5)));
            }
            let mut v = SparseVec::from_pairs(pairs);
            v.l2_normalize();
            xs.push(v);
            let mut m = vec![1.0 / k as f64; k];
            if rng.gen::<f64>() >= 0.1 {
                let conf = rng.gen_range(0.6..0.98);
                m.fill((1.0 - conf) / (k - 1) as f64);
                m[c] = conf;
            }
            ms.push(m);
        }
        (xs, ms)
    }

    /// `parts` contiguous ranges tiling `0..n`.
    fn split(n: usize, parts: usize) -> Vec<(usize, usize)> {
        (0..parts)
            .map(|p| (p * n / parts, (p + 1) * n / parts))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sequential_step_matches_the_sort_merge_reference(
            n in 1usize..160,
            k in 2usize..4,
            parts in 1usize..4,
            warm in 0u8..2,
            batch_size in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            let (xs, ms) = planted_k(n, k, seed);
            let ranges = split(n, parts);
            let cfg = DistillConfig { dim: 64, epochs: 3, batch_size, seed, ..DistillConfig::default() };
            let mut start = DistilledModel::new(64, k);
            if warm == 1 {
                start.fit(&xs, &ms, &[], &DistillConfig { seed: seed ^ 1, ..cfg.clone() });
            }
            let (mut got, mut want) = (start.clone(), start);
            let a = got.fit(&xs, &ms, &ranges, &cfg);
            let b = reference_fit(&mut want, &xs, &ms, &ranges, &cfg);
            prop_assert_eq!(
                (a.rows_trained, a.rows_dropped, a.steps),
                (b.rows_trained, b.rows_dropped, b.steps)
            );
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12;
            let (pg, pw) = (got.to_parts(), want.to_parts());
            for (wg, ww) in pg.class_weights.iter().zip(&pw.class_weights) {
                let (dg, dw) = (dense(wg), dense(ww));
                prop_assert!(dg.iter().zip(&dw).all(|(&x, &y)| close(x, y)), "weights moved");
            }
            prop_assert!(pg.bias.iter().zip(&pw.bias).all(|(&x, &y)| close(x, y)), "bias moved");
            for x in &xs {
                let (p, q) = (got.predict_proba(x), want.predict_proba(x));
                prop_assert!(p.iter().zip(&q).all(|(&x, &y)| close(x, y)), "{:?} vs {:?}", p, q);
            }
        }
    }

    /// A sparse weight vector over 64 buckets, densified (the two fits
    /// may differ in which buckets are exactly zero).
    fn dense(w: &[(u32, f64)]) -> Vec<f64> {
        let mut out = vec![0.0; 64];
        for &(b, v) in w {
            out[b as usize] = v;
        }
        out
    }

    /// Planted binary data over 64 buckets: bucket 0 ⇒ +1, bucket 1 ⇒ −1,
    /// plus distractors; marginals encode per-row confidence.
    fn planted(n: usize, conf: f64, seed: u64) -> (Vec<SparseVec>, Vec<Vec<f64>>, Vec<Vote>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut xs, mut ms, mut gold) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..n {
            let y: Vote = if rng.gen::<bool>() { 1 } else { -1 };
            let mut pairs = vec![(if y == 1 { 0 } else { 1 }, 1.0)];
            for _ in 0..3 {
                pairs.push((rng.gen_range(2..64), 1.0));
            }
            let mut v = SparseVec::from_pairs(pairs);
            v.l2_normalize();
            xs.push(v);
            let p = if y == 1 { conf } else { 1.0 - conf };
            ms.push(vec![p, 1.0 - p]);
            gold.push(y);
        }
        (xs, ms, gold)
    }

    fn cfg() -> DistillConfig {
        DistillConfig {
            dim: 64,
            epochs: 20,
            ..DistillConfig::default()
        }
    }

    #[test]
    fn learns_from_soft_marginals() {
        let (xs, ms, gold) = planted(600, 0.9, 1);
        let mut m = DistilledModel::new(64, 2);
        let report = m.fit(&xs, &ms, &[], &cfg());
        assert_eq!(report.rows_trained, 600);
        let preds: Vec<Vote> = xs.iter().map(|x| m.predict_vote(x)).collect();
        let acc = crate::metrics::accuracy(&preds, &gold);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn sharded_fit_is_deterministic_and_learns() {
        let (xs, ms, gold) = planted(600, 0.85, 2);
        let ranges = [(0, 200), (200, 400), (400, 600)];
        let mut a = DistilledModel::new(64, 2);
        let mut b = DistilledModel::new(64, 2);
        a.fit(&xs, &ms, &ranges, &cfg());
        b.fit(&xs, &ms, &ranges, &cfg());
        for x in &xs[..20] {
            assert_eq!(a.predict_proba(x), b.predict_proba(x), "non-deterministic");
        }
        let preds: Vec<Vote> = xs.iter().map(|x| a.predict_vote(x)).collect();
        assert!(crate::metrics::accuracy(&preds, &gold) > 0.9);
    }

    #[test]
    fn abstain_marginals_are_dropped() {
        let (xs, mut ms, _) = planted(200, 0.9, 3);
        for m in ms.iter_mut().take(120) {
            *m = vec![0.5, 0.5]; // uniform = no signal
        }
        let mut m = DistilledModel::new(64, 2);
        let report = m.fit(&xs, &ms, &[], &cfg());
        assert_eq!(report.rows_dropped, 120);
        assert_eq!(report.rows_trained, 80);
    }

    #[test]
    fn all_abstain_trains_nothing() {
        let (xs, _, _) = planted(50, 0.9, 4);
        let ms = vec![vec![0.5, 0.5]; 50];
        let mut m = DistilledModel::new(64, 2);
        let report = m.fit(&xs, &ms, &[], &cfg());
        assert_eq!(report.rows_trained, 0);
        assert_eq!(report.steps, 0);
        assert_eq!(m.predict_proba(&xs[0]), vec![0.5, 0.5]);
    }

    #[test]
    fn exactly_cancelling_gradient_is_not_stepped() {
        // Score 0.3 − 0.3 = 0 on both rows, so their errors are ±0.125
        // and bucket 3's gradient sums to exactly zero. Stepping it
        // anyway would move the weight by its L2 term.
        let parts = DiscModelParts {
            dim: 8,
            class_weights: vec![vec![(3, 0.3)]],
            bias: vec![-0.3],
        };
        let mut m = DistilledModel::from_parts(&parts).unwrap();
        let x = SparseVec::from_pairs(vec![(3, 1.0)]);
        let cfg = DistillConfig {
            dim: 8,
            batch_size: 2,
            ..DistillConfig::default()
        };
        let report = m.fit(
            &[x.clone(), x],
            &[vec![0.75, 0.25], vec![0.25, 0.75]],
            &[],
            &cfg,
        );
        assert_eq!(report.steps, cfg.epochs);
        assert_eq!(m.to_parts(), parts);
    }

    #[test]
    fn warm_fit_continues_from_weights() {
        let (xs, ms, gold) = planted(400, 0.9, 5);
        let mut cold = DistilledModel::new(64, 2);
        cold.fit(&xs, &ms, &[], &cfg());
        // A short warm continuation must not regress.
        let warm_cfg = DistillConfig { epochs: 2, ..cfg() };
        let mut warm = cold.clone();
        warm.fit(&xs, &ms, &[], &warm_cfg);
        let preds: Vec<Vote> = xs.iter().map(|x| warm.predict_vote(x)).collect();
        assert!(crate::metrics::accuracy(&preds, &gold) > 0.95);
    }

    #[test]
    fn multiclass_distills() {
        let mut rng = StdRng::seed_from_u64(6);
        let (mut xs, mut ms, mut gold) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..600 {
            let c = rng.gen_range(0..3u32);
            let mut pairs = vec![(c, 1.0)];
            pairs.push((rng.gen_range(3..32), 1.0));
            let mut v = SparseVec::from_pairs(pairs);
            v.l2_normalize();
            xs.push(v);
            let mut m = vec![0.1; 3];
            m[c as usize] = 0.8;
            ms.push(m);
            gold.push((c + 1) as Vote);
        }
        let mut m = DistilledModel::new(32, 3);
        m.fit(
            &xs,
            &ms,
            &[(0, 300), (300, 600)],
            &DistillConfig {
                dim: 32,
                epochs: 25,
                ..DistillConfig::default()
            },
        );
        let preds: Vec<Vote> = xs.iter().map(|x| m.predict_vote(x)).collect();
        let acc = crate::metrics::accuracy(&preds, &gold);
        assert!(acc > 0.9, "accuracy {acc}");
        let p = m.predict_proba(&xs[0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parts_round_trip_bit_exact() {
        let (xs, ms, _) = planted(200, 0.9, 7);
        let mut m = DistilledModel::new(64, 2);
        m.fit(&xs, &ms, &[], &cfg());
        let parts = m.to_parts();
        let back = DistilledModel::from_parts(&parts).unwrap();
        for x in &xs[..20] {
            assert_eq!(m.predict_proba(x), back.predict_proba(x));
        }
        // Multi-class too.
        let mut mm = DistilledModel::new(32, 3);
        let ms3: Vec<Vec<f64>> = ms.iter().map(|_| vec![0.6, 0.3, 0.1]).collect();
        let xs3: Vec<SparseVec> = xs
            .iter()
            .map(|x| {
                let pairs: Vec<(u32, f64)> = x.iter().map(|(i, v)| (i % 32, v)).collect();
                SparseVec::from_pairs(pairs)
            })
            .collect();
        mm.fit(
            &xs3,
            &ms3,
            &[],
            &DistillConfig {
                dim: 32,
                epochs: 2,
                ..DistillConfig::default()
            },
        );
        let back = DistilledModel::from_parts(&mm.to_parts()).unwrap();
        assert_eq!(mm.predict_proba(&xs3[0]), back.predict_proba(&xs3[0]));
    }

    #[test]
    fn invalid_parts_are_refused() {
        let good = DistilledModel::new(8, 2).to_parts();
        assert!(DistilledModel::from_parts(&good).is_ok());
        let mut bad = good.clone();
        bad.class_weights[0] = vec![(9, 1.0)]; // bucket ≥ dim
        assert!(DistilledModel::from_parts(&bad).is_err());
        let mut bad = good.clone();
        bad.bias.push(0.0); // shape mismatch
        assert!(DistilledModel::from_parts(&bad).is_err());
        let mut bad = good.clone();
        bad.class_weights[0] = vec![(3, 1.0), (3, 2.0)]; // not increasing
        assert!(DistilledModel::from_parts(&bad).is_err());
        let mut bad = good;
        bad.bias[0] = f64::NAN;
        assert!(DistilledModel::from_parts(&bad).is_err());
    }

    #[test]
    fn confidence_weighting() {
        assert_eq!(marginal_confidence(&[0.5, 0.5]), 0.0);
        assert!((marginal_confidence(&[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((marginal_confidence(&[0.75, 0.25]) - 0.5).abs() < 1e-12);
        // Uniform 3-class is zero; one-hot is one.
        let third = 1.0 / 3.0;
        assert!(marginal_confidence(&[third, third, third]).abs() < 1e-12);
        assert!((marginal_confidence(&[0.0, 1.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
