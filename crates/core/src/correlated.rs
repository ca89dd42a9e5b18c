//! Contrastive-divergence training of the correlated generative model
//! (`C ≠ ∅`): SGD whose model phase is estimated by Gibbs chains seeded
//! at observed rows — "interleaving stochastic gradient descent steps
//! with Gibbs sampling ones" (paper §2.2). Entered from
//! [`GenerativeModel`]'s cold and warm fits whenever correlation pairs
//! are modeled; the independent model never comes here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use snorkel_linalg::math::softmax_in_place;
use snorkel_matrix::{LabelMatrix, Vote};

use super::{FitReport, GenerativeModel, TrainConfig, W_CLAMP};

impl GenerativeModel {
    /// Minibatch contrastive-divergence training for correlated models.
    ///
    /// Initialization discounts each LF's prior accuracy weight by its
    /// strength-weighted redundancy `1 + Σ_k ρ_jk` over its correlated
    /// partners: a cluster of near-copies carries roughly one voter's
    /// worth of evidence, so the discount keeps it from dominating the
    /// latent posterior before the correlation weights can explain its
    /// coherence. Without this, Example 3.1's pathology (a large
    /// low-accuracy correlated block out-voting a few accurate LFs) is a
    /// local optimum the SGD cannot leave, because the block pins the
    /// label posterior from the first epoch. Correlation weights start
    /// at their structure-learning strengths rather than zero so the
    /// model phase accounts for the redundancy from the first step.
    pub(super) fn fit_correlated_cd(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        let mut redundancy = vec![0.0f64; self.n];
        for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
            let s = self.corr_strength[p].min(1.5);
            redundancy[a] += s;
            redundancy[b] += s;
        }
        for j in 0..self.n {
            self.w_acc[j] = cfg.init_acc_weight / (1.0 + redundancy[j]);
        }
        for p in 0..self.corr_pairs.len() {
            self.w_corr[p] = self.corr_strength[p].min(2.0);
        }
        self.fit_correlated_cd_from_current(lambda, cfg)
    }

    /// The CD epoch loop, starting from whatever weights are currently
    /// set (the warm-start path enters here directly).
    pub(super) fn fit_correlated_cd_from_current(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        let m = lambda.num_points();
        let k = self.scheme.num_classes();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..m).collect();
        let mut lr = cfg.cd_learning_rate;

        // Dense vote buffer reused by the Gibbs chain.
        let mut chain = vec![0 as Vote; self.n];
        let mut scores = vec![0.0f64; k];

        for _epoch in 0..cfg.cd_epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(cfg.batch_size) {
                let bs = batch.len() as f64;
                let mut g_lab = vec![0.0; self.n];
                let mut g_acc = vec![0.0; self.n];
                let mut g_corr = vec![0.0; self.corr_pairs.len()];

                for &i in batch {
                    let (cols, votes) = lambda.row(i);

                    // Posterior phase (exact).
                    let post = self.posterior(cols, votes);
                    for (&c, &v) in cols.iter().zip(votes) {
                        let j = c as usize;
                        g_lab[j] += 1.0;
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            g_acc[j] += post[class];
                        }
                    }

                    // Observed correlation agreements (vote agreement
                    // only — see the module docs on the factor).
                    chain.iter_mut().for_each(|v| *v = 0);
                    for (&c, &v) in cols.iter().zip(votes) {
                        chain[c as usize] = v;
                    }
                    for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
                        if chain[a] == chain[b] && chain[a] != 0 {
                            g_corr[p] += 1.0;
                        }
                    }

                    // Model phase: CD-k Gibbs chain from the observed row.
                    for _sweep in 0..cfg.gibbs_steps {
                        // Sample y' | Λ'.
                        scores.copy_from_slice(&self.b_class);
                        for (j, &v) in chain.iter().enumerate() {
                            if let Some(class) = self.scheme.class_of_vote(v) {
                                scores[class] += self.w_acc[j];
                            }
                        }
                        softmax_in_place(&mut scores);
                        let y_class = sample_categorical(&mut rng, &scores);
                        // Sample each Λ'_j | y', Λ'_{-j}.
                        for j in 0..self.n {
                            chain[j] = self.sample_vote(&mut rng, j, y_class, &chain);
                        }
                    }

                    // Subtract model-phase statistics.
                    for (j, &v) in chain.iter().enumerate() {
                        if v != 0 {
                            g_lab[j] -= 1.0;
                        }
                        // Accuracy factor: need y'; resample once more for
                        // an unbiased-ish pairing of (Λ', y').
                    }
                    scores.copy_from_slice(&self.b_class);
                    for (j, &v) in chain.iter().enumerate() {
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            scores[class] += self.w_acc[j];
                        }
                    }
                    softmax_in_place(&mut scores);
                    let y_final = sample_categorical(&mut rng, &scores);
                    for (j, &v) in chain.iter().enumerate() {
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            if class == y_final {
                                g_acc[j] -= 1.0;
                            }
                        }
                    }
                    for (p, &(a, b)) in self.corr_pairs.iter().enumerate() {
                        if chain[a] == chain[b] && chain[a] != 0 {
                            g_corr[p] -= 1.0;
                        }
                    }
                }

                // Apply the averaged ascent step.
                for j in 0..self.n {
                    self.w_lab[j] = (self.w_lab[j] + lr * (g_lab[j] / bs - cfg.l2 * self.w_lab[j]))
                        .clamp(-W_CLAMP, W_CLAMP);
                    self.w_acc[j] = (self.w_acc[j] + lr * (g_acc[j] / bs - cfg.l2 * self.w_acc[j]))
                        .clamp(-W_CLAMP, W_CLAMP);
                    if cfg.clamp_nonadversarial && self.w_acc[j] < 0.0 {
                        self.w_acc[j] = 0.0;
                    }
                }
                for p in 0..self.corr_pairs.len() {
                    self.w_corr[p] = (self.w_corr[p]
                        + lr * (g_corr[p] / bs - cfg.l2 * self.w_corr[p]))
                        .clamp(-W_CLAMP, W_CLAMP);
                }
            }
            lr *= cfg.lr_decay;
        }

        FitReport {
            epochs: cfg.cd_epochs,
            final_nll: f64::NAN,
            used_gibbs: true,
            warm_started: false,
        }
    }

    /// Sample `Λ'_j` from its conditional given the class and the other
    /// chain entries.
    fn sample_vote(&self, rng: &mut StdRng, j: usize, y_class: usize, chain: &[Vote]) -> Vote {
        let k = self.scheme.num_classes();
        // Candidate values: abstain + each class vote.
        let mut weights = Vec::with_capacity(k + 1);
        let mut values = Vec::with_capacity(k + 1);
        for cand_class in std::iter::once(None).chain((0..k).map(Some)) {
            let v = cand_class.map_or(0, |c| self.scheme.vote_of_class(c));
            let mut s = 0.0;
            if v != 0 {
                s += self.w_lab[j];
                if cand_class == Some(y_class) {
                    s += self.w_acc[j];
                }
            }
            for &(pair_idx, other) in &self.corr_adj[j] {
                if v != 0 && v == chain[other] {
                    s += self.w_corr[pair_idx];
                }
            }
            values.push(v);
            weights.push(s);
        }
        softmax_in_place(&mut weights);
        values[sample_categorical(rng, &weights)]
    }
}

/// Draw an index from a normalized categorical distribution.
fn sample_categorical(rng: &mut StdRng, probs: &[f64]) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}
