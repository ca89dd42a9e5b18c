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
    ///
    /// Every buffer is built before the first epoch and reused, so an
    /// epoch allocates nothing. Within a minibatch the weights are
    /// constant, which makes each Gibbs conditional a pure function of
    /// `(j, y', Λ'_{N(j)})`: [`GibbsConditionals`] memoizes them per
    /// minibatch. The chain's non-abstain columns are kept as a sorted
    /// list beside the dense chain, so every score and gradient pass
    /// walks the (few) votes in the same ascending-`j` order the dense
    /// scan used — the float operations, their order and the RNG draw
    /// sequence are those of the row-by-row loop this replaces (kept as
    /// the `#[cfg(test)]` reference below), so the result is
    /// bit-identical.
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
        let batch_size = if cfg.batch_size == 0 {
            m.max(1)
        } else {
            cfg.batch_size
        };

        let mut g_lab = vec![0.0f64; self.n];
        let mut g_acc = vec![0.0f64; self.n];
        let mut g_corr = vec![0.0f64; self.corr_pairs.len()];
        let mut post = vec![0.0f64; k];
        let mut scores = vec![0.0f64; k];
        // The Gibbs chain: dense votes plus its non-abstain columns,
        // ascending. `chain` is all-abstain between rows.
        let mut chain = vec![0 as Vote; self.n];
        let mut live: Vec<usize> = Vec::with_capacity(self.n);
        let mut next_live: Vec<usize> = Vec::with_capacity(self.n);
        let mut conditionals = GibbsConditionals::new(self);

        for _epoch in 0..cfg.cd_epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(batch_size) {
                let bs = batch.len() as f64;
                g_lab.fill(0.0);
                g_acc.fill(0.0);
                g_corr.fill(0.0);
                conditionals.weights_changed();

                for &i in batch {
                    let (cols, votes) = lambda.row(i);

                    // Posterior phase (exact).
                    self.posterior_into(cols, votes, &mut post);
                    for (&c, &v) in cols.iter().zip(votes) {
                        let j = c as usize;
                        g_lab[j] += 1.0;
                        if let Some(class) = self.scheme.class_of_vote(v) {
                            g_acc[j] += post[class];
                        }
                    }

                    // Observed correlation agreements (vote agreement
                    // only — see the module docs on the factor).
                    live.clear();
                    for (&c, &v) in cols.iter().zip(votes) {
                        if v != 0 {
                            chain[c as usize] = v;
                            live.push(c as usize);
                        }
                    }
                    self.for_each_agreeing_pair(&chain, &live, |p| g_corr[p] += 1.0);

                    // Model phase: CD-k Gibbs chain from the observed row.
                    for _sweep in 0..cfg.gibbs_steps {
                        // Sample y' | Λ'.
                        let y_class = self.sample_class(&mut rng, &chain, &live, &mut scores);
                        // Sample each Λ'_j | y', Λ'_{-j}.
                        next_live.clear();
                        for j in 0..self.n {
                            let v = conditionals.sample(self, &mut rng, j, y_class, &chain);
                            chain[j] = v;
                            if v != 0 {
                                next_live.push(j);
                            }
                        }
                        std::mem::swap(&mut live, &mut next_live);
                    }

                    // Subtract model-phase statistics. The accuracy
                    // factor needs y': resample once more for an
                    // unbiased-ish pairing of (Λ', y').
                    for &j in &live {
                        g_lab[j] -= 1.0;
                    }
                    let y_final = self.sample_class(&mut rng, &chain, &live, &mut scores);
                    for &j in &live {
                        if self.scheme.class_of_vote(chain[j]) == Some(y_final) {
                            g_acc[j] -= 1.0;
                        }
                    }
                    self.for_each_agreeing_pair(&chain, &live, |p| g_corr[p] -= 1.0);
                    for &j in &live {
                        chain[j] = 0;
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

    /// Draw `y' | Λ'` for a chain whose non-abstain columns are `live`
    /// (ascending, so `scores` accumulates in dense-scan order).
    fn sample_class(
        &self,
        rng: &mut StdRng,
        chain: &[Vote],
        live: &[usize],
        scores: &mut [f64],
    ) -> usize {
        scores.copy_from_slice(&self.b_class);
        for &j in live {
            if let Some(class) = self.scheme.class_of_vote(chain[j]) {
                scores[class] += self.w_acc[j];
            }
        }
        softmax_in_place(scores);
        sample_categorical(rng, scores)
    }

    /// Call `f(pair_index)` once for every correlation pair whose two
    /// LFs cast the same vote in `chain`, found from the adjacency of
    /// the voting columns (`live`) instead of a scan of all pairs. Pairs
    /// are stored `(min, max)`; only the `min` side reports.
    fn for_each_agreeing_pair(&self, chain: &[Vote], live: &[usize], mut f: impl FnMut(usize)) {
        for &a in live {
            for &(pair_idx, b) in &self.corr_adj[a] {
                if a < b && chain[a] == chain[b] {
                    f(pair_idx);
                }
            }
        }
    }

    /// The conditional of `Λ'_j` over its candidate values (abstain, then
    /// one vote per class) given the class and the neighbours' chain
    /// entries, written to `out`. One pass over the adjacency: each
    /// candidate's log-weight receives `w_lab`, then `w_acc`, then its
    /// agreeing `w_corr` terms in adjacency order, then all are
    /// softmaxed.
    fn gibbs_conditional_into(
        &self,
        j: usize,
        y_class: usize,
        chain: &[Vote],
        candidate_of_vote: &[u8; 256],
        out: &mut [f64],
    ) {
        out[0] = 0.0;
        for (class, s) in out[1..].iter_mut().enumerate() {
            *s = 0.0;
            *s += self.w_lab[j];
            if class == y_class {
                *s += self.w_acc[j];
            }
        }
        for &(pair_idx, other) in &self.corr_adj[j] {
            let candidate = candidate_of_vote[chain[other] as u8 as usize];
            if candidate != 0 {
                out[candidate as usize] += self.w_corr[pair_idx];
            }
        }
        softmax_in_place(out);
    }
}

/// Largest neighbour-configuration count `(K+1)^deg` for which an LF's
/// Gibbs conditionals are memoized; an LF above it (a correlation hub)
/// recomputes its conditional on every draw.
const MEMO_MAX_CONFIGS: usize = 243;

/// The Gibbs conditionals `p(Λ'_j | y', Λ'_{N(j)})` of one fit, memoized
/// while the weights stand still.
///
/// Each LF under [`MEMO_MAX_CONFIGS`] owns a table with one slot per
/// `(neighbour configuration in base K+1, y')`. A slot is filled the
/// first time a draw needs it and is valid for the current minibatch
/// only: [`Self::weights_changed`] bumps a generation stamp instead of
/// clearing anything. A filled slot holds exactly what
/// [`GenerativeModel::gibbs_conditional_into`] computes, so a hit and a
/// miss hand the sampler the same bits.
struct GibbsConditionals {
    /// Candidate values of one chain entry: abstain, then each class's
    /// vote.
    candidates: Vec<Vote>,
    /// Index into `candidates` of every vote byte; 0 (abstain) for a
    /// value no candidate takes, which agrees with no candidate either.
    candidate_of_vote: [u8; 256],
    /// Per LF: its first slot, or `None` above the cap.
    first_slot: Vec<Option<usize>>,
    /// Per slot: the generation that filled it.
    filled_at: Vec<u64>,
    /// Per slot: `candidates.len()` probabilities.
    probs: Vec<f64>,
    generation: u64,
    /// Conditional of an LF above the cap, recomputed per draw.
    uncached: Vec<f64>,
}

impl GibbsConditionals {
    fn new(model: &GenerativeModel) -> Self {
        let k = model.scheme.num_classes();
        let candidates: Vec<Vote> = std::iter::once(0)
            .chain((0..k).map(|c| model.scheme.vote_of_class(c)))
            .collect();
        let mut candidate_of_vote = [0u8; 256];
        for (idx, &v) in candidates.iter().enumerate().skip(1) {
            candidate_of_vote[v as u8 as usize] = idx as u8;
        }
        let mut slots = 0usize;
        let first_slot = model
            .corr_adj
            .iter()
            .map(|adj| {
                let configs = adj.iter().try_fold(1usize, |configs, _| {
                    Some(configs * candidates.len()).filter(|&c| c <= MEMO_MAX_CONFIGS)
                })?;
                let first = slots;
                slots += configs * k;
                Some(first)
            })
            .collect();
        GibbsConditionals {
            uncached: vec![0.0; candidates.len()],
            probs: vec![0.0; slots * candidates.len()],
            filled_at: vec![0; slots],
            generation: 0,
            first_slot,
            candidate_of_vote,
            candidates,
        }
    }

    /// The model's weights moved (a minibatch step): forget every slot.
    fn weights_changed(&mut self) {
        self.generation += 1;
    }

    /// Sample `Λ'_j` from its conditional given the class and the other
    /// chain entries — one `rng` draw.
    fn sample(
        &mut self,
        model: &GenerativeModel,
        rng: &mut StdRng,
        j: usize,
        y_class: usize,
        chain: &[Vote],
    ) -> Vote {
        let nv = self.candidates.len();
        let k = nv - 1;
        let probs = match self.first_slot[j] {
            Some(first) => {
                let mut config = 0usize;
                let mut place = 1usize;
                for &(_, other) in &model.corr_adj[j] {
                    config += place * self.candidate_of_vote[chain[other] as u8 as usize] as usize;
                    place *= nv;
                }
                let slot = first + config * k + y_class;
                let probs = &mut self.probs[slot * nv..(slot + 1) * nv];
                if self.filled_at[slot] != self.generation {
                    model.gibbs_conditional_into(j, y_class, chain, &self.candidate_of_vote, probs);
                    self.filled_at[slot] = self.generation;
                }
                &*probs
            }
            None => {
                model.gibbs_conditional_into(
                    j,
                    y_class,
                    chain,
                    &self.candidate_of_vote,
                    &mut self.uncached,
                );
                &self.uncached
            }
        };
        self.candidates[sample_categorical(rng, probs)]
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

#[cfg(test)]
mod tests {
    //! The trainer against the loop it replaced: same seed, same bits.

    use proptest::prelude::*;
    use snorkel_matrix::LabelMatrixBuilder;

    use super::*;
    use crate::model::{LabelScheme, ModelParams};

    // The row-by-row loop and allocating sampler of the parent commit,
    // kept as the definition of what the memoized trainer must compute.
    impl GenerativeModel {
        /// The parent commit's CD epoch loop, body verbatim.
        fn reference_cd_from_current(
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
                        self.w_lab[j] = (self.w_lab[j]
                            + lr * (g_lab[j] / bs - cfg.l2 * self.w_lab[j]))
                            .clamp(-W_CLAMP, W_CLAMP);
                        self.w_acc[j] = (self.w_acc[j]
                            + lr * (g_acc[j] / bs - cfg.l2 * self.w_acc[j]))
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

    /// LF 0 is a hub paired with LFs `1..=6` (3^6 configurations, over
    /// the memo cap at every cardinality), the last LF has no pair, and
    /// `extra` adds low-degree pairs among the rest, in arbitrary order.
    fn hub_pairs(n: usize, extra: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = (1..=6).rev().map(|b| (b, 0)).collect();
        for &(a, b) in extra {
            let (a, b) = (1 + a % (n - 2), 1 + b % (n - 2));
            if a != b {
                pairs.insert(pairs.len() / 2, (a, b));
            }
        }
        pairs
    }

    fn random_matrix(m: usize, n: usize, cardinality: u8, density: f64, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = LabelMatrixBuilder::with_cardinality(m, n, cardinality);
        let scheme = LabelScheme::from_cardinality(cardinality);
        for i in 0..m {
            for j in 0..n {
                if rng.gen::<f64>() < density {
                    let class = rng.gen_range(0..cardinality as usize);
                    b.set(i, j, scheme.vote_of_class(class));
                }
            }
        }
        b.build()
    }

    fn bits(p: &ModelParams) -> Vec<u64> {
        [&p.w_lab, &p.w_acc, &p.w_corr, &p.corr_strength, &p.b_class]
            .into_iter()
            .flatten()
            .map(|w| w.to_bits())
            .collect()
    }

    /// The state a fit enters the epoch loop with is what a fit with no
    /// epochs leaves behind; the reference loop runs from there.
    fn reference_after(
        enter: impl Fn(&mut GenerativeModel, &TrainConfig),
        model: &GenerativeModel,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> ModelParams {
        let mut reference = model.clone();
        enter(
            &mut reference,
            &TrainConfig {
                cd_epochs: 0,
                ..cfg.clone()
            },
        );
        reference.reference_cd_from_current(lambda, cfg);
        reference.to_params()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cold_and_warm_fits_match_the_reference_loop(
            m in 1usize..48,
            n in 8usize..11,
            cardinality in 2u8..5,
            density in 0.05f64..0.6,
            extra in prop::collection::vec((0usize..16, 0usize..16), 0..6),
            gibbs_steps in 0usize..4,
            batch_choice in 0usize..4,
            clamp in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let lambda = random_matrix(m, n, cardinality, density, seed);
            let edited = random_matrix(m, n, cardinality, density, seed ^ 0x5eed);
            let cfg = TrainConfig {
                cd_epochs: 3,
                gibbs_steps,
                batch_size: [1, 7, 64, m][batch_choice],
                clamp_nonadversarial: clamp == 1,
                seed,
                ..TrainConfig::default()
            };
            let strengths: Vec<f64> = (0..).map(|p| 0.3 + 0.4 * p as f64).take(6 + extra.len()).collect();
            let pairs = hub_pairs(n, &extra);
            let unfitted = GenerativeModel::new(n, LabelScheme::from_cardinality(cardinality))
                .with_weighted_correlations(&pairs, &strengths[..pairs.len()]);
            prop_assert!(unfitted.corr_adj[n - 1].is_empty());

            let mut cold = unfitted.clone();
            cold.fit(&lambda, &cfg);
            let want = reference_after(|gm, c| { gm.fit(&lambda, c); }, &unfitted, &lambda, &cfg);
            prop_assert_eq!(bits(&cold.to_params()), bits(&want));

            let mut warm = unfitted.clone();
            warm.fit_warm(&edited, &cfg, &cold, &[n - 2]);
            let want = reference_after(
                |gm, c| { gm.fit_warm(&edited, c, &cold, &[n - 2]); },
                &unfitted,
                &edited,
                &cfg,
            );
            prop_assert_eq!(bits(&warm.to_params()), bits(&want));
        }
    }

    #[test]
    fn batch_size_zero_is_one_full_batch_step_per_epoch() {
        let lambda = random_matrix(40, 9, 2, 0.4, 7);
        let unfitted =
            GenerativeModel::new(9, LabelScheme::Binary).with_correlations(&hub_pairs(9, &[]));
        let fit = |batch_size: usize| {
            let mut gm = unfitted.clone();
            gm.fit(
                &lambda,
                &TrainConfig {
                    cd_epochs: 4,
                    batch_size,
                    ..TrainConfig::default()
                },
            );
            bits(&gm.to_params())
        };
        assert_eq!(fit(0), fit(40));
    }

    /// The params test cannot see a last-bit change in a conditional (it
    /// would have to flip a draw), so the probabilities themselves are
    /// pinned to the reference's accumulation order here.
    #[test]
    fn conditionals_have_the_reference_bits() {
        let mut rng = StdRng::seed_from_u64(11);
        for cardinality in 2u8..5 {
            let scheme = LabelScheme::from_cardinality(cardinality);
            let k = scheme.num_classes();
            let n = 10;
            let mut model = GenerativeModel::new(n, scheme)
                .with_correlations(&hub_pairs(n, &[(0, 1), (1, 2), (0, 2), (3, 4)]));
            for w in model
                .w_lab
                .iter_mut()
                .chain(&mut model.w_acc)
                .chain(&mut model.w_corr)
            {
                // Thirds: off the RNG's dyadic grid, where sums are exact
                // in any order.
                *w = rng.gen_range(-2.0..2.0) / 3.0;
            }
            let conditionals = GibbsConditionals::new(&model);
            let mut got = vec![0.0; k + 1];
            for _ in 0..200 {
                let chain: Vec<Vote> = (0..n)
                    .map(|_| match rng.gen_range(0..2 * k) {
                        c if c < k => scheme.vote_of_class(c),
                        _ => 0,
                    })
                    .collect();
                for j in 0..n {
                    for y_class in 0..k {
                        // `sample_vote`'s weights, before its draw.
                        let mut want = vec![0.0];
                        for class in 0..k {
                            let v = scheme.vote_of_class(class);
                            let mut s = 0.0;
                            s += model.w_lab[j];
                            if class == y_class {
                                s += model.w_acc[j];
                            }
                            for &(pair_idx, other) in &model.corr_adj[j] {
                                if v == chain[other] {
                                    s += model.w_corr[pair_idx];
                                }
                            }
                            want.push(s);
                        }
                        softmax_in_place(&mut want);
                        model.gibbs_conditional_into(
                            j,
                            y_class,
                            &chain,
                            &conditionals.candidate_of_vote,
                            &mut got,
                        );
                        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "LF {j}, class {y_class}");
                    }
                }
            }
        }
    }
}
