//! Contrastive-divergence training of the correlated generative model
//! (`C ≠ ∅`): SGD whose model phase is estimated by Gibbs chains seeded
//! at observed rows — "interleaving stochastic gradient descent steps
//! with Gibbs sampling ones" (paper §2.2). Entered from
//! [`GenerativeModel`]'s cold and warm fits whenever correlation pairs
//! are modeled; the independent model never comes here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

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
    /// set (the warm-start path enters here directly), on every core.
    pub(super) fn fit_correlated_cd_from_current(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        self.fit_correlated_cd_on(lambda, cfg, crate::available_cores())
    }

    /// [`Self::fit_correlated_cd_from_current`] on at most `workers`
    /// threads, the calling thread among them, with the run boundaries
    /// of each minibatch following the finish order ([`Balance`]).
    pub(crate) fn fit_correlated_cd_on(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        workers: usize,
    ) -> FitReport {
        self.fit_correlated_cd_split(lambda, cfg, workers, &mut Balance::new(workers))
    }

    /// The CD epoch loop on at most `workers` threads, the calling
    /// thread among them, each minibatch split where `split` says.
    ///
    /// Every buffer is built before the first epoch and reused, so an
    /// epoch allocates nothing. Within a minibatch the weights are
    /// constant, so a row's statistics depend only on the weights, the
    /// row and the row's RNG draws: each minibatch is split into
    /// contiguous runs, one per worker, and [`Self::cd_run`] computes
    /// each. The merge redoes the single-threaded loop's arithmetic for
    /// any boundaries:
    /// - every row makes exactly `gibbs_steps·(n+1)+1` draws, so a
    ///   helper starts from the batch-start stream advanced past the
    ///   rows before its run, and the fit's stream leaves the batch in
    ///   the last run's end state;
    /// - `g_lab` and `g_corr` receive only ±1.0, so their per-run
    ///   partials are exact integers and sum to the same bits in any
    ///   order;
    /// - `g_acc` also receives posteriors, so each helper logs its
    ///   terms in row order and the caller, whose run comes first,
    ///   replays the logs run by run.
    ///
    /// The float operations, their order and the RNG draw sequence are
    /// those of the row-by-row loop this replaces (kept as the
    /// `#[cfg(test)]` reference below), so the result is bit-identical
    /// for every worker count and split.
    pub(crate) fn fit_correlated_cd_split(
        &mut self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        workers: usize,
        split: &mut impl Split,
    ) -> FitReport {
        let m = lambda.num_points();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..m).collect();
        let mut lr = cfg.cd_learning_rate;
        let batch_size = if cfg.batch_size == 0 {
            m.max(1)
        } else {
            cfg.batch_size
        };
        // A worker beyond the rows of a full batch would have nothing to do.
        let workers = workers.clamp(1, batch_size.min(m).max(1));
        let draws_per_row = cfg.gibbs_steps * (self.n + 1) + 1;

        let mut g_lab = vec![0.0f64; self.n];
        let mut g_acc = vec![0.0f64; self.n];
        let mut g_corr = vec![0.0f64; self.corr_pairs.len()];
        let mut scratch = CdScratch::new(self);
        let mut starts = vec![0usize; workers + 1];
        // A split may hand any run the whole batch.
        let run_cap = batch_size.min(m);
        let helpers: Vec<Helper> = (1..workers).map(|_| Helper::new(self, run_cap)).collect();
        // Each worker takes a number when its run ends, for `split`.
        // `Relaxed`: the numbers publish nothing; a helper's travels in
        // its job, under the handoff's Release/Acquire.
        let finish_order = AtomicU64::new(0);
        let caller = thread::current();

        thread::scope(|scope| {
            let mut crew = Crew {
                threads: helpers
                    .iter()
                    .map(|helper| {
                        let caller = caller.clone();
                        let finish_order = &finish_order;
                        let spawned =
                            scope.spawn(move || helper.serve(lambda, cfg, finish_order, &caller));
                        spawned.thread().clone()
                    })
                    .collect(),
                helpers: &helpers,
                generation: 0,
            };
            for _epoch in 0..cfg.cd_epochs {
                order.shuffle(&mut rng);
                for batch in order.chunks(batch_size) {
                    let bs = batch.len() as f64;
                    g_lab.fill(0.0);
                    g_acc.fill(0.0);
                    g_corr.fill(0.0);

                    let runs = batch.len().min(workers);
                    let starts = &mut starts[..=runs];
                    split.starts(batch.len(), starts);
                    crew.generation += 1;
                    for r in 1..runs {
                        crew.post(r - 1, |job| {
                            job.model.w_lab.copy_from_slice(&self.w_lab);
                            job.model.w_acc.copy_from_slice(&self.w_acc);
                            job.model.w_corr.copy_from_slice(&self.w_corr);
                            job.rows.clear();
                            job.rows.extend_from_slice(&batch[starts[r]..starts[r + 1]]);
                            job.rng.clone_from(&rng);
                            job.skip = starts[r] * draws_per_row;
                        });
                    }
                    self.cd_run(
                        lambda,
                        &batch[..starts[1]],
                        cfg.gibbs_steps,
                        &mut rng,
                        &mut scratch,
                        &mut g_lab,
                        &mut g_corr,
                        |j, term| g_acc[j] += term,
                    );
                    let finished_as = finish_order.fetch_add(1, Ordering::Relaxed);
                    let (mut first, mut last) = ((finished_as, 0), (finished_as, 0));
                    for r in 1..runs {
                        let job = crew.collect(r - 1);
                        for (g, &part) in g_lab.iter_mut().zip(&job.g_lab) {
                            *g += part;
                        }
                        for (g, &part) in g_corr.iter_mut().zip(&job.g_corr) {
                            *g += part;
                        }
                        for &(j, term) in &job.acc_log {
                            g_acc[j] += term;
                        }
                        if r == runs - 1 {
                            rng.clone_from(&job.rng);
                        }
                        first = first.min((job.finished_as, r));
                        last = last.max((job.finished_as, r));
                    }
                    split.finished(first.1, last.1);

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
        });

        FitReport {
            epochs: cfg.cd_epochs,
            final_nll: f64::NAN,
            used_gibbs: true,
            warm_started: false,
        }
    }

    /// One worker's share of a minibatch: add the CD statistics of
    /// `rows` (posterior phase minus model phase) to `g_lab` and
    /// `g_corr`, and hand each `g_acc` term to `add_acc` in the order
    /// the row-by-row loop adds it. `rng` advances by exactly
    /// `gibbs_steps·(n+1)+1` draws per row.
    ///
    /// Each conditional is memoized while the weights stand still
    /// ([`GibbsConditionals`]), and the chain's non-abstain columns are
    /// kept as a sorted list beside the dense chain, so every score and
    /// gradient pass walks the (few) votes in the ascending-`j` order
    /// of a dense scan.
    #[allow(clippy::too_many_arguments)]
    fn cd_run(
        &self,
        lambda: &LabelMatrix,
        rows: &[usize],
        gibbs_steps: usize,
        rng: &mut StdRng,
        scratch: &mut CdScratch,
        g_lab: &mut [f64],
        g_corr: &mut [f64],
        mut add_acc: impl FnMut(usize, f64),
    ) {
        let CdScratch {
            post,
            scores,
            chain,
            live,
            next_live,
            conditionals,
        } = scratch;
        conditionals.weights_changed();
        for &i in rows {
            let (cols, votes) = lambda.row(i);

            // Posterior phase (exact).
            self.posterior_into(cols, votes, post);
            for (&c, &v) in cols.iter().zip(votes) {
                let j = c as usize;
                g_lab[j] += 1.0;
                if let Some(class) = self.scheme.class_of_vote(v) {
                    add_acc(j, post[class]);
                }
            }

            // Observed correlation agreements (vote agreement only — see
            // the module docs on the factor).
            live.clear();
            for (&c, &v) in cols.iter().zip(votes) {
                if v != 0 {
                    conditionals.set(chain, c as usize, v);
                    live.push(c as usize);
                }
            }
            self.for_each_agreeing_pair(chain, live, |p| g_corr[p] += 1.0);

            // Model phase: CD-k Gibbs chain from the observed row.
            for _sweep in 0..gibbs_steps {
                // Sample y' | Λ'.
                let y_class = self.sample_class(rng, chain, live, scores);
                // Sample each Λ'_j | y', Λ'_{-j}.
                next_live.clear();
                for j in 0..self.n {
                    let v = conditionals.sample(self, rng, j, y_class, chain);
                    conditionals.set(chain, j, v);
                    if v != 0 {
                        next_live.push(j);
                    }
                }
                std::mem::swap(live, next_live);
            }

            // Subtract model-phase statistics. The accuracy factor needs
            // y': resample once more for an unbiased-ish pairing of
            // (Λ', y').
            for &j in live.iter() {
                g_lab[j] -= 1.0;
            }
            let y_final = self.sample_class(rng, chain, live, scores);
            for &j in live.iter() {
                if self.scheme.class_of_vote(chain[j]) == Some(y_final) {
                    add_acc(j, -1.0);
                }
            }
            self.for_each_agreeing_pair(chain, live, |p| g_corr[p] -= 1.0);
            conditionals.clear(chain, live);
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

/// The Gibbs conditionals `p(Λ'_j | y', Λ'_{N(j)})` of one worker of a
/// fit, memoized while the weights stand still.
///
/// Each LF under [`MEMO_MAX_CONFIGS`] owns a table with one slot per
/// `(neighbour configuration, y')`, where the configuration is its
/// neighbours' chain entries as a number in base `K+1` (digit `t` for
/// its `t`-th adjacency entry: 0 abstain, `c+1` class `c`'s vote). The
/// configuration is kept current as the chain changes ([`Self::set`],
/// [`Self::clear`]) rather than rebuilt from the adjacency on every
/// draw. A slot is filled the first time a draw needs it and is valid
/// for the current minibatch only: [`Self::weights_changed`] bumps a
/// generation stamp instead of clearing anything. A filled slot holds
/// exactly what [`GenerativeModel::gibbs_conditional_into`] computes,
/// so a hit and a miss hand the sampler the same bits.
struct GibbsConditionals {
    /// Candidate values of one chain entry: abstain, then each class's
    /// vote.
    candidates: Vec<Vote>,
    /// Index into `candidates` of every vote byte; 0 (abstain) for a
    /// value no candidate takes, which agrees with no candidate either.
    candidate_of_vote: [u8; 256],
    /// Per LF: its first slot, or `None` above the cap.
    first_slot: Vec<Option<usize>>,
    /// Per LF with a table: its neighbour configuration.
    config: Vec<usize>,
    /// Per LF `o`: `(j, (K+1)^t)` for every LF `j` with a table whose
    /// `t`-th neighbour is `o`.
    watchers: Vec<Vec<(usize, usize)>>,
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
        let first_slot: Vec<Option<usize>> = model
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
        let mut watchers = vec![Vec::new(); model.n];
        for (j, adj) in model.corr_adj.iter().enumerate() {
            if first_slot[j].is_some() {
                let mut place = 1;
                for &(_, other) in adj {
                    watchers[other].push((j, place));
                    place *= candidates.len();
                }
            }
        }
        GibbsConditionals {
            uncached: vec![0.0; candidates.len()],
            probs: vec![0.0; slots * candidates.len()],
            filled_at: vec![0; slots],
            generation: 0,
            config: vec![0; model.n],
            watchers,
            first_slot,
            candidate_of_vote,
            candidates,
        }
    }

    /// The model's weights moved (a minibatch step): forget every slot.
    fn weights_changed(&mut self) {
        self.generation += 1;
    }

    /// Set `chain[j] = v`, keeping the configurations of `j`'s
    /// neighbours current.
    fn set(&mut self, chain: &mut [Vote], j: usize, v: Vote) {
        let (was, now) = (
            self.candidate_of_vote[chain[j] as u8 as usize],
            self.candidate_of_vote[v as u8 as usize],
        );
        chain[j] = v;
        if was != now {
            // Exact: the wrapped sum is the configuration, which is
            // under MEMO_MAX_CONFIGS.
            let delta = usize::from(now).wrapping_sub(usize::from(was));
            for &(watcher, place) in &self.watchers[j] {
                self.config[watcher] = self.config[watcher].wrapping_add(place.wrapping_mul(delta));
            }
        }
    }

    /// Abstain at every `live` entry of `chain` (its only non-abstain
    /// ones), leaving every configuration 0.
    fn clear(&mut self, chain: &mut [Vote], live: &[usize]) {
        for &j in live {
            chain[j] = 0;
        }
        self.config.fill(0);
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
        let probs = match self.first_slot[j] {
            Some(first) => {
                let slot = first + self.config[j] * (nv - 1) + y_class;
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

/// One worker's buffers for [`GenerativeModel::cd_run`], built before
/// the first epoch.
struct CdScratch {
    post: Vec<f64>,
    scores: Vec<f64>,
    /// The Gibbs chain: dense votes plus its non-abstain columns,
    /// ascending. `chain` is all-abstain between rows.
    chain: Vec<Vote>,
    live: Vec<usize>,
    next_live: Vec<usize>,
    conditionals: GibbsConditionals,
}

impl CdScratch {
    fn new(model: &GenerativeModel) -> Self {
        let k = model.scheme.num_classes();
        CdScratch {
            post: vec![0.0; k],
            scores: vec![0.0; k],
            chain: vec![0; model.n],
            live: Vec::with_capacity(model.n),
            next_live: Vec::with_capacity(model.n),
            conditionals: GibbsConditionals::new(model),
        }
    }
}

/// Where each minibatch's runs start, and what the finish order of a
/// batch's runs does to later ones. Every split of a batch into
/// contiguous runs gives the same bits, so a split moves only time.
pub(crate) trait Split {
    /// Fill `starts` for a batch of `len` rows: one entry per run and a
    /// last one, `starts[0] == 0`, nondecreasing, ending at `len`.
    fn starts(&mut self, len: usize, starts: &mut [usize]);

    /// Run `first` of the batch just merged finished first, run `last`
    /// last.
    fn finished(&mut self, first: usize, last: usize);
}

/// The fit's split: a full batch starts evenly split, then each batch
/// moves one row from the run that finished last to the run that
/// finished first, so the boundaries follow whichever cores are fast
/// right now; a shorter batch (an epoch's last) is split evenly.
struct Balance {
    /// Rows per run of a full batch: `workers` entries once the first
    /// batch, always a full one, has set them.
    lens: Vec<usize>,
    full: usize,
}

impl Balance {
    fn new(workers: usize) -> Self {
        Balance {
            lens: Vec::with_capacity(workers),
            full: 0,
        }
    }
}

impl Split for Balance {
    fn starts(&mut self, len: usize, starts: &mut [usize]) {
        let runs = starts.len() - 1;
        if self.lens.is_empty() {
            self.full = len;
            self.lens
                .extend((0..runs).map(|r| (r + 1) * len / runs - r * len / runs));
        }
        if len == self.full && runs == self.lens.len() {
            starts[0] = 0;
            for r in 0..runs {
                starts[r + 1] = starts[r] + self.lens[r];
            }
        } else {
            for (r, start) in starts.iter_mut().enumerate() {
                *start = r * len / runs;
            }
        }
    }

    fn finished(&mut self, first: usize, last: usize) {
        if first != last && self.lens[last] > 1 {
            self.lens[last] -= 1;
            self.lens[first] += 1;
        }
    }
}

/// [`Helper::posted`] value that ends the helper.
const STOP: u64 = u64::MAX;

/// Spin iterations before a waiting thread parks: about 100 µs on a
/// 2.1 GHz Xeon (4 096 rounds of an `Acquire` load and a `spin_loop`
/// hint measured 98–113 µs), over half of the dev loop's 160–210 µs
/// minibatch, so the next handoff usually lands while the waiter still
/// spins and costs no wake-up.
const SPINS: u32 = 1 << 12;

/// What the calling thread of a CD fit shares with one helper thread:
/// a mailbox for the helper's run and its results, and the two
/// generation counters of the handoff. The mutex is never contended:
/// each side touches the job only while the other waits on a counter.
/// Each counter is stored with `Release` after the storing side has
/// released the job and loaded with `Acquire` before the other side
/// locks it.
struct Helper {
    job: Mutex<Job>,
    /// Generation of the last posted run; [`STOP`] ends the helper.
    posted: OwnLine,
    /// Generation of the last finished run.
    finished: OwnLine,
}

/// A counter on a cache line of its own: the thread spinning on it
/// would otherwise stall the thread writing the job beside it.
#[repr(align(128))]
struct OwnLine(AtomicU64);

/// One helper's run of a minibatch, and what it computed.
struct Job {
    /// The model with the batch's weights.
    model: GenerativeModel,
    rows: Vec<usize>,
    /// The batch-start stream when posted; the run's end state after.
    rng: StdRng,
    /// Draws made by the rows before this run.
    skip: usize,
    /// The fit's finish count when this run finished.
    finished_as: u64,
    g_lab: Vec<f64>,
    g_corr: Vec<f64>,
    /// `(j, term)` of every `g_acc` add, in row order.
    acc_log: Vec<(usize, f64)>,
}

impl Helper {
    /// A helper for runs of at most `run_cap` rows: every buffer is
    /// sized here, so a run allocates nothing (a row logs at most one
    /// `g_acc` term per LF in each phase).
    fn new(model: &GenerativeModel, run_cap: usize) -> Self {
        Helper {
            job: Mutex::new(Job {
                model: model.clone(),
                rows: Vec::with_capacity(run_cap),
                rng: StdRng::seed_from_u64(0),
                skip: 0,
                finished_as: 0,
                g_lab: vec![0.0; model.n],
                g_corr: vec![0.0; model.corr_pairs.len()],
                acc_log: Vec::with_capacity(run_cap * 2 * model.n),
            }),
            posted: OwnLine(AtomicU64::new(0)),
            finished: OwnLine(AtomicU64::new(0)),
        }
    }

    /// The helper thread's loop: run each posted job, take a number
    /// from `finish_order`, then wake the caller, until [`STOP`].
    fn serve(
        &self,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        finish_order: &AtomicU64,
        caller: &Thread,
    ) {
        let mut scratch = CdScratch::new(&self.job.lock().expect("CD fit panicked").model);
        let mut seen = 0;
        loop {
            wait_until(|| self.posted.0.load(Ordering::Acquire) != seen);
            seen = self.posted.0.load(Ordering::Acquire);
            if seen == STOP {
                return;
            }
            // Marks the run finished even if it panics, so the caller
            // wakes up and finds the mutex poisoned.
            let _finish = Finish {
                helper: self,
                generation: seen,
                caller,
            };
            let mut guard = self.job.lock().expect("CD fit panicked");
            let job = &mut *guard;
            for _ in 0..job.skip {
                job.rng.next_u64();
            }
            job.g_lab.fill(0.0);
            job.g_corr.fill(0.0);
            job.acc_log.clear();
            job.model.cd_run(
                lambda,
                &job.rows,
                cfg.gibbs_steps,
                &mut job.rng,
                &mut scratch,
                &mut job.g_lab,
                &mut job.g_corr,
                |j, term| job.acc_log.push((j, term)),
            );
            job.finished_as = finish_order.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Publishes a helper's finished run and wakes the caller when dropped.
struct Finish<'a> {
    helper: &'a Helper,
    generation: u64,
    caller: &'a Thread,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.helper
            .finished
            .0
            .store(self.generation, Ordering::Release);
        self.caller.unpark();
    }
}

/// The calling thread's side of a fit's helpers. Dropping it, at the end
/// of the fit or while the caller unwinds, stops every helper, so the
/// enclosing scope can join them.
struct Crew<'a> {
    helpers: &'a [Helper],
    threads: Vec<Thread>,
    /// The current minibatch's generation.
    generation: u64,
}

impl Crew<'_> {
    /// Fill helper `h`'s job and start it.
    fn post(&self, h: usize, fill: impl FnOnce(&mut Job)) {
        fill(&mut self.helpers[h].job.lock().expect("CD helper panicked"));
        self.helpers[h]
            .posted
            .0
            .store(self.generation, Ordering::Release);
        self.threads[h].unpark();
    }

    /// Wait for helper `h` to finish the current run, and lend out its
    /// job.
    fn collect(&self, h: usize) -> MutexGuard<'_, Job> {
        let helper = &self.helpers[h];
        wait_until(|| helper.finished.0.load(Ordering::Acquire) == self.generation);
        helper.job.lock().expect("CD helper panicked")
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        for (helper, thread) in self.helpers.iter().zip(&self.threads) {
            helper.posted.0.store(STOP, Ordering::Release);
            thread.unpark();
        }
    }
}

/// Spin briefly, then park, until `ready` holds; the thread that makes
/// it hold unparks this one.
fn wait_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    while !ready() {
        thread::park();
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
    /// epochs leaves behind.
    fn entered(
        enter: impl Fn(&mut GenerativeModel, &TrainConfig),
        model: &GenerativeModel,
        cfg: &TrainConfig,
    ) -> GenerativeModel {
        let mut entered = model.clone();
        enter(
            &mut entered,
            &TrainConfig {
                cd_epochs: 0,
                ..cfg.clone()
            },
        );
        entered
    }

    /// The reference loop, run from where `enter`'s fit enters its own.
    /// It has no `batch_size` 0, so it gets one batch of every row, what
    /// `batch_size_zero_is_one_full_batch_step_per_epoch` pins 0 to.
    fn reference_after(
        enter: impl Fn(&mut GenerativeModel, &TrainConfig),
        model: &GenerativeModel,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
    ) -> ModelParams {
        let mut reference = entered(enter, model, cfg);
        let batch_size = match cfg.batch_size {
            0 => lambda.num_points(),
            b => b,
        };
        reference.reference_cd_from_current(
            lambda,
            &TrainConfig {
                batch_size,
                ..cfg.clone()
            },
        );
        reference.to_params()
    }

    /// `enter`'s fit with its epoch loop on `workers` threads.
    fn fitted_on(
        enter: impl Fn(&mut GenerativeModel, &TrainConfig),
        model: &GenerativeModel,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        workers: usize,
    ) -> ModelParams {
        let mut fitted = entered(enter, model, cfg);
        fitted.fit_correlated_cd_on(lambda, cfg, workers);
        fitted.to_params()
    }

    /// A split drawn from its own stream, independent of timing: each
    /// inner boundary at 1 row, at `len − 1` or anywhere (empty runs
    /// included).
    struct RandomSplit(StdRng);

    impl Split for RandomSplit {
        fn starts(&mut self, len: usize, starts: &mut [usize]) {
            let runs = starts.len() - 1;
            starts[0] = 0;
            starts[runs] = len;
            for start in &mut starts[1..runs] {
                *start = match self.0.gen_range(0..4) {
                    0 => 1,
                    1 => len - 1,
                    _ => self.0.gen_range(0..=len),
                };
            }
            starts[1..runs].sort_unstable();
        }

        fn finished(&mut self, _first: usize, _last: usize) {}
    }

    /// `enter`'s fit with its epoch loop on `workers` threads, each
    /// minibatch split by a [`RandomSplit`] seeded with `split_seed`.
    fn fitted_split(
        enter: impl Fn(&mut GenerativeModel, &TrainConfig),
        model: &GenerativeModel,
        lambda: &LabelMatrix,
        cfg: &TrainConfig,
        workers: usize,
        split_seed: u64,
    ) -> ModelParams {
        let mut fitted = entered(enter, model, cfg);
        let mut split = RandomSplit(StdRng::seed_from_u64(split_seed));
        fitted.fit_correlated_cd_split(lambda, cfg, workers, &mut split);
        fitted.to_params()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The public fits at this machine's core count, and the epoch
        /// loop at 1, 2, 3 and 8 workers, against the reference. Batch
        /// size 1 (and a one-row matrix) leaves workers without rows;
        /// batch size 0 is one batch of every row.
        #[test]
        fn cold_and_warm_fits_match_the_reference_loop(
            m in prop_oneof![Just(1usize), 1usize..48],
            n in 8usize..11,
            cardinality in 2u8..5,
            density in 0.05f64..0.6,
            extra in prop::collection::vec((0usize..16, 0usize..16), 0..6),
            gibbs_steps in 0usize..4,
            batch_choice in 0usize..5,
            clamp in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let lambda = random_matrix(m, n, cardinality, density, seed);
            let edited = random_matrix(m, n, cardinality, density, seed ^ 0x5eed);
            let cfg = TrainConfig {
                cd_epochs: 3,
                gibbs_steps,
                batch_size: [1, 7, 64, m, 0][batch_choice],
                clamp_nonadversarial: clamp == 1,
                seed,
                ..TrainConfig::default()
            };
            let strengths: Vec<f64> = (0..).map(|p| 0.3 + 0.4 * p as f64).take(6 + extra.len()).collect();
            let pairs = hub_pairs(n, &extra);
            let unfitted = GenerativeModel::new(n, LabelScheme::from_cardinality(cardinality))
                .with_weighted_correlations(&pairs, &strengths[..pairs.len()]);
            prop_assert!(unfitted.corr_adj[n - 1].is_empty());

            let cold_fit = |gm: &mut GenerativeModel, c: &TrainConfig| {
                gm.fit(&lambda, c);
            };
            let mut cold = unfitted.clone();
            cold.fit(&lambda, &cfg);
            let want = reference_after(cold_fit, &unfitted, &lambda, &cfg);
            prop_assert_eq!(bits(&cold.to_params()), bits(&want));
            for workers in [1, 2, 3, 8] {
                let got = fitted_on(cold_fit, &unfitted, &lambda, &cfg, workers);
                prop_assert_eq!(bits(&got), bits(&want), "cold, {} workers", workers);
            }

            let warm_fit = |gm: &mut GenerativeModel, c: &TrainConfig| {
                gm.fit_warm(&edited, None, c, &cold, &[n - 2]);
            };
            let mut warm = unfitted.clone();
            warm.fit_warm(&edited, None, &cfg, &cold, &[n - 2]);
            let want = reference_after(warm_fit, &unfitted, &edited, &cfg);
            prop_assert_eq!(bits(&warm.to_params()), bits(&want));
            for workers in [1, 2, 3, 8] {
                let got = fitted_on(warm_fit, &unfitted, &edited, &cfg, workers);
                prop_assert_eq!(bits(&got), bits(&want), "warm, {} workers", workers);
            }

            // Any split of every minibatch gives the same bits.
            let want_cold = bits(&cold.to_params());
            let want_warm = bits(&warm.to_params());
            for (t, workers) in [2, 3, 8].into_iter().enumerate() {
                let split_seed = seed + t as u64;
                let got = fitted_split(cold_fit, &unfitted, &lambda, &cfg, workers, split_seed);
                prop_assert_eq!(
                    bits(&got), want_cold.clone(),
                    "cold, {} workers, split seed {}", workers, split_seed
                );
                let got = fitted_split(warm_fit, &unfitted, &edited, &cfg, workers, !split_seed);
                prop_assert_eq!(
                    bits(&got), want_warm.clone(),
                    "warm, {} workers, split seed {}", workers, !split_seed
                );
            }
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
