//! The exact trainer of the independent generative model (`C = ∅`):
//! the cold fit entry point (and the warm entry point of the correlated
//! trainer), the three initializers (class balance, accuracy from
//! majority vote, propensity from coverage), the EM warm-up +
//! damped-Newton loop, and its E-pass. A child module of
//! `model.rs`, like `correlated.rs`, so the model's fields stay private
//! to that file and its extensions.
//!
//! Every pass runs on a [`PatternIndex`]: once per unique vote pattern,
//! weighted by multiplicity, in pattern-id order on the caller's thread.
//! There is no row-wise product path. The row-wise E-pass survives
//! under `#[cfg(test)]` as the reference the per-pattern pass is
//! property-tested against.

use snorkel_linalg::math::{logsumexp, softmax_in_place};
use snorkel_matrix::{LabelMatrix, PatternIndex};

use super::{ClassBalance, FitReport, GenerativeModel, TrainConfig, W_CLAMP};
use crate::label_model::fold_signatures;
use crate::vote::plurality_class;

impl GenerativeModel {
    pub(super) fn fit_exec(
        &mut self,
        lambda: &LabelMatrix,
        plan: &PatternIndex,
        cfg: &TrainConfig,
    ) -> FitReport {
        self.init_cold(lambda, plan, cfg);
        if lambda.num_points() == 0 {
            return FitReport::empty(false);
        }
        if self.corr_pairs.is_empty() {
            self.fit_independent_exact(plan, cfg)
        } else {
            self.fit_correlated_cd(lambda, cfg)
        }
    }

    /// The cold-fit initialization: prior accuracy weights, then the
    /// three plan-driven initializers.
    fn init_cold(&mut self, lambda: &LabelMatrix, plan: &PatternIndex, cfg: &TrainConfig) {
        self.assert_fits(lambda, plan);
        for w in self.w_acc.iter_mut() {
            *w = cfg.init_acc_weight;
        }
        self.set_class_balance(lambda, plan, cfg);
        if cfg.init_from_majority_vote && lambda.num_points() > 0 {
            self.init_acc_from_majority_vote(lambda, plan, cfg);
        }
        self.init_lab_from_coverage(lambda, plan);
    }

    fn assert_fits(&self, lambda: &LabelMatrix, plan: &PatternIndex) {
        assert_eq!(
            lambda.num_lfs(),
            self.n,
            "matrix has {} LFs but model has {}",
            lambda.num_lfs(),
            self.n
        );
        self.assert_plan_matches(lambda, plan);
    }

    /// Fix the class-balance weights per the configured policy.
    fn set_class_balance(&mut self, lambda: &LabelMatrix, plan: &PatternIndex, cfg: &TrainConfig) {
        let k = self.scheme.num_classes();
        match &cfg.class_balance {
            ClassBalance::Uniform => self.b_class.iter_mut().for_each(|b| *b = 0.0),
            ClassBalance::Fixed(p) => {
                assert_eq!(p.len(), k, "class balance needs one entry per class");
                for (b, &pc) in self.b_class.iter_mut().zip(p) {
                    *b = pc.max(1e-3).ln();
                }
            }
            ClassBalance::FromMajorityVote => {
                let scheme = self.scheme;
                // The MV class is a pure function of the vote signature,
                // and these are integer counts — the per-pattern tally
                // is *exactly* the row-wise one.
                let (counts, _) = fold_signatures(
                    lambda,
                    Some(plan),
                    (vec![1usize; k], vec![0usize; k]), // add-one smoothing
                    |(c, tally), _, votes, cnt| {
                        if let Some(mv) = plurality_class(scheme, votes, tally) {
                            c[mv] += cnt;
                        }
                    },
                );
                let total: f64 = counts.iter().map(|&c| c as f64).sum();
                for (b, c) in self.b_class.iter_mut().zip(counts) {
                    *b = (c as f64 / total).ln();
                }
            }
        }
    }

    /// Initialize the propensity weights so the model's implied coverage
    /// matches each LF's observed coverage. Starting from `w_lab = 0`
    /// (implied coverage ≈ 77% for binary) while real suites cover a few
    /// percent makes the early accuracy gradients strongly negative for
    /// *every* LF while the propensities calibrate; minority-class LFs
    /// never recover from that transient and the fit lands in a
    /// collapsed optimum. Solving
    /// `coverage = e^lab (e^acc + K−1) / (1 + e^lab (e^acc + K−1))`
    /// for `lab` removes the transient entirely.
    fn init_lab_from_coverage(&mut self, lambda: &LabelMatrix, plan: &PatternIndex) {
        let m = lambda.num_points();
        if m == 0 {
            return;
        }
        let k1 = (self.scheme.num_classes() - 1) as f64;
        // Per-pattern coverage counts are integer-exact.
        let votes = fold_signatures(
            lambda,
            Some(plan),
            vec![0usize; self.n],
            |c, cols, _, cnt| cols.iter().for_each(|&j| c[j as usize] += cnt),
        );
        for j in 0..self.n {
            let c = ((votes[j] as f64 + 0.5) / (m as f64 + 1.0)).clamp(1e-4, 1.0 - 1e-4);
            let s = c / (1.0 - c);
            self.w_lab[j] = (s.ln() - (self.w_acc[j].exp() + k1).ln()).clamp(-W_CLAMP, W_CLAMP);
        }
    }

    /// Seed accuracy weights from agreement with the unweighted majority
    /// vote: `w_j = ½ log(a_j / (1 − a_j))` where `a_j` is LF j's
    /// agreement rate with MV on rows where both commit, shrunk toward
    /// the prior and clamped to a moderate band so the data still
    /// dominates.
    fn init_acc_from_majority_vote(
        &mut self,
        lambda: &LabelMatrix,
        plan: &PatternIndex,
        cfg: &TrainConfig,
    ) {
        let (n, scheme, k) = (self.n, self.scheme, self.scheme.num_classes());
        // Agreement with the row's own majority vote is a pure function
        // of the signature; integer counts are exact.
        let (agree, total, _) = fold_signatures(
            lambda,
            Some(plan),
            (vec![0usize; n], vec![0usize; n], vec![0usize; k]),
            |(a, t, tally), cols, votes, cnt| {
                let Some(mv_class) = plurality_class(scheme, votes, tally) else {
                    return;
                };
                for (&c, &v) in cols.iter().zip(votes) {
                    if let Some(class) = scheme.class_of_vote(v) {
                        t[c as usize] += cnt;
                        if class == mv_class {
                            a[c as usize] += cnt;
                        }
                    }
                }
            },
        );
        for j in 0..self.n {
            if total[j] < 5 {
                continue; // keep the prior for LFs with no evidence
            }
            // Shrink toward the prior (5 pseudo-votes at the prior's
            // implied accuracy) so tiny-coverage LFs stay near w̄.
            let prior_acc = {
                let e = cfg.init_acc_weight.exp();
                e / (e + (self.scheme.num_classes() - 1) as f64)
            };
            let a = (agree[j] as f64 + 5.0 * prior_acc) / (total[j] as f64 + 5.0);
            let a = a.clamp(0.05, 0.95);
            self.w_acc[j] = (0.5 * (a / (1.0 - a)).ln()).clamp(-2.0, 3.0);
        }
    }

    /// Full-batch exact training of the independent model from the
    /// current weights, every E-pass over `plan`'s unique patterns.
    fn fit_independent_exact(&mut self, plan: &PatternIndex, cfg: &TrainConfig) -> FitReport {
        let (epochs, final_nll) =
            self.run_exact_epochs(plan.num_rows(), cfg, |gm, stats, moments| {
                gm.exact_pass(plan, stats, moments)
            });
        FitReport {
            epochs,
            final_nll,
            used_gibbs: false,
            warm_started: false,
        }
    }

    /// The exact-inference training loop, maximizing the
    /// pseudocount-smoothed marginal likelihood of the independent model
    /// in two phases:
    ///
    /// 1. **EM warm-up** — the model is a tied-error-rate Dawid–Skene
    ///    mixture, so the M-step is closed-form per LF: with posteriors
    ///    `q_i(y)` (E-step, exact) and expected statistics
    ///    `A_j = Σ_{i:Λ_ij≠∅} q_i(Λ_ij)`, `D_j = V_j − A_j`,
    ///    `Z_j = m − V_j`, the Dirichlet-smoothed update is
    ///    `w_acc_j = ln((A_j+α_a)(K−1)/(D_j+α_d))`,
    ///    `w_lab_j = ln((D_j+α_d)/((K−1)(Z_j+α_z)))`, with the
    ///    pseudocounts encoding the paper's LF-accuracy prior (see
    ///    [`prior_pseudocounts`]). A handful of sweeps reaches the right
    ///    basin from any reasonable initialization.
    /// 2. **Damped Newton** — EM's linear tail is governed by the
    ///    missing-information ratio and crawls on real suites. The exact
    ///    gradient and Hessian of the smoothed likelihood are cheap here
    ///    (`O(Σ_i |V_i|²)` per iteration), so a Levenberg-damped Newton
    ///    phase converges quadratically: the last ten decades of error
    ///    cost ~3 iterations instead of ~150 sweeps.
    ///
    /// The loop stops at *a* stationary point of the smoothed
    /// likelihood, not *the* one: the independent model's likelihood can
    /// have several optima even on two-sided planted LFs, and which one
    /// the loop reaches depends on where it started. (Refits started
    /// from a previous optimum reached a different stationary point than
    /// the cold fit over the same Λ — with a lower NLL and marginal gaps
    /// up to 0.5 — so every fit of this model starts cold.) Iteration
    /// stops one polish step after the gradient sup-norm falls below
    /// `(m+1)·cfg.tol` (or at the `cfg.epochs` cap).
    ///
    /// `pass(model, stats, with_moments)` is the E-pass over the `m`
    /// rows being fitted. Returns `(iterations run, final NLL)`.
    fn run_exact_epochs(
        &mut self,
        m: usize,
        cfg: &TrainConfig,
        mut pass: impl FnMut(&Self, &mut ExactPassStats, bool),
    ) -> (usize, f64) {
        const EM_WARMUP_MAX: usize = 15;
        // Warm-up only needs to reach the right basin — the damped Newton
        // phase is robust from a rough start (it falls back to EM sweeps
        // when a step is rejected), so entering it early is pure win.
        const EM_BASIN_TOL: f64 = 3e-2;
        let m = m as f64;
        let n = self.n;
        if n == 0 {
            return (0, 0.0);
        }
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let (a_agree, a_dis, a_abs) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let m_eff = m + a_agree + a_dis + a_abs;
        let dim = 2 * n; // parameter order: [w_lab | w_acc]
        let mut iters = 0usize;

        // ---------------- Phase 1: plain EM sweeps ----------------
        let mut stats = ExactPassStats::new(n, self.scheme.num_classes());
        loop {
            pass(self, &mut stats, false);
            iters += 1;
            let f_inf = self.em_step(&stats, m, cfg);
            if f_inf < EM_BASIN_TOL || iters >= EM_WARMUP_MAX || iters >= cfg.epochs {
                break;
            }
        }

        // ---------------- Phase 2: Levenberg-damped Newton ----------------
        let g_stop = (m + 1.0) * if cfg.tol > 0.0 { cfg.tol } else { 0.0 };
        let mut lm = 1e-3f64; // Levenberg damping, adapted per step
        let mut polished = false;
        let mut best_g = f64::INFINITY;
        let mut stalled = 0usize;
        let mut grad = vec![0.0f64; dim];
        let mut hess = vec![vec![0.0f64; dim]; dim];
        while iters < cfg.epochs {
            pass(self, &mut stats, true);
            iters += 1;
            let obj_cur = self.penalized_objective(&stats, m, (a_agree, a_dis, a_abs));

            // Assemble gradient and Hessian of the smoothed likelihood.
            for g in grad.iter_mut() {
                *g = 0.0;
            }
            for row in hess.iter_mut() {
                for h in row.iter_mut() {
                    *h = 0.0;
                }
            }
            for j in 0..n {
                let e_lab = self.w_lab[j].exp();
                let e_la = (self.w_lab[j] + self.w_acc[j]).exp();
                let z = 1.0 + e_la + k1 * e_lab;
                let p1 = e_la / z; // P(agree)
                let v = (e_la + k1 * e_lab) / z; // P(vote at all)
                grad[j] = stats.votes_cast[j] + a_agree + a_dis - m_eff * v;
                grad[n + j] = stats.agree[j] + a_agree - m_eff * p1;
                hess[j][j] -= m_eff * v * (1.0 - v);
                hess[j][n + j] -= m_eff * p1 * (1.0 - v);
                hess[n + j][j] -= m_eff * p1 * (1.0 - v);
                hess[n + j][n + j] -= m_eff * p1 * (1.0 - p1);
            }
            for a in 0..n {
                for b in 0..n {
                    hess[n + a][n + b] += stats.acc_moment[a][b];
                }
            }

            // Box-constraint mask: coordinates pinned at a bound with an
            // outward gradient are frozen for this step (and excluded
            // from the stop test).
            let mut active = vec![true; dim];
            for j in 0..n {
                for (d, w) in [(j, self.w_lab[j]), (n + j, self.w_acc[j])] {
                    let at_lo =
                        w <= -W_CLAMP + 1e-12 || (d >= n && cfg.clamp_nonadversarial && w <= 1e-15);
                    let at_hi = w >= W_CLAMP - 1e-12;
                    if (at_lo && grad[d] < 0.0) || (at_hi && grad[d] > 0.0) {
                        active[d] = false;
                    }
                }
            }
            let g_inf = (0..dim)
                .filter(|&d| active[d])
                .fold(0.0f64, |acc, d| acc.max(grad[d].abs()));
            // Backstop: once the gradient stops halving, iteration has
            // hit the arithmetic noise floor — every later iterate is
            // equivalent, so stop rather than spin to the epoch cap.
            if g_inf < best_g * 0.5 {
                best_g = g_inf;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 8 {
                    break;
                }
            }
            if cfg.tol > 0.0 && g_inf <= g_stop {
                if polished {
                    break;
                }
                // One more quadratic step from here typically lands at
                // the arithmetic noise floor — take it, then stop.
                polished = true;
            }

            // Try damped steps: solve (−H + λ·diag) δ = g, ascend, accept
            // on objective improvement; otherwise increase damping.
            let mut accepted = false;
            for _attempt in 0..10 {
                let mut a_mat = vec![vec![0.0f64; dim]; dim];
                let mut rhs = vec![0.0f64; dim];
                for d in 0..dim {
                    if !active[d] {
                        a_mat[d][d] = 1.0;
                        rhs[d] = 0.0;
                        continue;
                    }
                    for e in 0..dim {
                        if active[e] {
                            a_mat[d][e] = -hess[d][e];
                        }
                    }
                    a_mat[d][d] += lm * (hess[d][d].abs() + 1e-8);
                    rhs[d] = grad[d];
                }
                let Some(delta) = solve_small(&mut a_mat, &mut rhs) else {
                    lm *= 10.0;
                    continue;
                };
                let saved_lab = self.w_lab.clone();
                let saved_acc = self.w_acc.clone();
                for j in 0..n {
                    self.w_lab[j] = (self.w_lab[j] + delta[j]).clamp(-W_CLAMP, W_CLAMP);
                    let mut acc = self.w_acc[j] + delta[n + j];
                    if cfg.clamp_nonadversarial && acc < 0.0 {
                        acc = 0.0;
                    }
                    self.w_acc[j] = acc.clamp(-W_CLAMP, W_CLAMP);
                }
                pass(self, &mut stats, false);
                iters += 1;
                let obj_new = self.penalized_objective(&stats, m, (a_agree, a_dis, a_abs));
                // Acceptance slack at the objective's arithmetic noise
                // floor (the objective is a sum of ~m terms of O(1);
                // demanding more than ~1e-14·|obj| rejects good steps at
                // random near convergence).
                let slack = 1e-12f64.max(obj_cur.abs() * 1e-14);
                if obj_new >= obj_cur - slack {
                    lm = (lm / 3.0).max(1e-12);
                    accepted = true;
                    break;
                }
                self.w_lab = saved_lab;
                self.w_acc = saved_acc;
                lm *= 10.0;
            }
            if !accepted {
                // Heavily damped Newton keeps failing (numerically odd
                // region): fall back to one plain EM sweep, which always
                // makes progress, and reset the damping.
                pass(self, &mut stats, false);
                iters += 1;
                self.em_step(&stats, m, cfg);
                lm = 1e-3;
            }
        }

        // Final bookkeeping pass for the reported NLL.
        pass(self, &mut stats, false);
        let nll = stats.nll(m, &self.b_class, &self.w_lab, &self.w_acc, k1);
        (iters, nll)
    }

    /// The closed-form EM M-step (see [`Self::run_exact_epochs`]) from
    /// one E-pass's statistics over `m` rows. Returns the step's
    /// sup-norm parameter change.
    fn em_step(&mut self, stats: &ExactPassStats, m: f64, cfg: &TrainConfig) -> f64 {
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let (a_agree, a_dis, a_abs) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let mut f_inf = 0.0f64;
        for j in 0..self.n {
            let a_j = stats.agree[j];
            let d_j = (stats.votes_cast[j] - a_j).max(0.0);
            let z_j = (m - stats.votes_cast[j]).max(0.0);
            let new_lab = (((d_j + a_dis) / (k1 * (z_j + a_abs))).ln()).clamp(-W_CLAMP, W_CLAMP);
            let mut new_acc =
                (((a_j + a_agree) * k1 / (d_j + a_dis)).ln()).clamp(-W_CLAMP, W_CLAMP);
            if cfg.clamp_nonadversarial && new_acc < 0.0 {
                new_acc = 0.0;
            }
            f_inf = f_inf
                .max((new_lab - self.w_lab[j]).abs())
                .max((new_acc - self.w_acc[j]).abs());
            self.w_lab[j] = new_lab;
            self.w_acc[j] = new_acc;
        }
        f_inf
    }

    /// One exact E-pass: posteriors accumulated into the expected per-LF
    /// statistics (and, when `with_moments`, the posterior second-moment
    /// matrix the Newton phase needs). The pass walks the index's
    /// *unique* vote patterns once, in pattern-id order, scaling every
    /// statistic by the pattern's multiplicity. On a DryBell-shaped
    /// corpus this turns the O(m) posterior computations of one pass
    /// into O(#patterns).
    fn exact_pass(&self, plan: &PatternIndex, s: &mut ExactPassStats, with_moments: bool) {
        s.reset(with_moments);
        let scores = &mut s.scores;
        let row_classes = &mut s.row_classes;
        for (_, cols, votes, cnt) in plan.patterns() {
            let c = cnt as f64;
            scores.copy_from_slice(&self.b_class);
            let mut lab_term = 0.0;
            for (&col, &v) in cols.iter().zip(votes) {
                let j = col as usize;
                lab_term += self.w_lab[j];
                if let Some(class) = self.scheme.class_of_vote(v) {
                    scores[class] += self.w_acc[j];
                }
            }
            let lse = logsumexp(scores);
            s.loglik += c * (lab_term + lse);
            row_classes.clear();
            for (&col, &v) in cols.iter().zip(votes) {
                let j = col as usize;
                s.votes_cast[j] += c;
                if let Some(class) = self.scheme.class_of_vote(v) {
                    let q = (scores[class] - lse).exp();
                    s.agree[j] += c * q;
                    if with_moments {
                        row_classes.push((j, class, q));
                    }
                }
            }
            if with_moments {
                for (x, &(j, cj, qj)) in row_classes.iter().enumerate() {
                    s.acc_moment[j][j] += c * qj * (1.0 - qj);
                    for &(l, cl, ql) in row_classes.iter().skip(x + 1) {
                        let joint = if cj == cl { qj } else { 0.0 };
                        let cov = c * (joint - qj * ql);
                        s.acc_moment[j][l] += cov;
                        s.acc_moment[l][j] += cov;
                    }
                }
            }
        }
    }

    /// The pseudocount-smoothed log-likelihood (up to constants shared
    /// by every iterate) — the Newton phase's acceptance objective.
    fn penalized_objective(&self, stats: &ExactPassStats, m: f64, alphas: (f64, f64, f64)) -> f64 {
        let (a_agree, a_dis, a_abs) = alphas;
        let k1 = (self.scheme.num_classes() - 1) as f64;
        let mut obj = stats.loglik;
        for j in 0..self.n {
            let e_lab = self.w_lab[j].exp();
            let e_la = (self.w_lab[j] + self.w_acc[j]).exp();
            let z = 1.0 + e_la + k1 * e_lab;
            obj += a_agree * (self.w_lab[j] + self.w_acc[j]) + a_dis * self.w_lab[j]
                - (m + a_agree + a_dis + a_abs) * z.ln();
        }
        obj
    }

    /// [`GenerativeModel::fit_warm`]: a cold fit without correlation
    /// pairs; with them, [`Self::init_warm`] and then CD from there.
    pub(super) fn fit_warm_exec(
        &mut self,
        lambda: &LabelMatrix,
        plan: &PatternIndex,
        cfg: &TrainConfig,
        prev: &GenerativeModel,
        changed_cols: &[usize],
    ) -> FitReport {
        if self.corr_pairs.is_empty() {
            return self.fit_exec(lambda, plan, cfg);
        }
        self.init_warm(lambda, plan, cfg, prev, changed_cols);
        if lambda.num_points() == 0 {
            return FitReport::empty(true);
        }
        let mut report = self.fit_correlated_cd_from_current(lambda, cfg);
        report.warm_started = true;
        report
    }

    /// The warm-start initialization: adopt `prev`'s optimum, recompute
    /// the class balance, re-initialize the edited columns.
    fn init_warm(
        &mut self,
        lambda: &LabelMatrix,
        plan: &PatternIndex,
        cfg: &TrainConfig,
        prev: &GenerativeModel,
        changed_cols: &[usize],
    ) {
        self.assert_fits(lambda, plan);
        assert_eq!(prev.n, self.n, "warm start requires matching LF count");
        assert_eq!(
            prev.scheme, self.scheme,
            "warm start requires matching scheme"
        );
        for &j in changed_cols {
            assert!(j < self.n, "changed col {j} out of range ({} LFs)", self.n);
        }

        // Adopt the previous optimum.
        self.w_lab.copy_from_slice(&prev.w_lab);
        self.w_acc.copy_from_slice(&prev.w_acc);
        // Correlation weights carry over where the pair survives; new
        // pairs keep the strength-seeded init set by the constructor.
        for (p, pair) in self.corr_pairs.iter().enumerate() {
            if let Some(prev_p) = prev.corr_pairs.iter().position(|q| q == pair) {
                self.w_corr[p] = prev.w_corr[prev_p];
            }
        }
        // The class balance is a deterministic function of Λ and the
        // policy — recompute so it matches what a cold fit would use.
        self.set_class_balance(lambda, plan, cfg);
        // Edited columns start from the cold-path initialization.
        for &j in changed_cols {
            self.reinit_column(lambda, cfg, j);
        }
    }

    /// Warm-start initialization for an edited column: one coordinate EM
    /// step. The column's parameters are set to their closed-form
    /// conditional MLE given posteriors computed from the *other*
    /// columns' (previously fitted) weights — i.e. the edited LF starts
    /// at its exact optimum conditioned on everything the model already
    /// believed, so the subsequent global EM polish starts next to the
    /// new joint optimum instead of perturbing every posterior with a
    /// generic prior init.
    fn reinit_column(&mut self, lambda: &LabelMatrix, cfg: &TrainConfig, j: usize) {
        let m = lambda.num_points();
        if m == 0 {
            self.w_acc[j] = cfg.init_acc_weight;
            return;
        }
        let k = self.scheme.num_classes();
        let k1 = (k - 1) as f64;
        let jc = j as u32;
        let mut agree = 0.0f64;
        let mut votes_cast = 0.0f64;
        let mut scores = vec![0.0f64; k];
        for i in 0..m {
            let (cols, votes) = lambda.row(i);
            let Ok(pos) = cols.binary_search(&jc) else {
                continue;
            };
            // Posterior with column j masked out.
            scores.copy_from_slice(&self.b_class);
            for (&c, &v) in cols.iter().zip(votes) {
                if c != jc {
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        scores[class] += self.w_acc[c as usize];
                    }
                }
            }
            softmax_in_place(&mut scores);
            votes_cast += 1.0;
            if let Some(class) = self.scheme.class_of_vote(votes[pos]) {
                agree += scores[class];
            }
        }
        let (a_agree, a_dis, a_abs) = prior_pseudocounts(cfg.init_acc_weight, k1);
        let d_j = (votes_cast - agree).max(0.0);
        let z_j = (m as f64 - votes_cast).max(0.0);
        self.w_lab[j] = (((d_j + a_dis) / (k1 * (z_j + a_abs))).ln()).clamp(-W_CLAMP, W_CLAMP);
        let mut acc = (((agree + a_agree) * k1 / (d_j + a_dis)).ln()).clamp(-W_CLAMP, W_CLAMP);
        if cfg.clamp_nonadversarial && acc < 0.0 {
            acc = 0.0;
        }
        self.w_acc[j] = acc;
    }
}

impl FitReport {
    /// The report of a fit over zero rows: there is nothing to train.
    fn empty(warm_started: bool) -> Self {
        FitReport {
            epochs: 0,
            final_nll: 0.0,
            used_gibbs: false,
            warm_started,
        }
    }
}

/// Pseudocounts encoding the paper's LF-accuracy prior (footnote 8:
/// mean prior weight w̄, i.e. accuracy `e^w̄/(e^w̄+K−1)` ≈ 73% binary)
/// as a Dirichlet over the per-LF outcome buckets: `strength` prior
/// votes split between agree/disagree at the prior accuracy, plus a
/// weak abstain bucket. With a handful of real votes the data washes
/// the prior out; with none (a brand-new tiny suite) the prior carries,
/// matching the original trainer's Bayesian-init semantics.
pub(crate) fn prior_pseudocounts(init_acc_weight: f64, k1: f64) -> (f64, f64, f64) {
    const PRIOR_STRENGTH: f64 = 4.0;
    let e = init_acc_weight.exp();
    let prior_acc = e / (e + k1);
    let alpha_agree = PRIOR_STRENGTH * prior_acc;
    let alpha_dis = PRIOR_STRENGTH * (1.0 - prior_acc);
    let alpha_abs = 0.5;
    (alpha_agree, alpha_dis, alpha_abs)
}

/// Accumulators for one exact E-pass (see `GenerativeModel::exact_pass`).
struct ExactPassStats {
    /// `V_j`: rows where LF j voted.
    votes_cast: Vec<f64>,
    /// `A_j = Σ_i q_i(Λ_ij)`: expected agreements.
    agree: Vec<f64>,
    /// Row log-likelihood terms `Σ_i (Σ_{j∈V_i} w_lab_j + lse_i)`.
    loglik: f64,
    /// Posterior second moments `Σ_i cov_i(φ_j, φ_k)` (Newton only).
    acc_moment: Vec<Vec<f64>>,
    /// Scratch: one pattern's class scores, and its `(lf, class, q)`
    /// terms for the second moments. Kept here so every pass of a fit
    /// reuses the same buffers.
    scores: Vec<f64>,
    row_classes: Vec<(usize, usize, f64)>,
}

impl ExactPassStats {
    fn new(n: usize, k: usize) -> Self {
        ExactPassStats {
            votes_cast: vec![0.0; n],
            agree: vec![0.0; n],
            loglik: 0.0,
            acc_moment: vec![vec![0.0; n]; n],
            scores: vec![0.0; k],
            row_classes: Vec::new(),
        }
    }

    fn reset(&mut self, with_moments: bool) {
        self.votes_cast.iter_mut().for_each(|v| *v = 0.0);
        self.agree.iter_mut().for_each(|v| *v = 0.0);
        self.loglik = 0.0;
        if with_moments {
            for row in self.acc_moment.iter_mut() {
                row.iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }

    /// The reported mean NLL (same formula the old trainer printed):
    /// `−loglik/m + Σ_j ln z_j + logsumexp(b)`.
    fn nll(&self, m: f64, b_class: &[f64], w_lab: &[f64], w_acc: &[f64], k1: f64) -> f64 {
        if m == 0.0 {
            return 0.0;
        }
        let mut log_z_sum = 0.0;
        for (l, a) in w_lab.iter().zip(w_acc) {
            log_z_sum += (1.0 + (l + a).exp() + k1 * l.exp()).ln();
        }
        -(self.loglik / m) + log_z_sum + logsumexp(b_class)
    }
}

/// Solve a small dense linear system (the `2n × 2n` damped-Newton step;
/// n = LF count, so typically tens of unknowns) in place by Gaussian
/// elimination with partial pivoting. No symmetry or definiteness is
/// assumed. Returns `None` on (numerical) singularity — the caller then
/// raises the Levenberg damping and retries.
fn solve_small(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let k = b.len();
    for col in 0..k {
        let pivot = (col..k).max_by(|&x, &y| {
            a[x][col]
                .abs()
                .partial_cmp(&a[y][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-300 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..k {
            let factor = a[row][col] / a[col][col];
            for c in col..k {
                a[row][c] -= factor * a[col][c];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = b[row];
        for c in (row + 1)..k {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
        if !x[row].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LabelScheme, ModelParams};
    use proptest::prelude::*;
    use snorkel_matrix::{LabelMatrixBuilder, Vote};

    impl GenerativeModel {
        /// Row-wise reference implementation of the exact E-pass, one
        /// posterior per row: the per-pattern [`Self::exact_pass`] must
        /// reach the optimum this pass reaches.
        fn exact_pass_rowwise(
            &self,
            lambda: &LabelMatrix,
            stats: &mut ExactPassStats,
            with_moments: bool,
        ) {
            let k = self.scheme.num_classes();
            stats.reset(with_moments);
            let mut scores = vec![0.0f64; k];
            let mut row_classes: Vec<(usize, usize, f64)> = Vec::new(); // (lf, class, q)
            for i in 0..lambda.num_points() {
                let (cols, votes) = lambda.row(i);
                scores.copy_from_slice(&self.b_class);
                let mut lab_term = 0.0;
                for (&c, &v) in cols.iter().zip(votes) {
                    let j = c as usize;
                    lab_term += self.w_lab[j];
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        scores[class] += self.w_acc[j];
                    }
                }
                let lse = logsumexp(&scores);
                stats.loglik += lab_term + lse;
                row_classes.clear();
                for (&c, &v) in cols.iter().zip(votes) {
                    let j = c as usize;
                    stats.votes_cast[j] += 1.0;
                    if let Some(class) = self.scheme.class_of_vote(v) {
                        let q = (scores[class] - lse).exp();
                        stats.agree[j] += q;
                        if with_moments {
                            row_classes.push((j, class, q));
                        }
                    }
                }
                if with_moments {
                    // cov_i(φ_j, φ_k) over the row's voting LFs, where
                    // φ_j = 1{y = class(Λ_ij)}.
                    for (x, &(j, cj, qj)) in row_classes.iter().enumerate() {
                        stats.acc_moment[j][j] += qj * (1.0 - qj);
                        for &(l, cl, ql) in row_classes.iter().skip(x + 1) {
                            let joint = if cj == cl { qj } else { 0.0 };
                            let cov = joint - qj * ql;
                            stats.acc_moment[j][l] += cov;
                            stats.acc_moment[l][j] += cov;
                        }
                    }
                }
            }
        }

        /// The exact trainer driven by the row-wise reference E-pass,
        /// from a cold start. The initializers tally whole-row counts,
        /// which are path-independent, so they run on the pattern index.
        fn reference_fit(&mut self, lambda: &LabelMatrix, cfg: &TrainConfig) {
            let plan = PatternIndex::build(lambda);
            self.init_cold(lambda, &plan, cfg);
            self.run_exact_epochs(lambda.num_points(), cfg, |gm, stats, moments| {
                gm.exact_pass_rowwise(lambda, stats, moments)
            });
        }
    }

    /// Arbitrary (matrix, cardinality) with duplicate-heavy rows: each
    /// row is drawn from a small pool of row templates plus free noise,
    /// so real dedup structure appears at every size.
    fn matrix_strategy() -> impl Strategy<Value = LabelMatrix> {
        (1usize..40, 1usize..8, 2u8..5, 1usize..6).prop_flat_map(|(m, n, k, pool)| {
            let template = prop::collection::vec(0i8..=(k as i8), n);
            (
                prop::collection::vec(template, pool),
                prop::collection::vec(0usize..pool, m),
                prop::collection::vec((0usize..m, 0usize..n, 0i8..=(k as i8)), 0..8),
            )
                .prop_map(move |(templates, assignment, noise)| {
                    let mut grid: Vec<Vec<Vote>> =
                        assignment.iter().map(|&t| templates[t].clone()).collect();
                    for (i, j, v) in noise {
                        grid[i][j] = v;
                    }
                    let mut b = LabelMatrixBuilder::with_cardinality(m, n, k);
                    for (i, row) in grid.iter().enumerate() {
                        for (j, &v) in row.iter().enumerate() {
                            // 0 = abstain; binary uses ±1, multi-class 1..=k.
                            let vote = match (k, v) {
                                (_, 0) => 0,
                                (2, 1) => 1,
                                (2, _) => -1,
                                _ => v.min(k as i8),
                            };
                            b.set(i, j, vote);
                        }
                    }
                    b.build()
                })
        })
    }

    fn max_gap<'a>(
        a: impl IntoIterator<Item = &'a f64>,
        b: impl IntoIterator<Item = &'a f64>,
    ) -> f64 {
        a.into_iter()
            .zip(b)
            .fold(0.0f64, |gap, (x, y)| gap.max((x - y).abs()))
    }

    fn params_gap(a: &ModelParams, b: &ModelParams) -> f64 {
        max_gap(&a.w_lab, &b.w_lab)
            .max(max_gap(&a.w_acc, &b.w_acc))
            .max(max_gap(&a.b_class, &b.b_class))
    }

    fn marginals_gap(a: &GenerativeModel, b: &GenerativeModel, lambda: &LabelMatrix) -> f64 {
        let (ma, mb) = (a.marginals(lambda), b.marginals(lambda));
        max_gap(ma.iter().flatten(), mb.iter().flatten())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A cold fit over the pattern index lands on the row-wise
        /// reference's optimum: the per-pattern statistics differ from
        /// the row sums only in summation order, and the tol-driven
        /// fixed-point iteration erases that.
        #[test]
        fn cold_fit_matches_the_rowwise_reference(lambda in matrix_strategy()) {
            let scheme = LabelScheme::from_cardinality(lambda.cardinality());
            let cfg = TrainConfig::default();
            let mut reference = GenerativeModel::new(lambda.num_lfs(), scheme);
            reference.reference_fit(&lambda, &cfg);
            let mut gm = GenerativeModel::new(lambda.num_lfs(), scheme);
            gm.fit_with(&lambda, &PatternIndex::build(&lambda), &cfg);
            let gap = params_gap(&gm.to_params(), &reference.to_params());
            prop_assert!(gap <= PARAMS_TOL, "params off by {:e}", gap);
            let gap = marginals_gap(&gm, &reference, &lambda);
            prop_assert!(gap <= 1e-12, "marginals off by {:e}", gap);
        }
    }

    /// Weight tolerance of the reference comparisons.
    const PARAMS_TOL: f64 = 1e-9;
}
