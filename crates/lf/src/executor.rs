//! Applying a labeling-function suite over a corpus.
//!
//! LF execution is embarrassingly parallel (paper appendix C): each
//! candidate is labeled independently, so the executor splits the
//! candidate list into contiguous chunks, labels them on scoped worker
//! threads, and merges the per-chunk triplets into one [`LabelMatrix`].
//! The output is bit-for-bit identical regardless of thread count.

use snorkel_context::{CandidateId, Corpus};
use snorkel_matrix::{is_legal_vote, LabelMatrix, LabelMatrixBuilder, Vote, ABSTAIN};

use crate::traits::BoxedLf;

/// Per-LF tallies for one `apply` call, accumulated locally (plain
/// integers, no atomics) and flushed to the global registry once per LF
/// when the call completes.
#[derive(Clone, Copy, Default)]
struct LfTally {
    invocations: u64,
    abstains: u64,
    /// Votes outside the matrix's legal range for its cardinality. The
    /// matrix builder rejects these downstream; the counter exists so a
    /// misbehaving LF is visible in a `METRICS` scrape, not only as a
    /// panic in a log.
    errors: u64,
}

impl LfTally {
    #[inline]
    fn observe(&mut self, cardinality: u8, v: Vote) {
        self.invocations += 1;
        if v == ABSTAIN {
            self.abstains += 1;
        } else if !is_legal_vote(cardinality, v) {
            self.errors += 1;
        }
    }

    fn merge(&mut self, other: LfTally) {
        self.invocations += other.invocations;
        self.abstains += other.abstains;
        self.errors += other.errors;
    }
}

/// Accumulates per-LF tallies during an `apply` call and publishes them
/// as `snorkel_lf_{invocations,abstains,errors}_total{lf="…"}` on drop
/// — so illegal votes are already counted when the matrix layer's
/// rejection panic unwinds through the executor.
struct TallyGuard<'a> {
    lfs: &'a [BoxedLf],
    tallies: Vec<LfTally>,
}

impl<'a> TallyGuard<'a> {
    fn new(lfs: &'a [BoxedLf]) -> Self {
        TallyGuard {
            lfs,
            tallies: vec![LfTally::default(); lfs.len()],
        }
    }
}

impl Drop for TallyGuard<'_> {
    fn drop(&mut self) {
        let registry = snorkel_obs::global();
        for (lf, tally) in self.lfs.iter().zip(&self.tallies) {
            let labels = [("lf", lf.name())];
            registry
                .counter("snorkel_lf_invocations_total", &labels)
                .add(tally.invocations);
            registry
                .counter("snorkel_lf_abstains_total", &labels)
                .add(tally.abstains);
            if tally.errors > 0 {
                registry
                    .counter("snorkel_lf_errors_total", &labels)
                    .add(tally.errors);
            }
        }
    }
}

/// Applies LF suites, optionally across threads.
#[derive(Clone, Copy, Debug)]
pub struct LfExecutor {
    /// Number of worker threads: 1 = serial, 0 = use all available cores.
    pub parallelism: usize,
    /// Vote scheme cardinality for the produced matrix (2 = binary).
    pub cardinality: u8,
}

impl Default for LfExecutor {
    fn default() -> Self {
        LfExecutor {
            parallelism: 1,
            cardinality: 2,
        }
    }
}

impl LfExecutor {
    /// A serial executor for binary tasks.
    pub fn new() -> Self {
        LfExecutor::default()
    }

    /// Use up to `threads` workers; `0` means "use all available cores".
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Set the vote-scheme cardinality of the produced matrix. Panics on
    /// `k < 2`: a labeling task needs at least two classes, and silently
    /// accepting 0/1 produced matrices every downstream consumer rejects.
    pub fn with_cardinality(mut self, k: u8) -> Self {
        assert!(
            k >= 2,
            "LfExecutor cardinality must be at least 2 (got {k}); \
             binary tasks use 2, multi-class tasks use the class count"
        );
        self.cardinality = k;
        self
    }

    /// The worker count [`Self::apply`] will actually use: `parallelism`,
    /// with `0` resolved to the number of available cores.
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.parallelism
        }
    }

    /// Apply `lfs` over `candidates` (rows follow `candidates` order).
    pub fn apply(
        &self,
        lfs: &[BoxedLf],
        corpus: &Corpus,
        candidates: &[CandidateId],
    ) -> LabelMatrix {
        let m = candidates.len();
        let n = lfs.len();
        let mut builder = LabelMatrixBuilder::with_cardinality(m, n, self.cardinality);

        let mut guard = TallyGuard::new(lfs);
        let parallelism = self.effective_parallelism();
        if parallelism <= 1 || m < 2 {
            for (row, &cid) in candidates.iter().enumerate() {
                let view = corpus.candidate(cid);
                for (col, lf) in lfs.iter().enumerate() {
                    let v = lf.label(&view);
                    guard.tallies[col].observe(self.cardinality, v);
                    builder.set(row, col, v);
                }
            }
            return builder.build();
        }

        // One worker's output: its (row, col, vote) triplets plus the
        // per-LF tallies it accumulated locally.
        type ChunkOutput = (Vec<(usize, usize, Vote)>, Vec<LfTally>);
        let threads = parallelism.min(m);
        let chunk = m.div_ceil(threads);
        let mut chunk_outputs: Vec<ChunkOutput> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, cand_chunk) in candidates.chunks(chunk).enumerate() {
                let base = t * chunk;
                handles.push(scope.spawn(move || {
                    let mut triplets = Vec::new();
                    let mut local = vec![LfTally::default(); n];
                    for (off, &cid) in cand_chunk.iter().enumerate() {
                        let view = corpus.candidate(cid);
                        for (col, lf) in lfs.iter().enumerate() {
                            let v = lf.label(&view);
                            local[col].observe(self.cardinality, v);
                            if v != 0 {
                                triplets.push((base + off, col, v));
                            }
                        }
                    }
                    (triplets, local)
                }));
            }
            for h in handles {
                chunk_outputs.push(h.join().expect("labeling worker panicked"));
            }
        });

        for (triplets, local) in chunk_outputs {
            for (col, tally) in local.into_iter().enumerate() {
                guard.tallies[col].merge(tally);
            }
            for (i, j, v) in triplets {
                builder.set(i, j, v);
            }
        }
        builder.build()
    }

    /// Apply over *all* candidates of the corpus, in id order.
    pub fn apply_all(&self, lfs: &[BoxedLf], corpus: &Corpus) -> LabelMatrix {
        let candidates: Vec<CandidateId> = corpus.candidate_ids().collect();
        self.apply(lfs, corpus, &candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::lf;
    use snorkel_context::Corpus;
    use snorkel_nlp::tokenize;

    fn corpus(n: usize) -> (Corpus, Vec<CandidateId>) {
        let mut c = Corpus::new();
        let d = c.add_document("d");
        let mut ids = Vec::new();
        for i in 0..n {
            let text = if i % 3 == 0 {
                "alpha causes beta".to_string()
            } else {
                "alpha treats beta".to_string()
            };
            let s = c.add_sentence(d, &text, tokenize(&text));
            let a = c.add_span(s, 0, 1, Some("A"));
            let b = c.add_span(s, 2, 3, Some("B"));
            ids.push(c.add_candidate(vec![a, b]));
        }
        (c, ids)
    }

    fn suite() -> Vec<BoxedLf> {
        vec![
            lf("lf_causes", |x| {
                if x.words_between(0, 1).contains(&"causes") {
                    1
                } else {
                    0
                }
            }),
            lf("lf_treats", |x| {
                if x.words_between(0, 1).contains(&"treats") {
                    -1
                } else {
                    0
                }
            }),
            lf("lf_abstainer", |_| 0),
        ]
    }

    #[test]
    fn serial_application() {
        let (c, ids) = corpus(9);
        let lambda = LfExecutor::new().apply(&suite(), &c, &ids);
        assert_eq!(lambda.num_points(), 9);
        assert_eq!(lambda.num_lfs(), 3);
        assert_eq!(lambda.get(0, 0), 1);
        assert_eq!(lambda.get(1, 1), -1);
        assert_eq!(lambda.get(0, 2), 0);
        // Exactly one vote per row (LFs are mutually exclusive here).
        assert_eq!(lambda.nnz(), 9);
    }

    #[test]
    fn parallel_matches_serial() {
        let (c, ids) = corpus(101);
        let serial = LfExecutor::new().apply(&suite(), &c, &ids);
        for threads in [2, 3, 8] {
            let par = LfExecutor::new()
                .with_parallelism(threads)
                .apply(&suite(), &c, &ids);
            assert_eq!(par, serial, "parallelism={threads} must be deterministic");
        }
    }

    #[test]
    fn apply_all_uses_id_order() {
        let (c, ids) = corpus(5);
        let a = LfExecutor::new().apply_all(&suite(), &c);
        let b = LfExecutor::new().apply(&suite(), &c, &ids);
        assert_eq!(a, b);
    }

    #[test]
    fn row_subset_and_order_respected() {
        let (c, ids) = corpus(6);
        let reversed: Vec<CandidateId> = ids.iter().rev().copied().collect();
        let lambda = LfExecutor::new().apply(&suite(), &c, &reversed);
        // Row 5 is candidate 0, which says "causes".
        assert_eq!(lambda.get(5, 0), 1);
    }

    #[test]
    fn parallelism_zero_means_all_cores() {
        let exec = LfExecutor::new().with_parallelism(0);
        assert_eq!(exec.parallelism, 0);
        assert!(exec.effective_parallelism() >= 1);
        // And the result is still bit-identical to serial.
        let (c, ids) = corpus(50);
        let serial = LfExecutor::new().apply(&suite(), &c, &ids);
        let auto = exec.apply(&suite(), &c, &ids);
        assert_eq!(auto, serial);
    }

    #[test]
    #[should_panic(expected = "cardinality must be at least 2")]
    fn cardinality_zero_rejected() {
        let _ = LfExecutor::new().with_cardinality(0);
    }

    #[test]
    #[should_panic(expected = "cardinality must be at least 2")]
    fn cardinality_one_rejected() {
        let _ = LfExecutor::new().with_cardinality(1);
    }

    #[test]
    fn apply_publishes_per_lf_counters() {
        let (c, ids) = corpus(9);
        // The counters are process-global and the other tests here apply
        // `suite()` concurrently, so this test's LFs carry names no other
        // test uses; the exact deltas below are then this test's alone.
        let lfs: Vec<BoxedLf> = vec![
            lf("counted_causes", |x| {
                if x.words_between(0, 1).contains(&"causes") {
                    1
                } else {
                    0
                }
            }),
            lf("counted_abstainer", |_| 0),
        ];
        let registry = snorkel_obs::global();
        let inv = registry.counter(
            "snorkel_lf_invocations_total",
            &[("lf", "counted_abstainer")],
        );
        let abs = registry.counter("snorkel_lf_abstains_total", &[("lf", "counted_abstainer")]);
        let causes_abs = registry.counter("snorkel_lf_abstains_total", &[("lf", "counted_causes")]);
        let (inv0, abs0, causes_abs0) = (inv.get(), abs.get(), causes_abs.get());
        let _ = LfExecutor::new().apply(&lfs, &c, &ids);
        assert_eq!(inv.get() - inv0, 9);
        assert_eq!(abs.get() - abs0, 9, "counted_abstainer always abstains");
        assert_eq!(
            causes_abs.get() - causes_abs0,
            6,
            "counted_causes votes on every third"
        );
        // Parallel path flushes the same tallies.
        let _ = LfExecutor::new().with_parallelism(4).apply(&lfs, &c, &ids);
        assert_eq!(inv.get() - inv0, 18);
        assert_eq!(abs.get() - abs0, 18);
    }

    #[test]
    fn illegal_votes_are_counted_as_errors() {
        let (c, ids) = corpus(3);
        let bad = vec![lf("lf_bad", |_| 99)];
        let errs = snorkel_obs::global().counter("snorkel_lf_errors_total", &[("lf", "lf_bad")]);
        let before = errs.get();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LfExecutor::new().apply(&bad, &c, &ids)
        }));
        // The matrix layer still rejects the votes (panicking on the
        // first one); the guard flushes what it saw during unwinding.
        assert!(result.is_err(), "illegal votes are rejected downstream");
        assert_eq!(errs.get() - before, 1);
    }

    #[test]
    fn empty_inputs() {
        let (c, _) = corpus(3);
        let lambda = LfExecutor::new().apply(&suite(), &c, &[]);
        assert_eq!(lambda.num_points(), 0);
        let no_lfs = LfExecutor::new().apply(&[], &c, &c.candidate_ids().collect::<Vec<_>>());
        assert_eq!(no_lfs.num_lfs(), 0);
        assert_eq!(no_lfs.nnz(), 0);
    }
}
