//! Sharded execution over a label matrix: contiguous row-range shards,
//! each with its own [`PatternIndex`], mapped across worker threads and
//! merged **in shard order**.
//!
//! The shard partition is fixed when the plan is built (`ceil(m /
//! shards)` rows each) and never depends on how many worker threads end
//! up running, so any reduction that merges per-shard results in shard
//! index order is deterministic regardless of thread count — the same
//! contract as [`LfExecutor`](../snorkel_lf/struct.LfExecutor.html)'s
//! chunked LF application. Appended row batches extend the *tail* shard
//! (rebalancing the partition once the tail outgrows the other shards),
//! and column splices re-sign only the touched patterns of each shard.
//!
//! An auto-sized plan (`build(λ, 0)`) takes one shard per 4 096 rows,
//! at least one and at most one per core: below 8 192 rows it is a
//! single shard whose passes run inline on the caller's thread, so a
//! small matrix never pays for thread spawns. Only the shard *count*
//! depends on the core count; results for a given partition never
//! depend on the worker count.

use crate::csr::LabelMatrix;
use crate::pattern::{PatternIndex, PatternIndexParts, ResignScratch};

/// Rows per shard of an auto-sized plan (see [`ShardedMatrix::build`]).
const ROWS_PER_AUTO_SHARD: usize = 4096;

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Shard count of an auto-sized plan over `m` rows:
/// `min(cores, max(1, m / ROWS_PER_AUTO_SHARD))`.
fn auto_shard_count(m: usize, cores: usize) -> usize {
    cores.min((m / ROWS_PER_AUTO_SHARD).max(1))
}

/// Owned copy of a [`ShardedMatrix`]'s persistent state — the stable
/// encoding surface for on-disk snapshots. The worker count is *not*
/// encoded: it is an execution detail re-derived from the restoring
/// machine's parallelism, and results never depend on it (the merge
/// order is fixed by shard index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedMatrixParts {
    /// LF-column count of the matrix the plan was built for.
    pub num_lfs: usize,
    /// Per-shard pattern-index state, in row order.
    pub shards: Vec<PatternIndexParts>,
}

/// A label matrix partitioned into row-range shards with per-shard
/// pattern indexes. Built against one matrix and kept in sync with it by
/// the caller (see the update methods); every consumer asserts the shape
/// still matches.
#[derive(Clone, Debug)]
pub struct ShardedMatrix {
    n: usize,
    shards: Vec<PatternIndex>,
    workers: usize,
    /// For an auto-sized plan, the core count read when it was built:
    /// [`Self::append_rows`] raises the shard count up to it as rows
    /// arrive (kept so an append never pays the ≈ 20 µs cgroup read of
    /// `available_parallelism`). `None` for an explicitly sized plan.
    auto_cores: Option<usize>,
}

impl ShardedMatrix {
    /// Partition `lambda` into `num_shards` contiguous row ranges and
    /// index each. `num_shards == 0` auto-sizes the plan:
    /// `min(cores, max(1, m / 4096))` shards, so a matrix under 8 192
    /// rows is one shard whose passes run on the caller's thread. An
    /// explicit count is clamped to the row count (min 1). Shards are
    /// built in parallel; the result is identical for any worker count.
    pub fn build(lambda: &LabelMatrix, num_shards: usize) -> Self {
        let m = lambda.num_points();
        let cores = available_cores();
        if num_shards == 0 {
            Self::partition(lambda, auto_shard_count(m, cores), cores, Some(cores))
        } else {
            Self::partition(lambda, num_shards.clamp(1, m.max(1)), cores, None)
        }
    }

    fn partition(
        lambda: &LabelMatrix,
        count: usize,
        cores: usize,
        auto_cores: Option<usize>,
    ) -> Self {
        let m = lambda.num_points();
        let chunk = m.div_ceil(count);
        let ranges: Vec<(usize, usize)> = (0..count)
            .map(|s| ((s * chunk).min(m), ((s + 1) * chunk).min(m)))
            .collect();
        let workers = count.min(cores);
        let shards = if workers <= 1 {
            ranges
                .iter()
                .map(|&(lo, hi)| PatternIndex::build_range(lambda, lo, hi))
                .collect()
        } else {
            let per = ranges.len().div_ceil(workers);
            let mut out: Vec<PatternIndex> = Vec::with_capacity(count);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for batch in ranges.chunks(per) {
                    handles.push(scope.spawn(move || {
                        batch
                            .iter()
                            .map(|&(lo, hi)| PatternIndex::build_range(lambda, lo, hi))
                            .collect::<Vec<_>>()
                    }));
                }
                for h in handles {
                    out.extend(h.join().expect("shard indexing worker panicked"));
                }
            });
            out
        };
        ShardedMatrix {
            n: lambda.num_lfs(),
            shards,
            workers,
            auto_cores,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of LF columns of the matrix this plan was built for.
    pub fn num_lfs(&self) -> usize {
        self.n
    }

    /// Total rows covered across shards.
    pub fn num_rows(&self) -> usize {
        self.shards.iter().map(PatternIndex::num_rows).sum()
    }

    /// Total distinct patterns across shards (a signature present in two
    /// shards counts twice — shards never share pattern ids).
    pub fn num_patterns(&self) -> usize {
        self.shards.iter().map(PatternIndex::num_patterns).sum()
    }

    /// Rows per distinct pattern, aggregated over shards.
    pub fn dedup_ratio(&self) -> f64 {
        let p = self.num_patterns();
        if p == 0 {
            1.0
        } else {
            self.num_rows() as f64 / p as f64
        }
    }

    /// The per-shard pattern indexes, in row order.
    pub fn shards(&self) -> &[PatternIndex] {
        &self.shards
    }

    /// Map `f` over every shard, in parallel across the plan's workers,
    /// returning results **in shard order** — merge them left to right
    /// for a reduction that does not depend on thread count.
    pub fn map_shards<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&PatternIndex) -> T + Sync,
    {
        let workers = self.workers.min(self.shards.len());
        if workers <= 1 {
            return self.shards.iter().map(f).collect();
        }
        let per = self.shards.len().div_ceil(workers);
        let mut out: Vec<T> = Vec::with_capacity(self.shards.len());
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for batch in self.shards.chunks(per) {
                handles.push(scope.spawn(move || batch.iter().map(f).collect::<Vec<_>>()));
            }
            for h in handles {
                out.extend(h.join().expect("shard worker panicked"));
            }
        });
        out
    }

    /// Run `f` over every shard in parallel, handing each shard its own
    /// caller-owned scratch slot — the reuse-friendly counterpart of
    /// [`Self::map_shards`] for passes that run many times over the
    /// same plan (the EM/Newton sufficient-statistics loop): the caller
    /// keeps the scratch pool alive across passes, so per-shard
    /// accumulators are allocated once per fit instead of once per
    /// iteration. Slot `i` always pairs with shard `i`, whatever the
    /// thread count.
    ///
    /// Panics unless `scratch.len() == self.shards().len()`.
    pub fn for_each_shard_with<S, F>(&self, scratch: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&PatternIndex, &mut S) + Sync,
    {
        assert_eq!(
            scratch.len(),
            self.shards.len(),
            "one scratch slot per shard"
        );
        let workers = self.workers.min(self.shards.len());
        if workers <= 1 {
            for (shard, slot) in self.shards.iter().zip(scratch.iter_mut()) {
                f(shard, slot);
            }
            return;
        }
        let per = self.shards.len().div_ceil(workers);
        let f = &f;
        std::thread::scope(|scope| {
            for (shards, slots) in self.shards.chunks(per).zip(scratch.chunks_mut(per)) {
                scope.spawn(move || {
                    for (shard, slot) in shards.iter().zip(slots.iter_mut()) {
                        f(shard, slot);
                    }
                });
            }
        });
    }

    /// Absorb rows appended to the backing matrix: the tail shard
    /// extends to the new row count, interning only the new rows. When
    /// repeated appends leave the tail holding more than twice the rows
    /// of an average other shard — which would bottleneck every
    /// `map_shards` pass on one worker — the plan rebalances by
    /// rebuilding its partition at the same shard count (so a growing
    /// plan rebuilds each time its rows grow by a factor
    /// `1 + 1/shards`). An auto-sized plan that has grown into more
    /// shards (see [`Self::build`]) rebuilds at that count instead; no
    /// plan ever loses shards.
    pub fn append_rows(&mut self, lambda: &LabelMatrix) {
        let covered = self.num_rows();
        let m = lambda.num_points();
        assert!(
            m >= covered,
            "matrix shrank below the sharded plan ({m} < {covered} rows)"
        );
        let count = self.shards.len();
        if let Some(cores) = self.auto_cores {
            let grown = auto_shard_count(m, cores);
            if grown > count {
                *self = Self::partition(lambda, grown, cores, Some(cores));
                return;
            }
        }
        let tail = self.shards.last_mut().expect("plans have ≥1 shard");
        tail.extend_to(lambda, m);
        let tail_rows = tail.num_rows();
        if count > 1 && tail_rows * (count - 1) > 2 * (m - tail_rows) {
            *self = Self::partition(lambda, count, self.workers, self.auto_cores);
        }
    }

    /// Absorb a column replace/append: each shard re-signs only its
    /// touched rows (see [`PatternIndex::refresh_column`]). Not valid
    /// after a column removal — rebuild instead.
    pub fn refresh_column(&mut self, lambda: &LabelMatrix, col: usize) {
        self.refresh_column_with(lambda, col, &mut ResignScratch::new());
    }

    /// [`Self::refresh_column`] with caller-owned scratch, shared
    /// across the shard loop (each shard resets it before use); see
    /// [`PatternIndex::refresh_column_with`].
    pub fn refresh_column_with(
        &mut self,
        lambda: &LabelMatrix,
        col: usize,
        scratch: &mut ResignScratch,
    ) {
        self.n = lambda.num_lfs();
        for shard in self.shards.iter_mut() {
            shard.refresh_column_with(lambda, col, scratch);
        }
    }

    /// Export the persistent state (see [`ShardedMatrixParts`]).
    pub fn to_parts(&self) -> ShardedMatrixParts {
        ShardedMatrixParts {
            num_lfs: self.n,
            shards: self.shards.iter().map(PatternIndex::to_parts).collect(),
        }
    }

    /// Rebuild a plan from exported parts, re-deriving the worker count
    /// from this machine's parallelism. The restored plan is auto-sized
    /// (it keeps its shard count and grows like a `build(λ, 0)` plan as
    /// rows are appended). Shards must be non-empty in count,
    /// contiguous, and individually well-formed; consistency with a
    /// backing matrix is the caller's check ([`Self::validate`]).
    pub fn from_parts(parts: ShardedMatrixParts) -> Result<ShardedMatrix, String> {
        if parts.shards.is_empty() {
            return Err("a plan needs at least one shard".into());
        }
        let mut shards = Vec::with_capacity(parts.shards.len());
        let mut next = 0usize;
        for (s, shard_parts) in parts.shards.into_iter().enumerate() {
            let shard =
                PatternIndex::from_parts(shard_parts).map_err(|e| format!("shard {s}: {e}"))?;
            if shard.start_row() != next {
                return Err(format!(
                    "shard {s} starts at {} but previous shard ended at {next}",
                    shard.start_row()
                ));
            }
            next = shard.row_range().end;
            shards.push(shard);
        }
        let cores = available_cores();
        Ok(ShardedMatrix {
            n: parts.num_lfs,
            workers: shards.len().min(cores),
            shards,
            auto_cores: Some(cores),
        })
    }

    /// Validate shard contiguity, coverage of the whole matrix, and
    /// every per-shard invariant. Returns the first violation.
    pub fn validate(&self, lambda: &LabelMatrix) -> Result<(), String> {
        if self.n != lambda.num_lfs() {
            return Err(format!(
                "plan built for {} LFs but matrix has {}",
                self.n,
                lambda.num_lfs()
            ));
        }
        let mut next = 0usize;
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.start_row() != next {
                return Err(format!(
                    "shard {s} starts at {} but previous shard ended at {next}",
                    shard.start_row()
                ));
            }
            next = shard.row_range().end;
            shard
                .validate(lambda)
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        if next != lambda.num_points() {
            return Err(format!(
                "shards cover {next} rows but matrix has {}",
                lambda.num_points()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{LabelMatrixBuilder, Vote};
    use crate::MatrixDelta;

    fn sample(m: usize) -> LabelMatrix {
        let mut b = LabelMatrixBuilder::new(m, 4);
        for i in 0..m {
            match i % 3 {
                0 => {
                    b.set(i, 0, 1);
                    b.set(i, 2, -1);
                }
                1 => b.set(i, 1, 1),
                _ => {}
            }
        }
        b.build()
    }

    #[test]
    fn partition_is_contiguous_and_valid() {
        let lambda = sample(23);
        for shards in [1, 2, 3, 7, 23, 40] {
            let plan = ShardedMatrix::build(&lambda, shards);
            plan.validate(&lambda).unwrap();
            assert_eq!(plan.num_rows(), 23);
            assert!(plan.num_shards() <= 23);
            if shards <= 23 {
                assert_eq!(plan.num_shards(), shards);
            }
        }
        // 0 = auto-sized: one shard at this size.
        let plan = ShardedMatrix::build(&lambda, 0);
        plan.validate(&lambda).unwrap();
        assert_eq!(plan.num_shards(), 1);
    }

    #[test]
    fn small_auto_plans_are_one_shard_run_on_the_callers_thread() {
        let lambda = sample(8191);
        let plan = ShardedMatrix::build(&lambda, 0);
        assert_eq!(plan.num_shards(), 1);
        let caller = std::thread::current().id();
        assert_eq!(
            plan.map_shards(|_| std::thread::current().id()),
            vec![caller]
        );
        let mut slots = vec![None];
        plan.for_each_shard_with(&mut slots, |_, slot| {
            *slot = Some(std::thread::current().id())
        });
        assert_eq!(slots, vec![Some(caller)]);
    }

    #[test]
    fn auto_plans_grow_with_appends_explicit_plans_keep_their_count() {
        let mut lambda = sample(4000);
        let mut auto = ShardedMatrix::build(&lambda, 0);
        let mut fixed = ShardedMatrix::build(&lambda, 1);
        assert_eq!(auto.num_shards(), 1);
        while lambda.num_points() < 20_000 {
            let shards_before = auto.num_shards();
            let rows: Vec<Vec<(u32, Vote)>> = (0..1000).map(|r| vec![(r % 4, 1)]).collect();
            lambda.apply_delta(&MatrixDelta::AppendRows { rows });
            auto.append_rows(&lambda);
            fixed.append_rows(&lambda);
            auto.validate(&lambda).unwrap();
            fixed.validate(&lambda).unwrap();
            assert!(auto.num_shards() >= shards_before, "a plan lost shards");
        }
        assert_eq!(
            auto.num_shards(),
            ShardedMatrix::build(&lambda, 0).num_shards()
        );
        assert_eq!(fixed.num_shards(), 1);
    }

    #[test]
    fn map_shards_returns_shard_order() {
        let lambda = sample(30);
        let plan = ShardedMatrix::build(&lambda, 4);
        let starts = plan.map_shards(|idx| idx.start_row());
        let expected: Vec<usize> = plan.shards().iter().map(|s| s.start_row()).collect();
        assert_eq!(starts, expected);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn append_rows_extends_tail_shard() {
        let mut lambda = sample(10);
        let mut plan = ShardedMatrix::build(&lambda, 3);
        lambda.apply_delta(&MatrixDelta::AppendRows {
            rows: vec![vec![(0, 1)], vec![], vec![(3, -1)]],
        });
        plan.append_rows(&lambda);
        plan.validate(&lambda).unwrap();
        assert_eq!(plan.num_rows(), 13);
        assert_eq!(plan.num_shards(), 3);
    }

    #[test]
    fn repeated_appends_rebalance_the_tail() {
        for shards in [2, 3] {
            let mut lambda = sample(30);
            let mut plan = ShardedMatrix::build(&lambda, shards);
            // Grow 30 → 300 rows in batches; without rebalancing the
            // tail shard would hold 270+ of 300 rows.
            for _ in 0..9 {
                let rows: Vec<Vec<(u32, Vote)>> = (0..30).map(|r| vec![(r % 4, 1)]).collect();
                lambda.apply_delta(&MatrixDelta::AppendRows { rows });
                plan.append_rows(&lambda);
                plan.validate(&lambda).unwrap();
                assert_eq!(plan.num_shards(), shards);
                let tail = plan.shards()[shards - 1].num_rows();
                let others = lambda.num_points() - tail;
                assert!(
                    tail * (shards - 1) <= 2 * others,
                    "{shards} shards: the tail holds {tail} rows, the others {others}"
                );
            }
        }
    }

    #[test]
    fn refresh_column_keeps_all_shards_consistent() {
        let mut lambda = sample(17);
        let mut plan = ShardedMatrix::build(&lambda, 4);
        lambda.apply_delta(&MatrixDelta::ReplaceColumn {
            col: 2,
            entries: vec![(1, 1), (8, 1), (16, -1)],
        });
        plan.refresh_column(&lambda, 2);
        plan.validate(&lambda).unwrap();
    }

    #[test]
    fn parts_round_trip() {
        let lambda = sample(23);
        let plan = ShardedMatrix::build(&lambda, 4);
        let back = ShardedMatrix::from_parts(plan.to_parts()).unwrap();
        back.validate(&lambda).unwrap();
        assert_eq!(back.num_shards(), plan.num_shards());
        assert_eq!(back.num_patterns(), plan.num_patterns());
        assert_eq!(back.num_lfs(), plan.num_lfs());
    }

    #[test]
    fn from_parts_rejects_gaps() {
        let lambda = sample(23);
        let plan = ShardedMatrix::build(&lambda, 4);
        let mut parts = plan.to_parts();
        parts.shards[1].start += 1; // breaks contiguity twice over
        assert!(ShardedMatrix::from_parts(parts).is_err());
        assert!(ShardedMatrix::from_parts(ShardedMatrixParts {
            num_lfs: 4,
            shards: vec![],
        })
        .is_err());
    }

    #[test]
    fn empty_matrix_gets_one_empty_shard() {
        let lambda = LabelMatrixBuilder::new(0, 2).build();
        let plan = ShardedMatrix::build(&lambda, 0);
        plan.validate(&lambda).unwrap();
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.num_patterns(), 0);
    }
}
