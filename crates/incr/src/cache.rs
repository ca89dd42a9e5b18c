//! The content-addressed LF-result cache.
//!
//! Conceptually a map `(lf_fingerprint, candidate) → vote`; physically
//! one sparse *column* per fingerprint, aligned to the session's
//! candidate ordering, because votes are always produced and consumed a
//! column at a time. Each column records how many candidate rows it
//! covers, so ingesting a new batch extends columns in place instead of
//! recomputing them.
//!
//! ## Invalidation rules
//!
//! * **LF edited** → its fingerprint changes → the old column is simply
//!   never asked for again (and ages out by LRU); the new fingerprint
//!   misses and is recomputed. Columns of *other* LFs are untouched —
//!   this is what makes a one-LF edit an `O(m)` refresh instead of
//!   `O(n·m)`.
//! * **Candidates ingested** → every column's `rows` falls behind the
//!   session's candidate count → each column is *extended* by executing
//!   only the new rows.
//! * **Candidate content mutated in place** (outside the append-only
//!   contract) → nothing in the key changes, so the cache would serve
//!   stale votes. The `IncrementalSession` documents this as the
//!   append-only corpus contract: mutated content needs a new session.
//!
//! Superseded columns (old LF versions) are kept until LRU capacity
//! pressure evicts them, so *reverting* an edit whose fingerprint is
//! content-derived is a full cache hit.

use std::collections::HashMap;

use snorkel_matrix::Vote;

use crate::fingerprint::Fingerprint;

/// One cached sparse column: non-abstain `(row, vote)` entries sorted by
/// row, covering candidate rows `0..rows`.
#[derive(Clone, Debug)]
struct CachedColumn {
    rows: usize,
    entries: Vec<(u32, Vote)>,
    last_used: u64,
}

/// Cumulative cache statistics (monotone across the session).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Column lookups that were fully served from cache.
    pub hits: u64,
    /// Column lookups that required computing the column from scratch.
    pub misses: u64,
    /// Column lookups served by extending a cached prefix to new rows.
    pub extensions: u64,
    /// Columns evicted by capacity pressure.
    pub evictions: u64,
}

/// One exported cache column (see [`FrozenCache`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenColumn {
    /// The LF version this column belongs to.
    pub fingerprint: Fingerprint,
    /// Candidate rows `0..rows` the column covers.
    pub rows: usize,
    /// Non-abstain `(row, vote)` entries, sorted by row.
    pub entries: Vec<(u32, Vote)>,
}

/// Owned copy of an [`LfResultCache`]'s persistent state — the stable
/// encoding surface for on-disk snapshots (`snorkel-serve`). Columns are
/// exported in least-recently-used-first order so an import reproduces
/// the original's eviction order; the internal recency ticks themselves
/// are not part of the encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenCache {
    /// Maximum cached columns.
    pub capacity: usize,
    /// Cumulative statistics at freeze time.
    pub stats: CacheStats,
    /// Cached columns, least recently used first.
    pub columns: Vec<FrozenColumn>,
}

/// The LF-result cache. See the module docs for the key scheme and the
/// invalidation rules.
#[derive(Clone, Debug)]
pub struct LfResultCache {
    columns: HashMap<Fingerprint, CachedColumn>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl LfResultCache {
    /// An empty cache holding at most `capacity` columns (old LF
    /// versions beyond the live suite age out LRU-first).
    pub fn new(capacity: usize) -> Self {
        LfResultCache {
            columns: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached columns (live + superseded).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Maximum number of cached columns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Rows covered by the column cached under `fp` (0 when absent).
    pub fn rows(&self, fp: Fingerprint) -> usize {
        self.columns.get(&fp).map_or(0, |c| c.rows)
    }

    /// The rows covered by and the entries of the column cached under
    /// `fp`, leaving its recency alone (a read that must not change
    /// which column is evicted later). `None` when the fingerprint is
    /// absent.
    pub fn peek(&self, fp: Fingerprint) -> Option<(usize, &[(u32, Vote)])> {
        self.columns
            .get(&fp)
            .map(|c| (c.rows, c.entries.as_slice()))
    }

    /// The cached entries for `fp`, bumping its recency. `None` when the
    /// fingerprint is absent.
    pub fn entries(&mut self, fp: Fingerprint) -> Option<&[(u32, Vote)]> {
        self.tick += 1;
        let tick = self.tick;
        match self.columns.get_mut(&fp) {
            Some(col) => {
                col.last_used = tick;
                Some(&col.entries)
            }
            None => None,
        }
    }

    /// Record a cache-hit lookup (the caller found `rows()` sufficient).
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Install a freshly computed full column covering `rows` rows.
    pub fn insert(&mut self, fp: Fingerprint, rows: usize, entries: Vec<(u32, Vote)>) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.last().is_none_or(|e| (e.0 as usize) < rows));
        self.stats.misses += 1;
        self.tick += 1;
        self.columns.insert(
            fp,
            CachedColumn {
                rows,
                entries,
                last_used: self.tick,
            },
        );
    }

    /// Extend `fp`'s column to cover `rows` rows with `extra` entries
    /// (row indices already absolute, all ≥ the column's current
    /// coverage).
    pub fn extend(&mut self, fp: Fingerprint, rows: usize, extra: Vec<(u32, Vote)>) {
        self.stats.extensions += 1;
        self.tick += 1;
        let tick = self.tick;
        let col = self
            .columns
            .get_mut(&fp)
            .expect("extend requires a cached column");
        debug_assert!(extra.first().is_none_or(|e| (e.0 as usize) >= col.rows));
        debug_assert!(rows >= col.rows);
        col.entries.extend(extra);
        col.rows = rows;
        col.last_used = tick;
    }

    /// Evict least-recently-used columns down to capacity, never evicting
    /// a pinned (live-suite) fingerprint.
    pub fn evict_to_capacity(&mut self, pinned: &[Fingerprint]) {
        while self.columns.len() > self.capacity {
            let victim = self
                .columns
                .iter()
                .filter(|(fp, _)| !pinned.contains(fp))
                .min_by_key(|(_, col)| col.last_used)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    self.columns.remove(&fp);
                    self.stats.evictions += 1;
                }
                None => break, // everything live is pinned
            }
        }
    }

    /// Export the persistent state (see [`FrozenCache`]).
    pub fn export(&self) -> FrozenCache {
        let mut order: Vec<(&Fingerprint, &CachedColumn)> = self.columns.iter().collect();
        order.sort_by_key(|(_, col)| col.last_used);
        FrozenCache {
            capacity: self.capacity,
            stats: self.stats,
            columns: order
                .into_iter()
                .map(|(fp, col)| FrozenColumn {
                    fingerprint: *fp,
                    rows: col.rows,
                    entries: col.entries.clone(),
                })
                .collect(),
        }
    }

    /// Rebuild a cache from exported state, re-deriving recency from the
    /// export order. Untrusted input (a snapshot file) comes through
    /// here, so the column invariants the hot paths debug-assert are
    /// validated for real: entries sorted strictly by row, within the
    /// covered range, votes legal for the session's `cardinality` vote
    /// scheme, and one column per fingerprint.
    pub fn import(frozen: FrozenCache, cardinality: u8) -> Result<LfResultCache, String> {
        let mut cache = LfResultCache::new(frozen.capacity);
        cache.stats = frozen.stats;
        for col in frozen.columns {
            if col.entries.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(format!(
                    "column {}: entries not strictly sorted by row",
                    col.fingerprint
                ));
            }
            if let Some(&(row, v)) = col
                .entries
                .iter()
                .find(|&&(_, v)| !snorkel_matrix::is_legal_vote(cardinality, v))
            {
                return Err(format!(
                    "column {}: vote {v} at row {row} illegal for cardinality {cardinality}",
                    col.fingerprint
                ));
            }
            if col
                .entries
                .last()
                .is_some_and(|e| (e.0 as usize) >= col.rows)
            {
                return Err(format!(
                    "column {}: entry row beyond covered range {}",
                    col.fingerprint, col.rows
                ));
            }
            cache.tick += 1;
            let prev = cache.columns.insert(
                col.fingerprint,
                CachedColumn {
                    rows: col.rows,
                    entries: col.entries,
                    last_used: cache.tick,
                },
            );
            if prev.is_some() {
                return Err(format!("duplicate cached column {}", col.fingerprint));
            }
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of("lf", n)
    }

    #[test]
    fn insert_lookup_extend() {
        let mut cache = LfResultCache::new(8);
        assert_eq!(cache.rows(fp(1)), 0);
        cache.insert(fp(1), 10, vec![(0, 1), (7, -1)]);
        assert_eq!(cache.rows(fp(1)), 10);
        assert_eq!(cache.entries(fp(1)).unwrap(), &[(0, 1), (7, -1)]);
        cache.extend(fp(1), 15, vec![(12, 1)]);
        assert_eq!(cache.rows(fp(1)), 15);
        assert_eq!(cache.entries(fp(1)).unwrap(), &[(0, 1), (7, -1), (12, 1)]);
        let s = cache.stats();
        assert_eq!((s.misses, s.extensions), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_pins() {
        let mut cache = LfResultCache::new(2);
        cache.insert(fp(1), 5, vec![]);
        cache.insert(fp(2), 5, vec![]);
        cache.insert(fp(3), 5, vec![]);
        // fp(1) is oldest but pinned; fp(2) goes.
        cache.evict_to_capacity(&[fp(1)]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.rows(fp(2)), 0, "LRU unpinned column evicted");
        assert_eq!(cache.rows(fp(1)), 5);
        assert_eq!(cache.rows(fp(3)), 5);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn export_import_preserves_state_and_lru_order() {
        let mut cache = LfResultCache::new(2);
        cache.insert(fp(1), 5, vec![(0, 1)]);
        cache.insert(fp(2), 5, vec![(3, -1)]);
        cache.entries(fp(1)); // bump fp(1) to most-recent
        let frozen = cache.export();
        assert_eq!(frozen.columns[0].fingerprint, fp(2), "LRU-first order");
        let mut back = LfResultCache::import(frozen, 2).unwrap();
        assert_eq!(back.rows(fp(1)), 5);
        assert_eq!(back.stats().misses, 2);
        // Recency carried over: under pressure, fp(2) evicts first
        // (fp(1) was bumped before the freeze).
        back.insert(fp(3), 5, vec![]);
        back.evict_to_capacity(&[]);
        assert_eq!(back.rows(fp(2)), 0, "imported LRU order drives eviction");
        assert_eq!(back.rows(fp(1)), 5);
        assert_eq!(back.entries(fp(1)).unwrap(), &[(0, 1)]);
    }

    #[test]
    fn peek_leaves_recency_alone() {
        let mut cache = LfResultCache::new(2);
        cache.insert(fp(1), 5, vec![(0, 1)]);
        cache.insert(fp(2), 5, vec![(3, -1)]);
        assert_eq!(cache.peek(fp(1)), Some((5, &[(0, 1)][..])));
        assert_eq!(cache.peek(fp(3)), None);
        // fp(1) is still the least recently used: it goes first.
        cache.insert(fp(3), 5, vec![]);
        cache.evict_to_capacity(&[]);
        assert_eq!(cache.rows(fp(1)), 0, "peek must not bump recency");
        assert_eq!(cache.rows(fp(2)), 5);
    }

    #[test]
    fn import_rejects_corruption() {
        let mut cache = LfResultCache::new(4);
        cache.insert(fp(1), 5, vec![(0, 1), (3, -1)]);
        // Unsorted entries.
        let mut frozen = cache.export();
        frozen.columns[0].entries.reverse();
        assert!(LfResultCache::import(frozen, 2).is_err());
        // Entry beyond coverage.
        let mut frozen = cache.export();
        frozen.columns[0].rows = 2;
        assert!(LfResultCache::import(frozen, 2).is_err());
        // Illegal vote for the scheme.
        let mut frozen = cache.export();
        frozen.columns[0].entries[0].1 = 3;
        assert!(LfResultCache::import(frozen, 2).is_err());
        // Duplicate fingerprint.
        let mut frozen = cache.export();
        let dup = frozen.columns[0].clone();
        frozen.columns.push(dup);
        assert!(LfResultCache::import(frozen, 2).is_err());
    }

    #[test]
    fn fully_pinned_cache_never_evicts() {
        let mut cache = LfResultCache::new(1);
        cache.insert(fp(1), 5, vec![]);
        cache.insert(fp(2), 5, vec![]);
        cache.evict_to_capacity(&[fp(1), fp(2)]);
        assert_eq!(cache.len(), 2, "pinned columns survive over-capacity");
    }
}
