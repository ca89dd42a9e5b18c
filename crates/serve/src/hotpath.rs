//! The allocation-free read path for the batched binary verbs.
//!
//! At deployment scale the server answers the same small family of
//! `OP_MARGINAL` / `OP_PREDICT` requests millions of times, and the
//! per-request heap churn of the straightforward implementation — a
//! `Vec` per decoded vote row, a `String` per feature name, a fresh
//! posterior `Vec` per reply row, a `HashMap` key clone per memo probe
//! — costs more than the posterior arithmetic it wraps. This module is
//! the reset-and-reuse rewrite:
//!
//! * [`ReadScratch`] — one per worker thread: every buffer a request
//!   decode or posterior batch needs, grown to the traffic's high-water
//!   mark and reset (not freed) per request.
//! * [`SigMemo`] — the per-generation posterior memo in
//!   structure-of-arrays form: flat signature/posterior arenas plus an
//!   open-addressing probe table, so a steady-state lookup borrows
//!   `&[f64]` straight out of the arena with zero allocations and zero
//!   hashing-related clones.
//! * [`decode_marginal`] / [`decode_predict`] — zero-copy decoders
//!   that validate exactly what [`crate::frame::decode_request`]
//!   validates (same error strings, property-tested) but write into
//!   the scratch arenas instead of fresh `Vec`s.
//! * [`compute_marginal`] / [`compute_predict`] — the batch cores both
//!   wire planes route through, on the `*_into` kernels (the only
//!   implementation of each posterior; the allocating forms wrap
//!   them). [`posterior_row`] is the per-row step they share with text
//!   `APPLY`.
//!
//! The zero-allocation claim is enforced, not aspirational:
//! `tests/no_alloc_read_path.rs` runs the steady-state batch path
//! under a counting global allocator and asserts **0 allocations per
//! request** (in release mode; debug builds only report). The
//! normative per-verb budgets live in `docs/PERFORMANCE.md`.

use std::sync::Mutex;

use snorkel_arena::ScratchVec;
use snorkel_core::label_model::{LabelModel, MajorityVoteModel};
use snorkel_core::model::LabelScheme;
use snorkel_incr::IncrementalSession;
use snorkel_lf::Vote;
use snorkel_linalg::SparseVec;

use crate::core::lock_unpoisoned;
use crate::frame;
use crate::wire::Reader;

/// Cap on memoized signatures — deployment traffic has few distinct
/// patterns; a cap this size only matters under adversarial query
/// diversity, where we fall back to recomputing.
pub const MEMO_CAP: usize = 65_536;

/// Slots the probe table starts with (power of two; grows by doubling).
const INITIAL_TABLE: usize = 1024;

/// Memoized posteriors per vote signature, valid for one generation —
/// the structure-of-arrays replacement for the `HashMap` memo.
///
/// Keys (vote signatures) and values (posterior rows) live in flat
/// arenas addressed by per-entry bounds, exactly the layout the
/// training-side `PatternIndex` uses for the same data. An
/// open-addressing table of entry indices (linear probing, power-of-two
/// capacity) makes lookup a hash + slice compare: no key clone to
/// probe, no `Vec` clone to return — a hit borrows the arena.
///
/// A generation bump ([`Self::begin_generation`]) resets the arenas
/// and zeroes the table without freeing either, so the memo re-warms
/// after a `REFRESH` without re-allocating.
pub struct SigMemo {
    generation: u64,
    /// Flat signature arena: entry `e`'s columns and votes are the
    /// `key_bounds[e]` range of these two parallel arrays.
    key_cols: Vec<u32>,
    key_votes: Vec<Vote>,
    key_bounds: Vec<(u32, u32)>,
    /// Flat posterior arena, addressed by `val_bounds`.
    vals: Vec<f64>,
    val_bounds: Vec<(u32, u32)>,
    /// Probe table: entry index + 1, `0` = empty.
    table: Vec<u32>,
}

impl Default for SigMemo {
    fn default() -> Self {
        SigMemo::new()
    }
}

impl SigMemo {
    /// An empty memo at generation 0 (no allocation until first use).
    pub fn new() -> SigMemo {
        SigMemo {
            generation: 0,
            key_cols: Vec::new(),
            key_votes: Vec::new(),
            key_bounds: Vec::new(),
            vals: Vec::new(),
            val_bounds: Vec::new(),
            table: Vec::new(),
        }
    }

    /// The generation the memoized posteriors belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of memoized signatures.
    pub fn len(&self) -> usize {
        self.key_bounds.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.key_bounds.is_empty()
    }

    /// High-water heap footprint in bytes (capacities, which never
    /// shrink across generations).
    pub fn bytes(&self) -> usize {
        self.key_cols.capacity() * std::mem::size_of::<u32>()
            + self.key_votes.capacity() * std::mem::size_of::<Vote>()
            + self.key_bounds.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
            + self.val_bounds.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// Invalidate everything and adopt `gen`: arenas reset, table
    /// zeroed, all capacity retained.
    pub fn begin_generation(&mut self, gen: u64) {
        self.generation = gen;
        self.key_cols.clear();
        self.key_votes.clear();
        self.key_bounds.clear();
        self.vals.clear();
        self.val_bounds.clear();
        self.table.iter_mut().for_each(|slot| *slot = 0);
    }

    /// FNV-1a over the signature bytes, with the length folded in so a
    /// prefix signature does not collide with its extension trivially.
    fn hash(cols: &[u32], votes: &[Vote]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for (&c, &v) in cols.iter().zip(votes) {
            for b in c.to_le_bytes() {
                mix(b);
            }
            mix(v as u8);
        }
        h ^ cols.len() as u64
    }

    fn key_at(&self, e: usize) -> (&[u32], &[Vote]) {
        let (off, len) = self.key_bounds[e];
        let (off, len) = (off as usize, len as usize);
        (
            &self.key_cols[off..off + len],
            &self.key_votes[off..off + len],
        )
    }

    /// The memoized posterior for a signature, if present. Borrows the
    /// value arena — nothing is cloned or allocated on a hit or a miss.
    pub fn lookup(&self, cols: &[u32], votes: &[Vote]) -> Option<&[f64]> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = (Self::hash(cols, votes) as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == 0 {
                return None;
            }
            let e = (slot - 1) as usize;
            let (kc, kv) = self.key_at(e);
            if kc == cols && kv == votes {
                let (off, len) = self.val_bounds[e];
                return Some(&self.vals[off as usize..(off + len) as usize]);
            }
            i = (i + 1) & mask;
        }
    }

    /// Memoize one signature's posterior. A no-op at [`MEMO_CAP`] or if
    /// the signature is already present (the values would be identical:
    /// same generation, same model). Growth (arena append, table
    /// doubling) allocates — that happens only while the signature set
    /// is still being discovered, never in the steady state of repeated
    /// lookups.
    pub fn insert(&mut self, cols: &[u32], votes: &[Vote], probs: &[f64]) {
        if self.len() >= MEMO_CAP || self.lookup(cols, votes).is_some() {
            return;
        }
        self.grow_table_if_loaded();
        let e = self.key_bounds.len();
        self.key_bounds
            .push((self.key_cols.len() as u32, cols.len() as u32));
        self.key_cols.extend_from_slice(cols);
        self.key_votes.extend_from_slice(votes);
        self.val_bounds
            .push((self.vals.len() as u32, probs.len() as u32));
        self.vals.extend_from_slice(probs);
        let mask = self.table.len() - 1;
        let mut i = (Self::hash(cols, votes) as usize) & mask;
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = (e + 1) as u32;
    }

    /// Keep the probe table under ~70% load (doubling + rehash).
    fn grow_table_if_loaded(&mut self) {
        if self.table.is_empty() {
            self.table = vec![0; INITIAL_TABLE];
            return;
        }
        if (self.len() + 1) * 10 < self.table.len() * 7 {
            return;
        }
        let new_len = self.table.len() * 2;
        let mut table = vec![0u32; new_len];
        let mask = new_len - 1;
        for e in 0..self.key_bounds.len() {
            let (kc, kv) = self.key_at(e);
            let mut i = (Self::hash(kc, kv) as usize) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = (e + 1) as u32;
        }
        self.table = table;
    }
}

/// One worker thread's scratch arenas: everything the read path needs
/// to decode a request, compute a posterior batch, and encode the
/// reply without touching the allocator once warm. Reset per request;
/// capacity is the high-water mark of the traffic this worker has
/// seen ([`Self::bytes`] feeds the `snorkel_serve_scratch_bytes`
/// gauge).
#[derive(Default)]
pub struct ReadScratch {
    /// Decoded `OP_MARGINAL` batch, structure-of-arrays: flat columns
    /// and votes plus per-row `(offset, len)` bounds.
    cols: ScratchVec<u32>,
    votes: ScratchVec<Vote>,
    rows: ScratchVec<(u32, u32)>,
    /// Decoded `OP_PREDICT` batch: per-feature `(offset, len)` byte
    /// ranges into the request payload (zero-copy — the names stay in
    /// the connection's input buffer) plus per-row ranges into it.
    feats: ScratchVec<(u32, u32)>,
    feat_rows: ScratchVec<(u32, u32)>,
    /// Computed posterior rows, flat: row `i` at `i*width..(i+1)*width`.
    probs: ScratchVec<f64>,
    /// Row indices that missed the memo (marginal pass bookkeeping).
    pending: ScratchVec<u32>,
    /// Feature-hash staging and the reusable hashed feature vector.
    pairs: ScratchVec<(u32, f64)>,
    x: SparseVec,
}

impl ReadScratch {
    /// Empty scratch (no allocation until first use).
    pub fn new() -> ReadScratch {
        ReadScratch::default()
    }

    /// High-water heap footprint across all buffers, in bytes.
    pub fn bytes(&self) -> usize {
        self.cols.bytes()
            + self.votes.bytes()
            + self.rows.bytes()
            + self.feats.bytes()
            + self.feat_rows.bytes()
            + self.probs.bytes()
            + self.pending.bytes()
            + self.pairs.bytes()
            + self.x.capacity_bytes()
    }

    /// Load one in-memory vote row as if a one-row binary batch had
    /// been decoded — how the text `MARGINAL` handler routes through
    /// the same [`compute_marginal`] core (and the same memo) as the
    /// binary plane.
    pub fn set_vote_row(&mut self, cols: &[u32], votes: &[Vote]) {
        self.cols.reset();
        self.votes.reset();
        self.rows.reset();
        self.cols.extend_from_slice(cols);
        self.votes.extend_from_slice(votes);
        self.rows.push((0, cols.len() as u32));
    }

    /// Reset the posterior buffer to one zeroed `width`-class row for a
    /// caller that scores a single row itself (text `APPLY`,
    /// `PREDICT_TEXT`).
    pub(crate) fn start_probs(&mut self, width: usize) -> &mut [f64] {
        self.probs.reset();
        self.probs.resize(width, 0.0);
        &mut self.probs
    }

    /// The computed posterior rows, flat (row `i` of a width-`w` batch
    /// at `i*w..(i+1)*w`). Valid after a successful compute call.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

/// What a marginal batch cost and produced (the posteriors themselves
/// are in [`ReadScratch::probs`]).
pub struct MarginalOutcome {
    /// Rows answered.
    pub rows: usize,
    /// Posterior row width (number of classes).
    pub width: usize,
    /// Rows served straight from the signature memo.
    pub memo_hits: u64,
}

/// What a predict batch produced.
pub struct PredictOutcome {
    /// Rows answered.
    pub rows: usize,
    /// Posterior row width (number of classes).
    pub width: usize,
    /// Refresh generation the serving distilled model was trained on.
    pub disc_gen: u64,
}

/// Decode an `OP_MARGINAL` payload into the scratch arenas, enforcing
/// exactly what [`frame::decode_request`] enforces (same error
/// strings): non-empty batch, non-empty rows, strictly increasing
/// columns, non-abstain votes, no trailing bytes. Returns the row
/// count.
pub fn decode_marginal(payload: &[u8], scratch: &mut ReadScratch) -> Result<usize, String> {
    let mut r = Reader::new(payload);
    scratch.cols.reset();
    scratch.votes.reset();
    scratch.rows.reset();
    // A row is at least 4 bytes (its count); an entry 5.
    let n = frame::batch_len(&mut r, 4, "vote rows")?;
    for _ in 0..n {
        let k = frame::u32_len(&mut r, 5, "vote-row length")?;
        if k == 0 {
            return Err("empty vote row".into());
        }
        let start = scratch.cols.len() as u32;
        for j in 0..k {
            let col = r.u32("vote column").map_err(frame::wire_err)?;
            let vote = r.i8("vote").map_err(frame::wire_err)?;
            if j > 0 && scratch.cols.last().is_some_and(|&prev| prev >= col) {
                return Err("columns must be strictly increasing".into());
            }
            if vote == 0 {
                return Err("votes in requests must be non-abstain".into());
            }
            scratch.cols.push(col);
            scratch.votes.push(vote);
        }
        scratch.rows.push((start, k as u32));
    }
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes in frame", r.remaining()));
    }
    Ok(n)
}

/// Decode an `OP_PREDICT` payload into the scratch arenas: feature
/// names are UTF-8-validated in place and recorded as byte ranges into
/// `payload` (no copies — [`compute_predict`] reads them back out of
/// the same payload slice). Same validation and error strings as
/// [`frame::decode_request`]. Returns the row count.
pub fn decode_predict(payload: &[u8], scratch: &mut ReadScratch) -> Result<usize, String> {
    let mut r = Reader::new(payload);
    scratch.feats.reset();
    scratch.feat_rows.reset();
    let n = frame::batch_len(&mut r, 4, "feature vectors")?;
    for _ in 0..n {
        let k = frame::u32_len(&mut r, 8, "feature-vector length")?;
        if k == 0 {
            return Err("PREDICT needs at least one feature".into());
        }
        let start = scratch.feats.len() as u32;
        for _ in 0..k {
            let name = r.str_bytes("feature name").map_err(frame::wire_err)?;
            let off = (r.position() - name.len()) as u32;
            scratch.feats.push((off, name.len() as u32));
        }
        scratch.feat_rows.push((start, k as u32));
    }
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes in frame", r.remaining()));
    }
    Ok(n)
}

/// Row `i` of a decoded structure-of-arrays vote batch.
fn row_at<'a>(
    rows: &'a [(u32, u32)],
    cols: &'a [u32],
    votes: &'a [Vote],
    i: usize,
) -> (&'a [u32], &'a [Vote]) {
    let (off, len) = rows[i];
    let (off, len) = (off as usize, len as usize);
    (&cols[off..off + len], &votes[off..off + len])
}

/// Validate one vote row — every vote legal for `cardinality`, every
/// column inside the model's layout — and write its posterior into
/// `out` (`num_classes` elements): the row kernel under every entry
/// point that scores votes ([`compute_marginal`]'s miss loop, hence
/// binary `OP_MARGINAL` and text `MARGINAL`, and text `APPLY`). With
/// `model = None` the posterior is the majority vote over `num_lfs`
/// columns, mirroring the session's MV labeling path.
pub fn posterior_row(
    model: Option<&LabelModel>,
    num_lfs: usize,
    cardinality: u8,
    cols: &[u32],
    votes: &[Vote],
    out: &mut [f64],
) -> Result<(), String> {
    if let Some(&v) = votes
        .iter()
        .find(|&&v| !snorkel_matrix::is_legal_vote(cardinality, v))
    {
        return Err(format!("vote {v} illegal for cardinality {cardinality}"));
    }
    match model {
        Some(model) => {
            if let Some(&c) = cols.iter().find(|&&c| (c as usize) >= model.num_lfs()) {
                return Err(format!(
                    "column {c} out of range (model covers {} LFs)",
                    model.num_lfs()
                ));
            }
            model.posterior_into(cols, votes, out);
        }
        None => MajorityVoteModel::new(num_lfs, LabelScheme::from_cardinality(cardinality))
            .posterior_into(cols, votes, out),
    }
    Ok(())
}

/// Posteriors for the decoded vote rows, written flat into
/// `scratch.probs` — the batch core both wire planes route through,
/// under the caller's state read lock.
///
/// Memo protocol: one lock pass harvests hits — on a generation
/// mismatch the memo resets and everything is a miss — the misses are
/// computed lock-free via [`posterior_row`], and a second lock pass
/// publishes them. The batch is atomic: the first invalid row fails
/// the whole call, and nothing is published.
///
/// The memo lock nests inside the state read lock; `REFRESH` holds the
/// state write lock, so a generation observed here stays current until
/// the caller's guard drops.
pub fn compute_marginal(
    session: &IncrementalSession,
    generation: u64,
    memo: &Mutex<SigMemo>,
    scratch: &mut ReadScratch,
) -> Result<MarginalOutcome, String> {
    let cardinality = session.config().executor.cardinality;
    let width = LabelScheme::from_cardinality(cardinality).num_classes();
    let num_lfs = session.num_lfs();
    let model = session.model();
    let ReadScratch {
        cols,
        votes,
        rows,
        probs,
        pending,
        ..
    } = scratch;
    let n = rows.len();
    probs.reset();
    probs.resize(n * width, 0.0);
    pending.reset();
    let mut memo_hits = 0u64;
    // Memo pass 1: harvest hits for the whole batch under one lock.
    {
        let mut memo = lock_unpoisoned(memo);
        if memo.generation() != generation {
            memo.begin_generation(generation);
            pending.extend((0..n).map(|i| i as u32));
        } else {
            for i in 0..n {
                let (rc, rv) = row_at(rows, cols, votes, i);
                match memo.lookup(rc, rv) {
                    Some(p) => {
                        probs[i * width..(i + 1) * width].copy_from_slice(p);
                        memo_hits += 1;
                    }
                    None => pending.push(i as u32),
                }
            }
        }
    }
    // Compute the misses lock-free (the caller's state guard is held,
    // so the model cannot change under us); the first invalid row
    // fails the whole batch.
    for &i in pending.iter() {
        let (rc, rv) = row_at(rows, cols, votes, i as usize);
        let out_row = &mut probs[i as usize * width..(i as usize + 1) * width];
        posterior_row(model, num_lfs, cardinality, rc, rv, out_row)?;
    }
    // Memo pass 2: publish the new signatures under one lock.
    if !pending.is_empty() {
        let mut memo = lock_unpoisoned(memo);
        if memo.generation() == generation {
            for &i in pending.iter() {
                let (rc, rv) = row_at(rows, cols, votes, i as usize);
                let p = &probs[i as usize * width..(i as usize + 1) * width];
                memo.insert(rc, rv, p);
            }
        }
    }
    Ok(MarginalOutcome {
        rows: n,
        width,
        memo_hits,
    })
}

/// Distilled-model posteriors for the decoded feature rows, written
/// flat into `scratch.probs`, under the caller's state read lock.
/// Feature names are read back out of `payload` (the ranges
/// [`decode_predict`] recorded), hashed into the reusable sparse
/// vector, and scored through the `*_into` kernels.
pub fn compute_predict(
    session: &IncrementalSession,
    payload: &[u8],
    scratch: &mut ReadScratch,
) -> Result<PredictOutcome, String> {
    let Some(disc) = session.disc() else {
        return Err("no distilled model (enable distillation and REFRESH)".into());
    };
    let width = disc.model.num_classes();
    let dim = disc.model.dim();
    let ReadScratch {
        feats,
        feat_rows,
        probs,
        pairs,
        x,
        ..
    } = scratch;
    let n = feat_rows.len();
    probs.reset();
    probs.resize(n * width, 0.0);
    for (i, &(off, len)) in feat_rows.iter().enumerate() {
        let names =
            feats[off as usize..(off + len) as usize]
                .iter()
                .map(|&(start, bytes)| -> &str {
                    std::str::from_utf8(&payload[start as usize..(start + bytes) as usize])
                        .expect("decode_predict validated UTF-8")
                });
        snorkel_disc::hash_features_into(names, dim, pairs, x);
        disc.model
            .predict_proba_into(x, &mut probs[i * width..(i + 1) * width]);
    }
    Ok(PredictOutcome {
        rows: n,
        width,
        disc_gen: disc.generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_memo_lookup_insert_and_generation_reset() {
        let mut memo = SigMemo::new();
        assert!(memo.lookup(&[0, 2], &[1, -1]).is_none());
        memo.insert(&[0, 2], &[1, -1], &[0.25, 0.75]);
        memo.insert(&[1], &[1], &[0.9, 0.1]);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.lookup(&[0, 2], &[1, -1]), Some(&[0.25, 0.75][..]));
        assert_eq!(memo.lookup(&[1], &[1]), Some(&[0.9, 0.1][..]));
        // Same columns, different votes: distinct signature.
        assert!(memo.lookup(&[0, 2], &[1, 1]).is_none());
        // Re-inserting an existing signature is a no-op.
        memo.insert(&[1], &[1], &[0.0, 1.0]);
        assert_eq!(memo.lookup(&[1], &[1]), Some(&[0.9, 0.1][..]));

        let bytes = memo.bytes();
        memo.begin_generation(7);
        assert_eq!(memo.generation(), 7);
        assert!(memo.is_empty());
        assert!(memo.lookup(&[1], &[1]).is_none());
        assert_eq!(memo.bytes(), bytes, "reset keeps every allocation");
        memo.insert(&[1], &[1], &[0.5, 0.5]);
        assert_eq!(memo.lookup(&[1], &[1]), Some(&[0.5, 0.5][..]));
    }

    #[test]
    fn sig_memo_survives_table_growth() {
        let mut memo = SigMemo::new();
        // Enough distinct signatures to force at least one doubling
        // past the initial table.
        let count = (INITIAL_TABLE * 7) / 10 + 64;
        for i in 0..count as u32 {
            memo.insert(&[i, i + 1], &[1, -1], &[i as f64, 1.0]);
        }
        assert_eq!(memo.len(), count);
        for i in 0..count as u32 {
            assert_eq!(
                memo.lookup(&[i, i + 1], &[1, -1]),
                Some(&[i as f64, 1.0][..]),
                "signature {i} survives rehash"
            );
        }
    }

    #[test]
    fn sig_memo_stops_at_the_cap() {
        let mut memo = SigMemo::new();
        for i in 0..(MEMO_CAP + 10) as u32 {
            memo.insert(&[i], &[1], &[1.0, 0.0]);
        }
        assert_eq!(memo.len(), MEMO_CAP);
    }

    #[test]
    fn zero_copy_decoders_reject_what_decode_request_rejects() {
        let mut scratch = ReadScratch::new();
        // Mirror frame::tests::invalid_requests_are_rejected through
        // the scratch decoders: identical error strings.
        let body_of = |frame_bytes: &[u8]| -> Vec<u8> {
            frame_bytes[crate::frame::FRAME_HEADER_BYTES..].to_vec()
        };
        let body = body_of(&frame::encode_marginal(&[]));
        assert!(decode_marginal(&body, &mut scratch)
            .unwrap_err()
            .contains("empty batch"));
        let body = body_of(&frame::encode_marginal(&[(vec![3, 0], vec![1, 1])]));
        assert_eq!(
            decode_marginal(&body, &mut scratch).unwrap_err(),
            "columns must be strictly increasing"
        );
        let body = body_of(&frame::encode_marginal(&[(vec![0], vec![0])]));
        assert_eq!(
            decode_marginal(&body, &mut scratch).unwrap_err(),
            "votes in requests must be non-abstain"
        );
        // Strictly-increasing applies within a row, not across rows.
        let rows = vec![(vec![5, 9], vec![1, -1]), (vec![2], vec![1])];
        let body = body_of(&frame::encode_marginal(&rows));
        assert_eq!(decode_marginal(&body, &mut scratch), Ok(2));
        assert_eq!(scratch.cols.as_slice(), &[5, 9, 2]);
        assert_eq!(scratch.votes.as_slice(), &[1, -1, 1]);
        assert_eq!(scratch.rows.as_slice(), &[(0, 2), (2, 1)]);

        let body = body_of(&frame::encode_predict(&[vec![]]));
        assert_eq!(
            decode_predict(&body, &mut scratch).unwrap_err(),
            "PREDICT needs at least one feature"
        );
        let feats = vec![
            vec!["btw=cause".to_string(), "u=x".to_string()],
            vec!["héllo".to_string()],
        ];
        let body = body_of(&frame::encode_predict(&feats));
        assert_eq!(decode_predict(&body, &mut scratch), Ok(2));
        let name =
            |f: (u32, u32)| std::str::from_utf8(&body[f.0 as usize..(f.0 + f.1) as usize]).unwrap();
        assert_eq!(scratch.feat_rows.as_slice(), &[(0, 2), (2, 1)]);
        assert_eq!(name(scratch.feats[0]), "btw=cause");
        assert_eq!(name(scratch.feats[1]), "u=x");
        assert_eq!(name(scratch.feats[2]), "héllo");

        let mut trailing = body.clone();
        trailing.push(0xAA);
        assert_eq!(
            decode_predict(&trailing, &mut scratch).unwrap_err(),
            "1 trailing bytes in frame"
        );
    }
}
