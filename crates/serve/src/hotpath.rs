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
//! * [`SigMemo`] — the per-generation posterior memo: the shared
//!   signature table ([`SigTable`]) plus a flat posterior arena, so a
//!   steady-state lookup borrows `&[f64]` straight out of the arena
//!   with zero allocations.
//! * [`decode_marginal`] / [`decode_predict`] — the one decoder of each
//!   batched read opcode: zero-copy, validating into the scratch arenas
//!   instead of fresh `Vec`s, with the error wording the rest of
//!   [`crate::frame`] uses. Feature names are hashed here, once, in
//!   the same pass that validates their UTF-8.
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
use snorkel_disc::{feature_bucket, feature_hash, DistilledModel};
use snorkel_incr::IncrementalSession;
use snorkel_lf::Vote;
use snorkel_linalg::SparseVec;
use snorkel_matrix::SigTable;

use crate::core::lock_unpoisoned;
use crate::frame;
use crate::wire::{self, Field, Reader};

/// Cap on memoized signatures — deployment traffic has few distinct
/// patterns; a cap this size only matters under adversarial query
/// diversity, where we fall back to recomputing.
pub const MEMO_CAP: usize = 65_536;

/// Memoized posteriors per vote signature, valid for one generation.
///
/// The signatures are interned in a [`SigTable`] — the same table the
/// training-side `PatternIndex` keys its patterns by — and entry `e`'s
/// posterior is the `val_bounds[e]` range of a flat value arena: no key
/// clone to probe, no `Vec` clone to return — a hit borrows the arena.
/// The read path hashes a signature once with [`Self::hash`], outside
/// the memo's lock, and passes the hash to [`Self::lookup_hashed`] and
/// [`Self::insert_hashed`]; [`Self::lookup`] and [`Self::insert`] hash
/// for the caller.
///
/// A generation bump ([`Self::begin_generation`]) clears the table and
/// the value arena without freeing either, so the memo re-warms after a
/// `REFRESH` without re-allocating.
#[derive(Default)]
pub struct SigMemo {
    generation: u64,
    sigs: SigTable,
    /// Flat posterior arena, addressed by `val_bounds`.
    vals: Vec<f64>,
    val_bounds: Vec<(u32, u32)>,
}

impl SigMemo {
    /// An empty memo at generation 0 (no allocation until first use).
    pub fn new() -> SigMemo {
        SigMemo::default()
    }

    /// The generation the memoized posteriors belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of memoized signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// High-water heap footprint in bytes (capacities, which never
    /// shrink across generations).
    pub fn bytes(&self) -> usize {
        self.sigs.bytes()
            + self.vals.capacity() * std::mem::size_of::<f64>()
            + self.val_bounds.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Invalidate everything and adopt `gen`, keeping all capacity.
    pub fn begin_generation(&mut self, gen: u64) {
        self.generation = gen;
        self.sigs.clear();
        self.vals.clear();
        self.val_bounds.clear();
    }

    /// The hash the `*_hashed` methods take: [`SigTable::hash`].
    pub fn hash(cols: &[u32], votes: &[Vote]) -> u32 {
        SigTable::hash(cols, votes)
    }

    /// The memoized posterior for a signature, if present. Borrows the
    /// value arena — nothing is cloned or allocated on a hit or a miss.
    pub fn lookup(&self, cols: &[u32], votes: &[Vote]) -> Option<&[f64]> {
        self.lookup_hashed(Self::hash(cols, votes), cols, votes)
    }

    /// [`Self::lookup`] for a signature whose [`Self::hash`] is `hash`.
    pub fn lookup_hashed(&self, hash: u32, cols: &[u32], votes: &[Vote]) -> Option<&[f64]> {
        let e = self.sigs.find_hashed(hash, cols, votes)?;
        let (off, len) = self.val_bounds[e as usize];
        Some(&self.vals[off as usize..(off + len) as usize])
    }

    /// Memoize one signature's posterior. A no-op at [`MEMO_CAP`] or if
    /// the signature is already present (the values would be identical:
    /// same generation, same model). Growth (arena append, table
    /// doubling) allocates — that happens only while the signature set
    /// is still being discovered, never in the steady state of repeated
    /// lookups.
    pub fn insert(&mut self, cols: &[u32], votes: &[Vote], probs: &[f64]) {
        self.insert_hashed(Self::hash(cols, votes), cols, votes, probs);
    }

    /// [`Self::insert`] for a signature whose [`Self::hash`] is `hash`.
    pub fn insert_hashed(&mut self, hash: u32, cols: &[u32], votes: &[Vote], probs: &[f64]) {
        if self.len() >= MEMO_CAP {
            return;
        }
        if self.sigs.intern_hashed(hash, cols, votes) as usize == self.val_bounds.len() {
            self.val_bounds
                .push((self.vals.len() as u32, probs.len() as u32));
            self.vals.extend_from_slice(probs);
        }
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
    /// Per-row [`SigMemo::hash`] of the vote batch, taken before the
    /// memo lock.
    sigs: ScratchVec<u32>,
    /// Decoded `OP_PREDICT` batch: per-feature `(offset, len)` byte
    /// ranges into the request payload (zero-copy — the names stay in
    /// the connection's input buffer), each name's 64-bit FNV-1a
    /// (parallel to the ranges), and per-row ranges into both.
    feats: ScratchVec<(u32, u32)>,
    hashes: ScratchVec<u64>,
    feat_rows: ScratchVec<(u32, u32)>,
    /// Computed posterior rows, flat: row `i` at `i*width..(i+1)*width`.
    probs: ScratchVec<f64>,
    /// Row indices that missed the memo (marginal pass bookkeeping).
    pending: ScratchVec<u32>,
    /// The reusable hashed feature vector.
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
            + self.sigs.bytes()
            + self.feats.bytes()
            + self.hashes.bytes()
            + self.feat_rows.bytes()
            + self.probs.bytes()
            + self.pending.bytes()
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
    /// caller that scores a single row itself (text `APPLY`).
    pub(crate) fn start_probs(&mut self, width: usize) -> &mut [f64] {
        self.start_feature_row(width).1
    }

    /// [`Self::start_probs`] plus the reusable feature vector, for a
    /// caller that featurizes and scores a single row itself
    /// (`PREDICT_TEXT`).
    pub(crate) fn start_feature_row(&mut self, width: usize) -> (&mut SparseVec, &mut [f64]) {
        self.probs.reset();
        self.probs.resize(width, 0.0);
        (&mut self.x, &mut self.probs)
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
/// what the text `MARGINAL` parser enforces: non-empty batch, non-empty
/// rows, strictly increasing columns, non-abstain votes — plus no
/// trailing bytes and counts within the bytes remaining. Returns the
/// row count.
pub fn decode_marginal(payload: &[u8], scratch: &mut ReadScratch) -> Result<usize, String> {
    let mut r = Reader::new(payload);
    scratch.cols.reset();
    scratch.votes.reset();
    scratch.rows.reset();
    // A row is at least its count; an entry is a column and a vote.
    let n = frame::batch_len(&mut r, u32::MIN_BYTES, "vote rows")?;
    for _ in 0..n {
        let k = r
            .count::<u32>(<(u32, Vote)>::MIN_BYTES, "vote-row length")
            .map_err(frame::wire_err)?;
        if k == 0 {
            return Err("empty vote row".into());
        }
        let start = scratch.cols.len() as u32;
        for j in 0..k {
            let col: u32 = r.get("vote column").map_err(frame::wire_err)?;
            let vote: Vote = r.get("vote").map_err(frame::wire_err)?;
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
    r.end("frame")?;
    Ok(n)
}

/// Decode an `OP_PREDICT` payload into the scratch arenas: feature
/// names are recorded as byte ranges into `payload` (no copies), then
/// hashed once, UTF-8-validated in the same pass, into the scratch's
/// hash buffer that [`compute_predict`] reduces to buckets. Rejects an
/// empty batch, an empty feature vector, names that are not UTF-8, torn
/// names and trailing bytes, reporting the first defect in wire order.
/// Returns the row count.
pub fn decode_predict(payload: &[u8], scratch: &mut ReadScratch) -> Result<usize, String> {
    let parsed = parse_predict(payload, scratch);
    // Every name parsed lies before whatever defect stopped the parse,
    // so a name that is not UTF-8 is the first defect in wire order.
    hash_names(payload, &scratch.feats, &mut scratch.hashes)?;
    parsed
}

/// The byte ranges of an `OP_PREDICT` payload's names and rows, up to
/// the first structural defect.
fn parse_predict(payload: &[u8], scratch: &mut ReadScratch) -> Result<usize, String> {
    let mut r = Reader::new(payload);
    scratch.feats.reset();
    scratch.feat_rows.reset();
    let n = frame::batch_len(&mut r, u32::MIN_BYTES, "feature vectors")?;
    for _ in 0..n {
        let k = r
            .count::<u32>(String::MIN_BYTES, "feature-vector length")
            .map_err(frame::wire_err)?;
        if k == 0 {
            return Err("PREDICT needs at least one feature".into());
        }
        let start = scratch.feats.len() as u32;
        for _ in 0..k {
            let name = r.bytes("feature name").map_err(frame::wire_err)?;
            let off = (r.position() - name.len()) as u32;
            scratch.feats.push((off, name.len() as u32));
        }
        scratch.feat_rows.push((start, k as u32));
    }
    r.end("frame")?;
    Ok(n)
}

/// The 64-bit FNV-1a of every name in `feats` into `hashes`, one name
/// at a time. [`feature_hash`] also ORs the name's bytes; only a name
/// with a byte ≥ 0x80 is run through the full UTF-8 check.
fn hash_names(
    payload: &[u8],
    feats: &[(u32, u32)],
    hashes: &mut ScratchVec<u64>,
) -> Result<(), String> {
    hashes.reset();
    for &(off, len) in feats {
        let name = &payload[off as usize..(off + len) as usize];
        let (h, seen) = feature_hash(name);
        if !seen.is_ascii() {
            wire::utf8(name, "feature name").map_err(frame::wire_err)?;
        }
        hashes.push(h);
    }
    Ok(())
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
        sigs,
        probs,
        pending,
        ..
    } = scratch;
    let n = rows.len();
    probs.reset();
    probs.resize(n * width, 0.0);
    pending.reset();
    sigs.reset();
    sigs.extend((0..n).map(|i| {
        let (rc, rv) = row_at(rows, cols, votes, i);
        SigMemo::hash(rc, rv)
    }));
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
                match memo.lookup_hashed(sigs[i], rc, rv) {
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
                memo.insert_hashed(sigs[i as usize], rc, rv, p);
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
/// flat into `scratch.probs`, under the caller's state read lock. The
/// names were hashed at decode; `payload` is not read again and stays
/// in the signature for existing callers.
pub fn compute_predict(
    session: &IncrementalSession,
    _payload: &[u8],
    scratch: &mut ReadScratch,
) -> Result<PredictOutcome, String> {
    let Some(disc) = session.disc() else {
        return Err("no distilled model (enable distillation and REFRESH)".into());
    };
    Ok(PredictOutcome {
        rows: predict_rows(&disc.model, scratch),
        width: disc.model.num_classes(),
        disc_gen: disc.generation,
    })
}

/// Score every decoded feature row: reduce its name hashes to the
/// model's buckets, build the L2-normalized row from their counts in
/// the reusable sparse vector, and score it through the `*_into`
/// kernel. Returns the row count.
fn predict_rows(model: &DistilledModel, scratch: &mut ReadScratch) -> usize {
    let width = model.num_classes();
    let dim = model.dim();
    let ReadScratch {
        hashes,
        feat_rows,
        probs,
        x,
        ..
    } = scratch;
    let n = feat_rows.len();
    probs.reset();
    probs.resize(n * width, 0.0);
    for (i, &(off, len)) in feat_rows.iter().enumerate() {
        let row = &hashes[off as usize..(off + len) as usize];
        x.assign_bucket_counts(|buckets| {
            buckets.extend(row.iter().map(|&h| feature_bucket(h, dim)))
        });
        x.l2_normalize();
        model.predict_proba_into(x, &mut probs[i * width..(i + 1) * width]);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Enough distinct signatures to force a few doublings of the
        // probe table.
        let count = 4096;
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

    /// A memo filled to [`MEMO_CAP`] with random signatures returns each
    /// one's own posterior, through both the hashing and the pre-hashed
    /// entry points, and misses a signature it never saw.
    #[test]
    fn full_memo_returns_every_posterior_and_misses_the_unseen() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let mut seen = std::collections::HashSet::new();
        let mut sigs = Vec::with_capacity(MEMO_CAP);
        let mut random_sig = |rng: &mut rand::rngs::StdRng| loop {
            let k = rng.gen_range(1..=12);
            let mut cols: Vec<u32> = (0..k).map(|_| rng.gen_range(0..64)).collect();
            cols.sort_unstable();
            cols.dedup();
            let votes: Vec<Vote> = cols
                .iter()
                .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
                .collect();
            if seen.insert((cols.clone(), votes.clone())) {
                return (cols, votes);
            }
        };
        let mut memo = SigMemo::new();
        for i in 0..MEMO_CAP {
            let (cols, votes) = random_sig(&mut rng);
            memo.insert(&cols, &votes, &[i as f64, -(i as f64)]);
            sigs.push((cols, votes));
        }
        assert_eq!(memo.len(), MEMO_CAP);
        for (i, (cols, votes)) in sigs.iter().enumerate() {
            let want = [i as f64, -(i as f64)];
            assert_eq!(memo.lookup(cols, votes), Some(&want[..]), "signature {i}");
            let hash = SigMemo::hash(cols, votes);
            assert_eq!(memo.lookup_hashed(hash, cols, votes), Some(&want[..]));
        }
        for _ in 0..1000 {
            let (cols, votes) = random_sig(&mut rng);
            assert!(memo.lookup(&cols, &votes).is_none(), "{cols:?} {votes:?}");
        }
    }

    /// A feature name for the bit-identity property: one byte, a short
    /// run of ASCII and non-ASCII characters, or 200 bytes.
    fn feature_name() -> impl Strategy<Value = String> {
        prop_oneof!["[a-z=]", "[a-z=_éΣ中İ]{1,12}", "[a-z]{200}", "ß{100}",]
    }

    /// Rows of 1–64 names, each drawn from a small per-batch pool so
    /// names repeat within a row.
    fn feature_rows() -> impl Strategy<Value = Vec<Vec<String>>> {
        prop::collection::vec(feature_name(), 1..8).prop_flat_map(|pool| {
            let n = pool.len();
            prop::collection::vec(prop::collection::vec(0..n, 1..=64), 1..4).prop_map(move |rows| {
                rows.iter()
                    .map(|row| row.iter().map(|&i| pool[i].clone()).collect())
                    .collect()
            })
        })
    }

    /// A distilled model with every weight set, so any bucket a name
    /// lands in moves the score.
    fn distilled(dim: u32, classes: usize) -> DistilledModel {
        let vectors = if classes == 2 { 1 } else { classes };
        let weight =
            |c: usize, b: u32| ((b as usize * 2_654_435_761 + c * 97) % 2001) as f64 / 1000.0 - 1.0;
        let parts = snorkel_disc::DiscModelParts {
            dim,
            class_weights: (0..vectors)
                .map(|c| (0..dim).map(|b| (b, weight(c, b))).collect())
                .collect(),
            bias: (0..vectors).map(|c| c as f64 * 0.25 - 0.1).collect(),
        };
        DistilledModel::from_parts(&parts).expect("valid parts")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Names hashed at decode score to the bit what the reference
        /// path scores: FNV-1a of each name's bytes `% dim`, `(bucket,
        /// 1.0)` pairs merged by `SparseVec::from_pairs`, L2-normalized,
        /// `predict_proba` — and `hash_features` builds that same row.
        #[test]
        fn decode_hashed_predict_is_bit_identical_to_the_reference(
            rows in feature_rows(),
            dim in prop_oneof![Just(1u32 << 10), Just(1000u32)],
            classes in prop_oneof![Just(2usize), Just(3usize)],
        ) {
            let model = distilled(dim, classes);
            let body = body_of(&frame::encode_predict(&rows));
            let mut scratch = ReadScratch::new();
            prop_assert_eq!(decode_predict(&body, &mut scratch), Ok(rows.len()));
            prop_assert_eq!(predict_rows(&model, &mut scratch), rows.len());
            for (i, names) in rows.iter().enumerate() {
                let pairs = names
                    .iter()
                    .map(|n| ((snorkel_matrix::Fnv1a::of(n.as_bytes()) % u64::from(dim)) as u32, 1.0))
                    .collect();
                let mut want = SparseVec::from_pairs(pairs);
                want.l2_normalize();
                let hashed = snorkel_disc::hash_features(names.iter().map(String::as_str), dim);
                prop_assert_eq!(&hashed, &want);
                let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let got = &scratch.probs()[i * classes..(i + 1) * classes];
                prop_assert_eq!(bits(got), bits(&model.predict_proba(&want)));
            }
        }
    }

    fn body_of(frame_bytes: &[u8]) -> Vec<u8> {
        frame_bytes[frame::FRAME_HEADER_BYTES..].to_vec()
    }

    #[test]
    fn batched_read_requests_round_trip() {
        let mut scratch = ReadScratch::new();
        let rows: Vec<frame::VoteRow> = vec![(vec![0, 3], vec![1, -1]), (vec![2], vec![1])];
        let body = body_of(&frame::encode_marginal(&rows));
        assert_eq!(decode_marginal(&body, &mut scratch), Ok(2));
        let decoded: Vec<frame::VoteRow> = (0..2)
            .map(|i| {
                let (cols, votes) = row_at(&scratch.rows, &scratch.cols, &scratch.votes, i);
                (cols.to_vec(), votes.to_vec())
            })
            .collect();
        assert_eq!(decoded, rows);

        let feats = vec![vec!["btw=cause".to_string(), "u=x".to_string()]];
        let body = body_of(&frame::encode_predict(&feats));
        assert_eq!(decode_predict(&body, &mut scratch), Ok(1));
        let names: Vec<&str> = scratch
            .feats
            .iter()
            .map(|&(off, len)| std::str::from_utf8(&body[off as usize..(off + len) as usize]))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(scratch.feat_rows.as_slice(), &[(0, 2)]);
        assert_eq!(names, feats[0]);
    }

    #[test]
    fn zero_copy_decoders_reject_malformed_batches() {
        let mut scratch = ReadScratch::new();
        let body = body_of(&frame::encode_marginal(&[]));
        assert!(decode_marginal(&body, &mut scratch)
            .unwrap_err()
            .contains("empty batch"));
        // A count field larger than the bytes behind it is rejected
        // before allocation (the Reader::count validation).
        assert!(decode_marginal(&1_000_000u32.to_le_bytes(), &mut scratch)
            .unwrap_err()
            .contains("exceeds the bytes remaining"));
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
