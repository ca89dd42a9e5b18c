//! One hash-consing table for vote signatures.
//!
//! A row's label-model posterior depends only on its vote signature
//! `(cols, votes)`, so two places intern signatures: the training-side
//! [`PatternIndex`](crate::PatternIndex), which folds Λ's rows onto
//! their distinct patterns, and the serving memo, which keeps one
//! posterior per signature. Both use this table.
//!
//! Signatures live in flat `cols`/`votes` arenas addressed by per-id
//! bounds, and ids are dense in first-seen order: the id of a signature
//! never depends on its hash. An open-addressing probe table (linear
//! probing, power-of-two size, doubled at 70 % load) holds one `u64`
//! per entry: the signature's 32-bit hash in the high half, `id + 1` in
//! the low half, `0` for an empty slot. A probe compares tags and reads
//! the arenas only on a tag match; growth rehashes from the slots alone.
//!
//! The hash is keyed once per process from `std`'s `RandomState`, so
//! crafted colliding signatures cannot lengthen probes. It is never
//! persisted or sent.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::csr::Vote;

/// Slots the probe table starts with (power of two; grows by doubling).
const INITIAL_SLOTS: usize = 1024;

/// The per-process hash key, drawn once.
#[inline]
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

/// One multiply-rotate step per `(column, vote)` word over the seed and
/// the length (so a prefix signature does not collide with its
/// extension trivially), then the `fmix64` finalizer so every input bit
/// reaches the low bits that pick the home slot.
#[inline]
fn hash_seeded(seed: u64, cols: &[u32], votes: &[Vote]) -> u32 {
    let mut h = seed ^ cols.len() as u64;
    for (&c, &v) in cols.iter().zip(votes) {
        let word = u64::from(c) | u64::from(v as u8) << 32;
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h as u32
}

/// Dense ids for distinct vote signatures, in first-seen order. See the
/// module docs.
#[derive(Clone, Debug)]
pub struct SigTable {
    seed: u64,
    /// Signature arena: concatenated column indices, id by id.
    cols: Vec<u32>,
    /// Signature arena: votes, parallel to `cols`.
    votes: Vec<Vote>,
    /// Per-id `(offset, len)` into the arenas.
    bounds: Vec<(u32, u32)>,
    /// Probe table: hash tag ≪ 32 | id + 1; `0` = empty.
    slots: Vec<u64>,
}

impl Default for SigTable {
    fn default() -> Self {
        SigTable::new()
    }
}

impl SigTable {
    /// An empty table keyed with the process seed (no allocation until
    /// the first intern).
    pub fn new() -> SigTable {
        SigTable {
            seed: process_seed(),
            cols: Vec::new(),
            votes: Vec::new(),
            bounds: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// An empty table keyed with `seed` instead of the process seed.
    #[cfg(test)]
    fn with_seed(seed: u64) -> SigTable {
        SigTable {
            seed,
            ..SigTable::new()
        }
    }

    /// The 32-bit hash the `*_hashed` methods take, keyed with the
    /// process seed. A caller may take it before a lock and pass it in.
    #[inline]
    pub fn hash(cols: &[u32], votes: &[Vote]) -> u32 {
        hash_seeded(process_seed(), cols, votes)
    }

    /// Number of interned signatures; ids are `0..len`.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The signature with id `id` as `(cols, votes)` slices.
    #[inline]
    pub fn get(&self, id: usize) -> (&[u32], &[Vote]) {
        let (off, len) = self.bounds[id];
        let (off, len) = (off as usize, len as usize);
        (&self.cols[off..off + len], &self.votes[off..off + len])
    }

    /// The id of a signature, if interned.
    pub fn find(&self, cols: &[u32], votes: &[Vote]) -> Option<u32> {
        self.find_hashed(hash_seeded(self.seed, cols, votes), cols, votes)
    }

    /// [`Self::find`] for a signature whose [`Self::hash`] is `hash`.
    #[inline]
    pub fn find_hashed(&self, hash: u32, cols: &[u32], votes: &[Vote]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, cols, votes).ok()
    }

    /// The id of a signature, interning it under the next id if new.
    pub fn intern(&mut self, cols: &[u32], votes: &[Vote]) -> u32 {
        self.intern_hashed(hash_seeded(self.seed, cols, votes), cols, votes)
    }

    /// [`Self::intern`] for a signature whose [`Self::hash`] is `hash`.
    /// A new signature grows the arenas (and, past 70 % load, doubles
    /// the probe table); a known one allocates nothing.
    pub fn intern_hashed(&mut self, hash: u32, cols: &[u32], votes: &[Vote]) -> u32 {
        if self.slots.is_empty() {
            self.slots = vec![0; INITIAL_SLOTS];
        }
        let mut slot = match self.probe(hash, cols, votes) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        if (self.len() + 1) * 10 >= self.slots.len() * 7 {
            let mut slots = vec![0u64; self.slots.len() * 2];
            for &s in self.slots.iter().filter(|&&s| s != 0) {
                let i = Self::vacant(&slots, (s >> 32) as u32);
                slots[i] = s;
            }
            self.slots = slots;
            slot = Self::vacant(&self.slots, hash);
        }
        let id = self.bounds.len() as u32;
        let off = u32::try_from(self.cols.len()).expect("signature arena exceeds u32 offsets");
        self.bounds.push((off, cols.len() as u32));
        self.cols.extend_from_slice(cols);
        self.votes.extend_from_slice(votes);
        self.slots[slot] = u64::from(hash) << 32 | u64::from(id + 1);
        id
    }

    /// Forget every signature, keeping all capacity.
    pub fn clear(&mut self) {
        self.cols.clear();
        self.votes.clear();
        self.bounds.clear();
        self.slots.fill(0);
    }

    /// High-water heap footprint in bytes (capacities, which `clear`
    /// keeps).
    pub fn bytes(&self) -> usize {
        self.cols.capacity() * std::mem::size_of::<u32>()
            + self.votes.capacity() * std::mem::size_of::<Vote>()
            + self.bounds.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// Walk the probe sequence from `hash`'s home: `Ok(id)` of the
    /// matching signature, or `Err` of the first empty slot. The table
    /// is never full, so the walk ends.
    #[inline]
    fn probe(&self, hash: u32, cols: &[u32], votes: &[Vote]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Err(i);
            }
            let id = s as u32 - 1;
            if (s >> 32) as u32 == hash && self.get(id as usize) == (cols, votes) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first empty slot from `hash`'s home.
    fn vacant(slots: &[u64], hash: u32) -> usize {
        let mask = slots.len() - 1;
        let mut i = hash as usize & mask;
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut t = SigTable::new();
        assert_eq!(t.find(&[0], &[1]), None);
        assert_eq!(t.intern(&[0, 2], &[1, -1]), 0);
        assert_eq!(t.intern(&[], &[]), 1);
        assert_eq!(t.intern(&[0, 2], &[1, 1]), 2, "same columns, other votes");
        assert_eq!(t.intern(&[0, 2], &[1, -1]), 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2), (&[0, 2][..], &[1, 1][..]));
        let hash = SigTable::hash(&[0, 2], &[1, 1]);
        assert_eq!(t.find_hashed(hash, &[0, 2], &[1, 1]), Some(2));
        assert_eq!(t.intern_hashed(hash, &[0, 2], &[1, 1]), 2);

        let bytes = t.bytes();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.find(&[0, 2], &[1, -1]), None);
        assert_eq!(t.bytes(), bytes, "clear keeps every allocation");
        assert_eq!(t.intern(&[7], &[-1]), 0);
    }

    /// Ids never depend on the hash: tables keyed differently hand out
    /// the same ids for the same intern sequence.
    #[test]
    fn ids_do_not_depend_on_the_seed() {
        let sigs: Vec<(Vec<u32>, Vec<Vote>)> = (0..5000u32)
            .map(|i| {
                let cols = vec![i % 97, 100 + i % 13];
                let votes = vec![if i % 3 == 0 { 1 } else { -1 }, 1];
                (cols, votes)
            })
            .collect();
        let ids = |seed: u64| {
            let mut t = SigTable::with_seed(seed);
            sigs.iter().map(|(c, v)| t.intern(c, v)).collect::<Vec<_>>()
        };
        let a = ids(1);
        assert_eq!(a, ids(0x9e37_79b9_7f4a_7c15));
        assert_eq!(a, ids(process_seed()));
        // Every (column 0, column 1, first vote) triple occurs: 2 522 ids,
        // enough to double the probe table twice.
        assert_eq!(*a.iter().max().unwrap() as usize + 1, 97 * 13 * 2);
    }

    /// Signature `i` of a pool: the columns are the set bits of `i`'s
    /// low 12 bits and the votes follow a multiplicative hash of `i`,
    /// so any two `i < 4 096` are distinct signatures.
    fn pool_signature(i: u32) -> (Vec<u32>, Vec<Vote>) {
        let cols: Vec<u32> = (0..12).filter(|j| i >> j & 1 == 1).collect();
        let mix = i.wrapping_mul(0x9e37_79b9);
        let votes = cols
            .iter()
            .map(|&j| if mix >> (j + 8) & 1 == 1 { 1 } else { -1 })
            .collect();
        (cols, votes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Against a naive `Vec` reference: ids, `find` and `get` agree
        /// across table growth and `clear`. Up to 2 000 picks from a
        /// pool of 1 500 repeat signatures often and, past 716 distinct
        /// ones, double the probe table.
        #[test]
        fn matches_a_naive_reference(
            rounds in prop::collection::vec(prop::collection::vec(0u32..1500, 0..2000), 1..3),
        ) {
            let mut t = SigTable::new();
            for picks in rounds {
                t.clear();
                let mut naive: Vec<(Vec<u32>, Vec<Vote>)> = Vec::new();
                for (cols, votes) in picks.into_iter().map(pool_signature) {
                    let (cols, votes) = (&cols, &votes);
                    let want = naive.iter().position(|s| (&s.0, &s.1) == (cols, votes));
                    prop_assert_eq!(t.find(cols, votes), want.map(|i| i as u32));
                    let want = want.unwrap_or_else(|| {
                        naive.push((cols.clone(), votes.clone()));
                        naive.len() - 1
                    });
                    prop_assert_eq!(t.intern(cols, votes), want as u32);
                }
                prop_assert_eq!(t.len(), naive.len());
                for (id, (cols, votes)) in naive.iter().enumerate() {
                    prop_assert_eq!(t.get(id), (&cols[..], &votes[..]));
                    prop_assert_eq!(t.find(cols, votes), Some(id as u32));
                }
            }
        }
    }
}
