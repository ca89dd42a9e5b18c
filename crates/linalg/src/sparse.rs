//! Sorted-index sparse vectors.
//!
//! [`SparseVec`] is the feature representation for the hashed-n-gram text
//! models: indices are `u32` (feature-hash buckets), values `f64`. The
//! invariant is *strictly increasing indices* — construction from
//! arbitrary `(index, value)` pairs sorts and merges duplicates by
//! summation (the natural semantics for bag-of-features counts).

/// A sparse `f64` vector with strictly increasing `u32` indices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVec {
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseVec {
    /// The empty sparse vector.
    pub fn new() -> Self {
        SparseVec::default()
    }

    /// Build from unsorted `(index, value)` pairs; duplicate indices are
    /// merged by summing their values, and exact zeros are dropped.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut idx = Vec::with_capacity(pairs.len());
        let mut val: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = idx.last() {
                if last == i {
                    *val.last_mut().expect("val tracks idx") += v;
                    continue;
                }
            }
            idx.push(i);
            val.push(v);
        }
        // Drop entries that merged to exactly zero.
        let mut out_idx = Vec::with_capacity(idx.len());
        let mut out_val = Vec::with_capacity(val.len());
        for (i, v) in idx.into_iter().zip(val) {
            if v != 0.0 {
                out_idx.push(i);
                out_val.push(v);
            }
        }
        SparseVec {
            idx: out_idx,
            val: out_val,
        }
    }

    /// Rebuild `self` as the bag of bucket counts `fill` pushes: each
    /// distinct bucket once, in increasing order, valued by how many
    /// times it was pushed. `fill` receives the cleared index buffer, so
    /// the buckets need no staging of their own; both buffers keep their
    /// capacity, and once warm a rebuild never touches the allocator.
    ///
    /// The result equals [`Self::from_pairs`] over `(bucket, 1.0)` pairs
    /// bit for bit: a count `n` is the exact sum of `n` ones.
    pub fn assign_bucket_counts(&mut self, fill: impl FnOnce(&mut Vec<u32>)) {
        self.idx.clear();
        self.val.clear();
        fill(&mut self.idx);
        self.idx.sort_unstable();
        let mut w = 0usize;
        for r in 0..self.idx.len() {
            let i = self.idx[r];
            if w > 0 && self.idx[w - 1] == i {
                self.val[w - 1] += 1.0;
            } else {
                self.idx[w] = i;
                self.val.push(1.0);
                w += 1;
            }
        }
        self.idx.truncate(w);
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Heap footprint of the index/value buffers (capacity, not
    /// length). Capacity is monotone under the reuse methods
    /// ([`Self::assign_bucket_counts`]), so for a scratch vector this is
    /// its high-water mark — what the serving layer's scratch-bytes
    /// gauges report.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.idx.capacity() * std::mem::size_of::<u32>()
            + self.val.capacity() * std::mem::size_of::<f64>()
    }

    /// True if no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Iterate `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.idx.iter().copied().zip(self.val.iter().copied())
    }

    /// The stored indices (strictly increasing).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The stored values, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Dot product against a dense weight slice.
    ///
    /// Panics if any stored index is out of bounds for `dense` — feature
    /// vectors must be hashed into the model's bucket count.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        dot_dense_slices(&self.idx, &self.val, dense)
    }

    /// Squared Euclidean norm of the stored values.
    pub fn norm2_sq(&self) -> f64 {
        self.val.iter().map(|v| v * v).sum()
    }

    /// Scale all stored values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.val {
            *v *= alpha;
        }
    }

    /// L2-normalize in place; a zero vector is left unchanged.
    pub fn l2_normalize(&mut self) {
        let n = self.norm2_sq().sqrt();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Sparse-sparse dot product (two-pointer merge).
    pub fn dot_sparse(&self, other: &SparseVec) -> f64 {
        let (mut a, mut b, mut s) = (0usize, 0usize, 0.0);
        while a < self.idx.len() && b < other.idx.len() {
            match self.idx[a].cmp(&other.idx[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    s += self.val[a] * other.val[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        s
    }
}

/// Dot product of a sparse row held as parallel index/value slices
/// against a dense weight slice, summed in slice order: the kernel
/// behind [`SparseVec::dot_dense`], for callers that keep rows in
/// buffers of their own.
///
/// Panics if an index is out of bounds for `dense`.
#[inline]
pub fn dot_dense_slices(idx: &[u32], val: &[f64], dense: &[f64]) -> f64 {
    let mut s = 0.0;
    for (&i, &v) in idx.iter().zip(val) {
        s += dense[i as usize] * v;
    }
    s
}

impl FromIterator<(u32, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        SparseVec::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (9, 0.5)]);
        assert_eq!(v.indices(), &[2, 5, 9]);
        assert_eq!(v.values(), &[2.0, 4.0, 0.5]);
    }

    #[test]
    fn merged_zeros_are_dropped() {
        let v = SparseVec::from_pairs(vec![(1, 1.0), (1, -1.0), (2, 3.0)]);
        assert_eq!(v.indices(), &[2]);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn assign_bucket_counts_matches_from_pairs_and_reuses_buffers() {
        let buckets = [5u32, 2, 5, 9, 7, 7, 7, 0];
        let reference = SparseVec::from_pairs(buckets.iter().map(|&b| (b, 1.0)).collect());
        let mut v = SparseVec::new();
        v.assign_bucket_counts(|out| out.extend_from_slice(&buckets));
        assert_eq!(v, reference);
        assert_eq!(v.indices(), &[0, 2, 5, 7, 9]);
        assert_eq!(v.values(), &[1.0, 1.0, 2.0, 3.0, 1.0]);
        // Refill with a smaller bag: same result as a fresh build, same
        // buffers.
        let bytes = v.capacity_bytes();
        v.assign_bucket_counts(|out| out.extend([3, 1, 3]));
        assert_eq!(v, SparseVec::from_pairs(vec![(1, 1.0), (3, 2.0)]));
        assert_eq!(v.capacity_bytes(), bytes);
        v.assign_bucket_counts(|_| {});
        assert!(v.is_empty());
    }

    #[test]
    fn dot_dense() {
        let v = SparseVec::from_pairs(vec![(0, 2.0), (3, -1.0)]);
        let w = [1.0, 10.0, 10.0, 4.0];
        assert_eq!(v.dot_dense(&w), -2.0);
    }

    #[test]
    fn dot_sparse_merge() {
        let a = SparseVec::from_pairs(vec![(1, 2.0), (3, 1.0), (7, 4.0)]);
        let b = SparseVec::from_pairs(vec![(3, 5.0), (7, 0.25), (8, 9.0)]);
        assert_eq!(a.dot_sparse(&b), 5.0 + 1.0);
        assert_eq!(b.dot_sparse(&a), a.dot_sparse(&b));
    }

    #[test]
    fn normalize() {
        let mut v = SparseVec::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        v.l2_normalize();
        assert!((v.norm2_sq() - 1.0).abs() < 1e-12);
        let mut z = SparseVec::new();
        z.l2_normalize(); // must not panic or produce NaN
        assert!(z.is_empty());
    }
}
