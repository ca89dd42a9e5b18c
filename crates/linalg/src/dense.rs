//! Row-major dense matrix.
//!
//! [`Mat`] provides exactly the kernels the discriminative MLP and the
//! generative-model diagnostics need: construction, row views, `matvec`,
//! transposed `matvec`, rank-1 updates, and elementwise maps. The layout
//! is a single contiguous `Vec<f64>` (`rows * cols`), so row views are
//! slices and iteration is cache-friendly.

use crate::math;

/// A row-major dense `f64` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An all-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// Panics unless `data.len() == rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Build row-by-row from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `out ← self · x` where `x` has length `cols` and `out` length `rows`.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(out.len(), self.rows, "matvec: out length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = math::dot(self.row(r), x);
        }
    }

    /// `out ← selfᵀ · x` where `x` has length `rows` and `out` length `cols`.
    pub fn matvec_t(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length mismatch");
        assert_eq!(out.len(), self.cols, "matvec_t: out length mismatch");
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            math::axpy(xr, self.row(r), out);
        }
    }

    /// Rank-1 update `self ← self + alpha · a bᵀ` (lengths `rows`/`cols`).
    pub fn rank1_update(&mut self, alpha: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows, "rank1_update: a length mismatch");
        assert_eq!(b.len(), self.cols, "rank1_update: b length mismatch");
        for (r, &ar) in a.iter().enumerate() {
            if ar == 0.0 {
                continue;
            }
            math::axpy(alpha * ar, b, self.row_mut(r));
        }
    }

    /// Apply `f` to each element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        math::norm2(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_layout() {
        let m = Mat::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn matvec_correct() {
        let m = sample();
        let mut out = vec![0.0; 2];
        m.matvec(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_correct() {
        let m = sample();
        let mut out = vec![0.0; 3];
        m.matvec_t(&[1.0, -1.0], &mut out);
        assert_eq!(out, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn matvec_agrees_with_matvec_t_via_transpose_identity() {
        // xᵀ (A y) == (Aᵀ x)ᵀ y
        let m = sample();
        let x = [0.5, -2.0];
        let y = [1.0, 2.0, 3.0];
        let mut ay = vec![0.0; 2];
        m.matvec(&y, &mut ay);
        let lhs = math::dot(&x, &ay);
        let mut atx = vec![0.0; 3];
        m.matvec_t(&x, &mut atx);
        let rhs = math::dot(&atx, &y);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn rank1_update_correct() {
        let mut m = Mat::zeros(2, 2);
        m.rank1_update(2.0, &[1.0, 3.0], &[5.0, 7.0]);
        assert_eq!(m.as_slice(), &[10.0, 14.0, 30.0, 42.0]);
    }

    #[test]
    fn map_and_norm() {
        let mut m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        m.map_in_place(|v| v * v);
        assert_eq!(m.as_slice(), &[9.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_shape_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }
}
