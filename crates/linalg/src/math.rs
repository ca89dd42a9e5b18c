//! Numerically stable scalar transforms.
//!
//! These are the hot scalar kernels of both the generative label model
//! (posterior marginals are sigmoids/softmaxes of factor scores) and the
//! discriminative models (logistic / multinomial losses). All of them are
//! written to avoid overflow for large |x| and to return exact limits at
//! the extremes.

/// Numerically stable logistic sigmoid `1 / (1 + e^{-x})`.
///
/// Uses the two-branch formulation so the exponential argument is always
/// non-positive, avoiding overflow for any finite `x`.
///
/// ```
/// use snorkel_linalg::math::sigmoid;
/// assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
/// assert!(sigmoid(800.0) > 0.999_999);
/// assert!(sigmoid(-800.0) < 1e-6);
/// ```
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Stable `ln(1 + e^x)` (the "softplus" function).
///
/// For large positive `x` this is `x + e^{-x} ≈ x`; for very negative `x`
/// it is `e^x`. The naive form overflows past `x ≈ 709`.
#[inline]
pub fn log1pexp(x: f64) -> f64 {
    if x > 33.0 {
        // e^{-x} < 5e-15: addition is a no-op at f64 precision past ~36,
        // but keep the correction term while it still matters.
        x + (-x).exp()
    } else if x > -37.0 {
        x.exp().ln_1p()
    } else {
        x.exp()
    }
}

/// Stable log-sum-exp: `ln Σ_i e^{x_i}`.
///
/// Returns negative infinity for an empty slice (the sum of zero terms).
/// Shifts by the maximum so no term overflows. A term at the maximum
/// adds `e^0`, exactly 1.0, without calling `exp`; `x − max` is zero
/// for no other finite `x`, and is NaN, not zero, for `x = max = +∞`.
///
/// ```
/// use snorkel_linalg::math::logsumexp;
/// let v = [1000.0, 1000.0];
/// assert!((logsumexp(&v) - (1000.0 + 2f64.ln())).abs() < 1e-9);
/// ```
pub fn logsumexp(xs: &[f64]) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &x in xs {
        if x > max {
            max = x;
        }
    }
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut sum = 0.0;
    for &x in xs {
        let d = x - max;
        sum += if d == 0.0 { 1.0 } else { d.exp() };
    }
    max + sum.ln()
}

/// In-place softmax: replaces `xs` with `e^{x_i} / Σ_j e^{x_j}`.
///
/// Stable under large scores; on an empty slice this is a no-op. If every
/// entry is `-inf` the result is a uniform distribution, which is the
/// sensible posterior for "no evidence at all".
pub fn softmax_in_place(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let lse = logsumexp(xs);
    if lse == f64::NEG_INFINITY {
        let u = 1.0 / xs.len() as f64;
        for x in xs.iter_mut() {
            *x = u;
        }
        return;
    }
    for x in xs.iter_mut() {
        *x = (*x - lse).exp();
    }
}

/// Logit (inverse sigmoid), clamped away from 0 and 1 so the result stays
/// finite. Used to convert accuracy estimates into log-odds weights
/// (appendix A.1 of the paper: `w_j = ½ log(α_j / (1−α_j))` uses this).
#[inline]
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    (p / (1.0 - p)).ln()
}

/// Dot product of two equal-length slices.
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `y ← y + alpha * x` over equal-length slices.
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place: `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[-5.0, -1.0, -0.3, 0.0, 0.3, 1.0, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert_eq!(sigmoid(1e6), 1.0);
        assert_eq!(sigmoid(-1e6), 0.0);
        assert!(sigmoid(f64::MAX).is_finite());
    }

    #[test]
    fn log1pexp_matches_naive_in_safe_range() {
        for i in -200..=200 {
            let x = i as f64 / 10.0;
            let naive = (1.0 + x.exp()).ln();
            assert!(
                (log1pexp(x) - naive).abs() < 1e-10,
                "x={x}: {} vs {}",
                log1pexp(x),
                naive
            );
        }
    }

    #[test]
    fn log1pexp_large_x_is_x() {
        assert!((log1pexp(1000.0) - 1000.0).abs() < 1e-9);
        assert!(log1pexp(-1000.0).abs() < 1e-300);
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn logsumexp_single() {
        assert!((logsumexp(&[3.5]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_handles_neg_inf_entries() {
        let v = [f64::NEG_INFINITY, 0.0];
        assert!((logsumexp(&v) - 0.0).abs() < 1e-12);
        let w = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        assert_eq!(logsumexp(&w), f64::NEG_INFINITY);
    }

    /// `logsumexp` with `exp` taken at every term, the maximum's included.
    fn unskipped_logsumexp(xs: &[f64]) -> f64 {
        let max = xs
            .iter()
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        if max == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        max + xs
            .iter()
            .map(|&x| (x - max).exp())
            .fold(0.0, |s, e| s + e)
            .ln()
    }

    fn unskipped_softmax(xs: &mut [f64]) {
        if xs.is_empty() {
            return;
        }
        let lse = unskipped_logsumexp(xs);
        if lse == f64::NEG_INFINITY {
            xs.fill(1.0 / xs.len() as f64);
            return;
        }
        for x in xs.iter_mut() {
            *x = (*x - lse).exp();
        }
    }

    /// Each value's bits, every NaN as the one canonical NaN: Rust fixes
    /// neither the sign nor the payload of a NaN result, so any two NaNs
    /// compare equal and every other value compares by its bits.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    fn special() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            -40.0f64..40.0,
            -40.0f64..40.0,
            -40.0f64..40.0,
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(f64::MAX),
        ]
    }

    proptest::proptest! {
        /// Skipping `exp` at the maximum moves no bit of either kernel
        /// (a NaN result only has to stay NaN; see [`bits`]).
        /// Entries repeat (ties at the maximum) and include ±∞, NaN,
        /// ±0 and the largest finite value; lengths run from 0 up.
        #[test]
        fn skipping_exp_at_the_max_is_exact(
            pool in proptest::prop::collection::vec(special(), 1..5),
            picks in proptest::prop::collection::vec(0usize..8, 0..9),
        ) {
            let xs: Vec<f64> = picks.iter().map(|&p| pool[p % pool.len()]).collect();
            proptest::prop_assert_eq!(
                bits(&[logsumexp(&xs)]),
                bits(&[unskipped_logsumexp(&xs)]),
                "{:?}", xs
            );
            let (mut got, mut want) = (xs.clone(), xs.clone());
            softmax_in_place(&mut got);
            unskipped_softmax(&mut want);
            proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?}", xs);
        }
    }

    #[test]
    fn skipping_exp_at_the_max_is_exact_at_the_edges() {
        let inf = f64::INFINITY;
        for xs in [
            &[][..],
            &[2.5],
            &[-inf],
            &[-inf, -inf, -inf],
            &[inf],
            &[inf, inf],
            &[inf, 1.0],
            &[f64::NAN],
            &[f64::NAN, 1.0],
            &[1.0, f64::NAN, 1.0],
            &[3.0, 3.0, 3.0],
            &[-0.0, 0.0],
        ] {
            assert_eq!(
                bits(&[logsumexp(xs)]),
                bits(&[unskipped_logsumexp(xs)]),
                "{xs:?}"
            );
            let (mut got, mut want) = (xs.to_vec(), xs.to_vec());
            softmax_in_place(&mut got);
            unskipped_softmax(&mut want);
            assert_eq!(bits(&got), bits(&want), "{xs:?}");
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = [1.0, 2.0, 3.0, -1e3, 1e3];
        softmax_in_place(&mut v);
        let s: f64 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn softmax_all_neg_inf_is_uniform() {
        let mut v = [f64::NEG_INFINITY; 4];
        softmax_in_place(&mut v);
        for &p in &v {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn dot_axpy_scale_norm() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [1.5, 2.5, 3.5]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
