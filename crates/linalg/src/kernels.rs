//! Hot vector kernels: dot products, axpy, normalization and the cosine
//! score/gradient pair used by every backbone during training.
//!
//! The element kernels are the runtime-dispatched ones of [`crate::simd`]
//! (scalar reference / portable unrolled / AVX2+FMA, resolved once per
//! process), re-exported here. Set `BSL_SIMD=scalar` to pin the bit-exact
//! reference implementations; see the [`crate::simd`] docs for the full
//! dispatch story and the blocked (batch) kernel variants.

pub use crate::simd::{axpy, cosine_backward_into, dot, normalize_into, scale, sq_dist};

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).max(0.0).sqrt()
}

/// Cosine similarity between two raw (unnormalized) vectors.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a).max(1e-12);
    let nb = norm(b).max(1e-12);
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())), "{a} vs {b}");
    }

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_known() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let x = [3.0, 4.0];
        let mut out = [0.0; 2];
        let n = normalize_into(&x, &mut out);
        assert_close(n, 5.0, 1e-6);
        assert_close(norm(&out), 1.0, 1e-6);
        assert_close(out[0], 0.6, 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_finite() {
        let x = [0.0, 0.0, 0.0];
        let mut out = [9.0; 3];
        let n = normalize_into(&x, &mut out);
        assert_eq!(n, 0.0);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cosine_bounds_and_signs() {
        assert_close(cosine(&[1.0, 0.0], &[1.0, 0.0]), 1.0, 1e-6);
        assert_close(cosine(&[1.0, 0.0], &[-1.0, 0.0]), -1.0, 1e-6);
        assert_close(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0, 1e-6);
    }

    /// Central finite-difference check of `cosine_backward_into`.
    #[test]
    fn cosine_gradient_matches_finite_difference() {
        let a = [0.3f32, -0.7, 1.2, 0.05];
        let b = [-0.5f32, 0.9, 0.2, -1.1];
        let mut a_hat = [0.0; 4];
        let mut b_hat = [0.0; 4];
        let an = normalize_into(&a, &mut a_hat);
        normalize_into(&b, &mut b_hat);
        let s = dot(&a_hat, &b_hat);

        let mut grad = [0.0f32; 4];
        cosine_backward_into(1.0, s, &a_hat, &b_hat, an, &mut grad);

        let h = 1e-3f32;
        for k in 0..4 {
            let mut ap = a;
            let mut am = a;
            ap[k] += h;
            am[k] -= h;
            let num = (cosine(&ap, &b) - cosine(&am, &b)) / (2.0 * h);
            assert_close(grad[k], num, 1e-2);
        }
    }

    proptest! {
        #[test]
        fn prop_cosine_in_unit_interval(
            a in proptest::collection::vec(-10.0f32..10.0, 4),
            b in proptest::collection::vec(-10.0f32..10.0, 4),
        ) {
            let c = cosine(&a, &b);
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&c));
        }

        #[test]
        fn prop_sq_dist_matches_norm_identity(
            a in proptest::collection::vec(-5.0f32..5.0, 6),
            b in proptest::collection::vec(-5.0f32..5.0, 6),
        ) {
            // ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>
            let lhs = sq_dist(&a, &b);
            let rhs = dot(&a, &a) + dot(&b, &b) - 2.0 * dot(&a, &b);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
        }

        #[test]
        fn prop_axpy_linear(alpha in -3.0f32..3.0, x in proptest::collection::vec(-2.0f32..2.0, 5)) {
            let mut y = vec![0.0f32; 5];
            axpy(alpha, &x, &mut y);
            for (yi, xi) in y.iter().zip(x.iter()) {
                prop_assert!((yi - alpha * xi).abs() < 1e-6);
            }
        }
    }
}
