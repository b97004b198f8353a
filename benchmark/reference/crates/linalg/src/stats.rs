//! Numerically-stable statistics: log-sum-exp, softmax, mean/variance and
//! the stable sigmoid. These are the primitives the Softmax-family losses
//! and the DRO analysis are built on.

/// Numerically-stable `log Σ exp(x_i)`, accumulated in `f64`.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
pub fn logsumexp(xs: &[f32]) -> f64 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return f64::NEG_INFINITY;
    }
    let m = m as f64;
    let s: f64 = xs.iter().map(|&x| ((x as f64) - m).exp()).sum();
    m + s.ln()
}

/// Numerically-stable `log (1/n · Σ exp(x_i))`.
///
/// This is the Log-Expectation-Exp structure at the heart of SL and BSL
/// (paper Eq. 5 / Eq. 18).
pub fn logmeanexp(xs: &[f32]) -> f64 {
    logsumexp(xs) - (xs.len() as f64).ln()
}

/// Writes the stable softmax of `xs / tau` into `out` and returns the
/// log-sum-exp of `xs / tau`.
///
/// # Panics
/// Panics if `tau <= 0` or the slices have different lengths.
pub fn softmax_into(xs: &[f32], tau: f32, out: &mut [f32]) -> f64 {
    assert!(tau > 0.0, "temperature must be positive, got {tau}");
    assert_eq!(xs.len(), out.len());
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let tau = tau as f64;
    let mut sum = 0.0f64;
    for (o, &x) in out.iter_mut().zip(xs.iter()) {
        let e = (((x as f64) - m) / tau).exp();
        *o = e as f32;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o = ((*o as f64) * inv) as f32;
    }
    m / tau + sum.ln()
}

/// Population mean and variance in a single pass (Welford), accumulated in
/// `f64`. Returns `(0, 0)` for an empty slice.
pub fn mean_var(xs: &[f32]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let x = x as f64;
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    (mean, m2 / xs.len() as f64)
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Stable `log σ(x)`; avoids the catastrophic cancellation of
/// `ln(sigmoid(x))` for very negative `x`.
#[inline]
pub fn log_sigmoid(x: f32) -> f64 {
    let x = x as f64;
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn logsumexp_matches_naive_on_small_inputs() {
        let xs = [0.1f32, -0.3, 2.0, 1.5];
        let naive: f64 = xs.iter().map(|&x| (x as f64).exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-10);
    }

    #[test]
    fn logsumexp_stable_for_huge_values() {
        let xs = [1000.0f32, 1000.0, 1000.0];
        let got = logsumexp(&xs);
        assert!((got - (1000.0 + 3.0f64.ln())).abs() < 1e-6);
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn logmeanexp_of_constant_is_constant() {
        let xs = [0.7f32; 17];
        assert!((logmeanexp(&xs) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let xs = [1.0f32, 2.0, 3.0];
        let mut out = [0.0f32; 3];
        softmax_into(&xs, 1.0, &mut out);
        let s: f32 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_low_tau_approaches_argmax() {
        let xs = [0.1f32, 0.9, 0.3];
        let mut out = [0.0f32; 3];
        softmax_into(&xs, 0.01, &mut out);
        assert!(out[1] > 0.999);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn softmax_rejects_nonpositive_tau() {
        let mut out = [0.0f32; 1];
        softmax_into(&[1.0], 0.0, &mut out);
    }

    #[test]
    fn mean_var_hand_example() {
        let (m, v) = mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((v - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_symmetry_and_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn log_sigmoid_stable() {
        assert!(log_sigmoid(-1000.0).is_finite() || log_sigmoid(-1000.0) == -1000.0);
        assert!((log_sigmoid(0.0) - (0.5f64).ln()).abs() < 1e-9);
        // For very negative x, log σ(x) ≈ x.
        assert!((log_sigmoid(-50.0) - (-50.0)).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_logsumexp_shift_invariance(
            xs in proptest::collection::vec(-5.0f32..5.0, 1..20),
            c in -3.0f32..3.0,
        ) {
            let shifted: Vec<f32> = xs.iter().map(|&x| x + c).collect();
            let lhs = logsumexp(&shifted);
            let rhs = logsumexp(&xs) + c as f64;
            prop_assert!((lhs - rhs).abs() < 1e-4);
        }

        #[test]
        fn prop_logmeanexp_bounds(xs in proptest::collection::vec(-5.0f32..5.0, 1..20)) {
            // mean <= logmeanexp <= max (Jensen).
            let (mean, _) = mean_var(&xs);
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
            let lme = logmeanexp(&xs);
            prop_assert!(lme >= mean - 1e-5);
            prop_assert!(lme <= max + 1e-5);
        }

        #[test]
        fn prop_softmax_is_distribution(
            xs in proptest::collection::vec(-8.0f32..8.0, 1..32),
            tau in 0.05f32..2.0,
        ) {
            let mut out = vec![0.0f32; xs.len()];
            softmax_into(&xs, tau, &mut out);
            let s: f64 = out.iter().map(|&x| x as f64).sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(out.iter().all(|&w| (0.0..=1.0).contains(&w)));
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-10.0f32..10.0, 0..50)) {
            let (_, v) = mean_var(&xs);
            prop_assert!(v >= -1e-9);
        }
    }
}
