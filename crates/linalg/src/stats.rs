//! Numerically-stable statistics: log-sum-exp, softmax, mean/variance and
//! the stable sigmoid. These are the primitives the Softmax-family losses
//! and the DRO analysis are built on.

use crate::simd;

/// Numerically-stable `log Σ exp(x_i)` in f64 libm arithmetic: the path of
/// the offline DRO analysis, and the oracle the training-path kernel
/// ([`simd::softmax_row`]) is tested against.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials) and
/// `+inf` when any element is `+inf`.
pub fn logsumexp(xs: &[f32]) -> f64 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m.is_infinite() {
        return m as f64;
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
/// log-sum-exp of `xs / tau`: one [`simd::softmax_row`] call, one scale.
///
/// # Panics
/// Panics if `tau <= 0` or the slices have different lengths.
pub fn softmax_into(xs: &[f32], tau: f32, out: &mut [f32]) -> f64 {
    assert!(tau > 0.0, "temperature must be positive, got {tau}");
    let (max, sum) = simd::softmax_row(xs, tau, out);
    simd::scale((1.0 / sum) as f32, out);
    max as f64 / tau as f64 + ln(sum)
}

/// Natural logarithm in f64 without libm: the fdlibm `e_log.c` algorithm
/// (`x = 2^k·(1+f)` with `1+f` in `[√2/2, √2)`, then a degree-14 odd series
/// in `s = f/(2+f)`), under 1 ULP. `+ − × ÷` and bit operations only, so the
/// result is the same on every host.
///
/// `ln(1) = 0` exactly; `ln(0) = −inf`; negative input gives NaN; `+inf`
/// and NaN pass through.
pub fn ln(x: f64) -> f64 {
    // fdlibm's constants, as the shortest decimals that round to its bits.
    const LN2_HI: f64 = 0.693_147_180_369_123_8; // 0x3fe62e42_fee00000
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10; // 0x3dea39ef_35793c76
    const LG: [f64; 7] = [
        0.666_666_666_666_673_5,  // 0x3fe55555_55555593
        0.399_999_999_994_094_2,  // 0x3fd99999_9997fa04
        0.285_714_287_436_623_9,  // 0x3fd24924_94229359
        0.222_221_984_321_497_84, // 0x3fcc71c5_1d8e78af
        0.181_835_721_616_180_5,  // 0x3fc74664_96cb03de
        0.153_138_376_992_093_73, // 0x3fc39a09_d078c69f
        0.147_981_986_051_165_86, // 0x3fc2f112_df3e5244
    ];
    /// High word of `√2/2`: the mantissa boundary of the reduction.
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e;

    let mut bits = x.to_bits();
    let mut k = 0i64;
    if x < f64::MIN_POSITIVE {
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x < 0.0 {
            return f64::NAN;
        }
        // Subnormal: scale into the normal range.
        k = -54;
        bits = (x * 18_014_398_509_481_984.0).to_bits(); // 2^54
    } else if bits >= 0x7ff0_0000_0000_0000 {
        return x;
    }
    let hi = (bits >> 32) + (0x3ff0_0000 - SQRT_HALF_HI);
    k += (hi >> 20) as i64 - 0x3ff;
    let hi = (hi & 0x000f_ffff) + SQRT_HALF_HI;
    let f = f64::from_bits(hi << 32 | (bits & 0xffff_ffff)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let dk = k as f64;
    s * (hfsq + (t2 + t1)) + dk * LN2_LO - hfsq + f + dk * LN2_HI
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
    fn logsumexp_with_an_infinite_maximum_is_that_infinity() {
        assert_eq!(logsumexp(&[0.3, f32::INFINITY, -2.0]), f64::INFINITY);
        assert_eq!(logsumexp(&[f32::NEG_INFINITY; 3]), f64::NEG_INFINITY);
    }

    /// A log-spaced grid over `[1e-300, 1e300]`, the integers the losses
    /// feed it (`Σ/m` is near a small integer ratio) and the special values.
    #[test]
    fn ln_is_within_one_ulp_of_f64_ln() {
        let grid = (0..=60_000).map(|i| 10f64.powf(-300.0 + i as f64 * 0.01));
        for x in grid.chain((1..=4096).map(f64::from)).chain([f64::MIN_POSITIVE, 5e-324, 2.5e-310])
        {
            let (got, want) = (ln(x), x.ln());
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(ulps <= 1, "ln({x:e}) = {got:e}, {ulps} ULP from {want:e}");
        }
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NEG_INFINITY).is_nan() && ln(f64::NAN).is_nan());
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
