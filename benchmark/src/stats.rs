//! Order statistics over small samples.

/// An ascending copy; NaNs (which no metric should produce) sort last.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let s = sorted(v);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The tail statistic: the value at the highest percentile that still has
/// at least ten samples beyond it, capped at p99. Returns `(value,
/// percentile)`. A sample of fewer than eleven has no such percentile and
/// yields its maximum (smoke runs only).
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let idx = p99.min(n - 11);
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// The order statistic at a given percentile: what [`tail`] picked from one
/// sample, taken from another (so two samples are compared at one
/// percentile).
pub fn at_percentile(v: &[f64], pct: f64) -> f64 {
    let s = sorted(v);
    let idx = ((pct / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    s[idx]
}
