//! Per-row symmetric int8 quantization for prepared score tables.
//!
//! A [`QuantizedTable`] stores each row of an embedding table as `dim`
//! signed bytes plus one f32 scale: `x ≈ scale · q` with
//! `q = round(x / scale)` and `scale = max_j |x_j| / 127`. The grid is
//! symmetric around zero (no zero-point), so a dot product against an f32
//! query needs exactly one multiply by `scale` after the integer-widening
//! accumulation — the fused [`dequant_dot`] / [`scores_block_i8`] kernels
//! in `bsl_linalg::simd` — and the table itself is 4× smaller than f32.
//!
//! Guarantees (property-tested in `tests/retrieval.rs` and below):
//!
//! * elementwise round-trip error is at most `scale / 2` — `round` never
//!   moves a value by more than half a grid step and the clamp at ±127 is
//!   unreachable because `|x| / scale ≤ 127` by construction;
//! * an all-zero row gets `scale = 0` and dequantizes to exactly zero;
//! * scales are always finite and non-negative — the codec rejects
//!   anything else as corruption.
//!
//! [`dequant_dot`]: bsl_linalg::simd::dequant_dot
//! [`scores_block_i8`]: bsl_linalg::simd::scores_block_i8

use bsl_linalg::simd::{scores_block_i8, scores_gather_i8};
use bsl_linalg::Matrix;

/// Quantizes one row: writes `round(x / scale)` into `dst` and returns
/// `scale = max|x| / 127` (`0.0` for an all-zero row, in which case `dst`
/// is zeroed).
///
/// # Panics
/// Panics if the slice lengths disagree.
pub fn quantize_row_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row_i8 length mismatch");
    let amax = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if amax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = amax / 127.0;
    let inv = 127.0 / amax;
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = (x * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// An `rows × dim` table of per-row-scaled int8 embeddings.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedTable {
    rows: usize,
    dim: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedTable {
    /// Quantizes every row of `src`.
    pub fn from_matrix(src: &Matrix) -> Self {
        let (rows, dim) = src.shape();
        let mut data = vec![0i8; rows * dim];
        let mut scales = vec![0.0f32; rows];
        for (r, s) in scales.iter_mut().enumerate() {
            *s = quantize_row_i8(src.row(r), &mut data[r * dim..(r + 1) * dim]);
        }
        Self { rows, dim, data, scales }
    }

    /// Rebuilds a table from its stored parts (the codec's entry point).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim` or `scales.len() != rows`.
    pub fn from_parts(rows: usize, dim: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "quantized buffer length mismatch");
        assert_eq!(scales.len(), rows, "scales length mismatch");
        Self { rows, dim, data, scales }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `r` as quantized bytes.
    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// The scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// The whole quantized buffer in row-major order.
    #[inline]
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// All per-row scales.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantizes row `r` into `out` (`out[j] = scale · q[j]`).
    ///
    /// # Panics
    /// Panics if `out.len() != dim`.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "dequantize_row_into length mismatch");
        let s = self.scales[r];
        for (o, &b) in out.iter_mut().zip(self.row(r).iter()) {
            *o = b as f32 * s;
        }
    }

    /// Dequantizes the whole table (tests and index rebuilds; serving
    /// never needs this).
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.dim);
        for r in 0..self.rows {
            self.dequantize_row_into(r, m.row_mut(r));
        }
        m
    }

    /// Scores `q` against every row via the fused int8 kernel:
    /// `out[r] = scale_r · <q, row_r>`.
    ///
    /// # Panics
    /// Panics if `q.len() != dim` or `out.len() != rows`.
    pub fn scores_into(&self, q: &[f32], out: &mut [f32]) {
        assert_eq!(q.len(), self.dim, "query width mismatch");
        scores_block_i8(q, &self.data, &self.scales, out);
    }

    /// Scores `q` against the gathered rows `ids` via the blocked gather
    /// kernel: `out[j] = scale(ids[j]) · <q, row(ids[j])>` (resizes `out`
    /// to `ids.len()`) — the IVF shortlist rescoring path.
    ///
    /// # Panics
    /// Panics if `q.len() != dim` or any id is out of range.
    pub fn scores_gather_into(&self, q: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        assert_eq!(q.len(), self.dim, "query width mismatch");
        out.resize(ids.len(), 0.0);
        scores_gather_i8(q, &self.data, &self.scales, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_linalg::simd::{dequant_dot, scalar};
    use proptest::prelude::*;

    #[test]
    fn zero_row_quantizes_to_zero_scale() {
        let m = Matrix::zeros(2, 5);
        let t = QuantizedTable::from_matrix(&m);
        assert_eq!(t.scale(0), 0.0);
        assert!(t.row(0).iter().all(|&b| b == 0));
        let mut out = vec![1.0f32; 5];
        t.dequantize_row_into(0, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn extreme_values_hit_plus_minus_127() {
        let m = Matrix::from_vec(1, 3, vec![2.0, -2.0, 0.0]);
        let t = QuantizedTable::from_matrix(&m);
        assert_eq!(t.row(0), &[127, -127, 0]);
        assert!((t.scale(0) - 2.0 / 127.0).abs() < 1e-9);
    }

    proptest! {
        /// Elementwise round-trip error is bounded by `scale / 2`.
        #[test]
        fn prop_roundtrip_error_within_half_step(
            row in proptest::collection::vec(-10.0f32..10.0, 1..80),
        ) {
            let m = Matrix::from_vec(1, row.len(), row.clone());
            let t = QuantizedTable::from_matrix(&m);
            let s = t.scale(0);
            prop_assert!(s.is_finite() && s >= 0.0);
            let mut deq = vec![0.0f32; row.len()];
            t.dequantize_row_into(0, &mut deq);
            for (&x, &y) in row.iter().zip(deq.iter()) {
                // A hair of slack for the f32 divide/multiply round trip.
                prop_assert!((x - y).abs() <= s * 0.5 + s * 1e-5, "{x} vs {y} (scale {s})");
            }
        }

        /// The fused kernel over a quantized row equals the f32 dot of the
        /// dequantized row, and stays within the quantization error budget
        /// of the original dot: `|Δ| ≤ (scale/2)·Σ|q_j|`.
        #[test]
        fn prop_quantized_dot_error_is_bounded(
            row in proptest::collection::vec(-4.0f32..4.0, 1..80),
            seed in 0u64..500,
        ) {
            let d = row.len();
            let q: Vec<f32> = (0..d).map(|i| (((i as u64 * 37 + seed) % 17) as f32) * 0.1 - 0.8).collect();
            let m = Matrix::from_vec(1, d, row.clone());
            let t = QuantizedTable::from_matrix(&m);
            let fused = dequant_dot(&q, t.row(0), t.scale(0));
            let exact = scalar::dot(&q, &row);
            let budget = 0.5 * t.scale(0) * q.iter().map(|x| x.abs()).sum::<f32>() + 1e-4;
            prop_assert!((fused - exact).abs() <= budget, "{fused} vs {exact} (budget {budget})");
        }
    }

    #[test]
    fn scores_into_matches_per_row_dequant_dot() {
        let m = Matrix::from_fn(7, 13, |r, c| ((r * 31 + c * 17) % 11) as f32 * 0.3 - 1.5);
        let t = QuantizedTable::from_matrix(&m);
        let q: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut got = vec![0.0f32; 7];
        t.scores_into(&q, &mut got);
        for (r, &g) in got.iter().enumerate() {
            let want = dequant_dot(&q, t.row(r), t.scale(r));
            assert!((g - want).abs() <= 1e-5 * (1.0 + want.abs()), "row {r}");
        }
    }
}
