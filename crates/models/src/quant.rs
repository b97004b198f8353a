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
//! * elementwise round-trip error is at most `scale / 2` — rounding never
//!   moves a value by more than half a grid step and the clamp at ±127 is
//!   unreachable because `|x| / scale ≤ 127` by construction;
//! * an all-zero row gets `scale = 0` and dequantizes to exactly zero;
//! * scales are always finite and non-negative — the codec rejects
//!   anything else as corruption.
//!
//! # A sketch that certifies the f32 scan
//!
//! A [`Sketch`] is the int8 copy of an f32 item table that exact serving
//! scans *instead of* the table: it turns each int8 score `T_i` into an
//! interval `[T_i − h_i, T_i + h_i]` that provably holds the f32 score
//! `S_i` the plain scan ([`scores_block`]) computes for the same row, at
//! every dispatch level. [`Sketch::prune_into`] keeps only the rows whose
//! upper bound reaches the k-th best lower bound among unmasked rows
//! (`L_k`). The true k-th score is `≥ L_k` (k unmasked rows have
//! `S ≥ lo ≥ L_k`), so every row of the true top k — and every row tied
//! with its last entry — has `hi ≥ S ≥ L_k` and survives. Rescoring the
//! survivors in f32 and selecting among them returns the plain scan's
//! answer exactly.
//!
//! **The sketch score.** The query is quantized too, with the same
//! [`quantize_row_i8`]: `q ≈ s_q·q̂`. [`dots_block_i8`] returns the exact
//! integer `D_i = ⟨q̂, x̂_i⟩` (every dispatch level gives the same one), and
//! `T_i = fl(D_i)·fl(s_i·s_q)`. Each row stores `E_i = ‖x̂_i‖₁` and each
//! query has `Q = ‖q̂‖₁`, both exact integers.
//!
//! **The half-width.** Write `u = 2⁻²⁴` (f32 unit roundoff), `c = ½ + 382u`,
//! `N = ‖q‖₁`, `a_i = ⟨q, x_i⟩` (exact), and `γ_m = m·u / (1 − m·u)`.
//!
//! 1. *Quantization.* With `t = fl(x·inv)`, `inv = fl(127/amax)` and
//!    `s = fl(amax/127)`, rounding gives `|x̂ − t| ≤ ½`, and
//!    `s·t = x·(1+δ₁)(1+δ₂)(1+δ₃)` with `|x| ≤ amax ≤ 127·s/(1−u)`, so
//!    `|x − s·x̂| ≤ s·c` per coordinate, for rows and query alike. This
//!    needs `s` and `inv` normal, which holds when `amax` is 0 or at least
//!    `2⁻¹⁰⁰`. Exactly,
//!    `a_i − s_i·s_q·D_i = ⟨q − s_q·q̂, x_i⟩ + s_q·⟨q̂, x_i − s_i·x̂_i⟩`.
//!    With `|x_ij| ≤ s_i·(|x̂_ij| + c)` the first term is at most
//!    `s_q·c·s_i·(E_i + d·c)` and the second `s_q·Q·s_i·c`, so
//!    `|a_i − s_i·s_q·D_i| ≤ s_i·s_q·c·(E_i + Q + d·c)`.
//! 2. *The scan's rounding.* Every kernel that can produce `S_i`
//!    (sequential scalar, 8-lane portable, AVX2 one- and two-row, with or
//!    without FMA) rounds each product at most `d + 16` times on its way to the
//!    result — the sequential scalar order is the worst at `d + 1`. So
//!    `|S_i − a_i| ≤ γ_{d+16}·Σ|q_j x_ij| ≤ γ_{d+16}·N·127·s_i·(1+2u)`.
//! 3. *The sketch score's rounding.* `D_i` is exact, and so is `fl(D_i)`
//!    up to `d = 1,040` (`|D_i| ≤ 127²·d < 2²⁴`); with the product `s_i·s_q`
//!    and the final multiply that is at most three roundings:
//!    `|T_i − s_i·s_q·D_i| ≤ 3.0001u·s_i·s_q·|D_i|`, with `|D_i| ≤ 127·Q`.
//! 4. *The interval itself.* `lo = fl(T − h)` and `hi = fl(T + h)` hold `S`
//!    when `h·(1 − u) ≥ |S − T| + u·|T|`, and
//!    `u·|T| ≤ 1.0001u·127·s_i·s_q·Q`.
//!
//! Summed: `h_i = s_i·(A(q) + B(q)·E_i) + 2⁻¹⁰⁰` with
//! `B = s_q·c` and `A = N·γ_{d+16}·127·(1+2u) + s_q·(c·(Q + d·c) + 127·6u·Q)`.
//! Both are formed in f64 and scaled by `1 + 2⁻¹⁶`, which covers the f64
//! sum of `N`, their conversion to f32, the f32 steps `B·E_i`, `+ A`,
//! `s_i·(…)` and the `1 − u` of term 4, each at most one rounding. `A` and
//! `B·E_i` are 0 or at least `2⁻¹¹⁰` (`s_q ≥ 2⁻¹⁰⁷`, `E_i ≥ 1`, `d ≥ 1`), so
//! no underflow before the multiply by `s_i` is magnified by it. Every other
//! underflow adds at most `2⁻¹⁵⁰` to one operation, or `2⁻¹²⁰` where
//! `fl(D_i)` multiplies it; `SKETCH_ABS_SLACK` (`2⁻¹⁰⁰`) covers them all
//! for `d ≤ 2¹⁶`.
//!
//! **When there is no certificate.** The argument needs finite numbers
//! that never overflow. A sketch is only built over a finite table of
//! width `≤ 2¹⁶` whose nonzero rows have `amax ≥ 2⁻¹⁰⁰`
//! ([`Sketch::new`] returns `None` otherwise). A query only gets one when
//! `N` is finite, it is zero or its own `amax` is at least `2⁻¹⁰⁰`,
//! `4·N·max amax` fits in an f32 (every partial sum of the scan), and so
//! does twice the largest `|T_i| + h_i` any row could reach
//! (`Sketch::certify` returns `None` otherwise).
//!
//! [`dequant_dot`]: bsl_linalg::simd::dequant_dot
//! [`dots_block_i8`]: bsl_linalg::simd::dots_block_i8
//! [`scores_block_i8`]: bsl_linalg::simd::scores_block_i8
//! [`scores_block`]: bsl_linalg::simd::scores_block

use bsl_linalg::simd::{dots_block_i8, scores_block_i8, scores_gather_i8};
use bsl_linalg::Matrix;

/// Quantizes one row: writes `round(x / scale)` into `dst` and returns
/// `scale = max|x| / 127` (`0.0` for an all-zero row, in which case `dst`
/// is zeroed). Halves round away from zero; a NaN entry, and every entry
/// of a row holding an infinity, maps to 0.
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
        // `f32::round` is a libm call on baseline x86-64. Truncate instead
        // (`as` maps NaN to 0) and step away from zero when the dropped
        // fraction, exact for |t| ≤ 127, is at least one half.
        let t = (x * inv).clamp(-127.0, 127.0);
        let r = t as i32;
        let f = t - r as f32;
        *d = (r + i32::from(f >= 0.5) - i32::from(f <= -0.5)) as i8;
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
        Self::from_rows(src, |_, _, _| true).expect("every row accepted")
    }

    /// Quantizes every row of `src`, or `None` as soon as
    /// `accept(row, bytes, scale)` refuses one (asked while the row is in
    /// L1).
    fn from_rows(src: &Matrix, mut accept: impl FnMut(&[f32], &[i8], f32) -> bool) -> Option<Self> {
        let (rows, dim) = src.shape();
        let mut data = vec![0i8; rows * dim];
        let mut scales = vec![0.0f32; rows];
        for (r, s) in scales.iter_mut().enumerate() {
            let bytes = &mut data[r * dim..(r + 1) * dim];
            *s = quantize_row_i8(src.row(r), bytes);
            if !accept(src.row(r), bytes, *s) {
                return None;
            }
        }
        Some(Self { rows, dim, data, scales })
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

/// f32 unit roundoff, `2⁻²⁴`.
const U: f64 = f32::EPSILON as f64 / 2.0;
/// The absolute term of every sketch half-width, `2⁻¹⁰⁰`: it covers the
/// underflow of every operation behind one interval (module docs).
const SKETCH_ABS_SLACK: f32 = f32::MIN_POSITIVE * (1u32 << 26) as f32;
/// The smallest scale of a nonzero row the bound holds for: `2⁻¹⁰⁷`, just
/// below `2⁻¹⁰⁰ / 127`, so `amax ≥ 2⁻¹⁰⁰` and both `scale` and `1/scale`
/// are normal.
const SKETCH_MIN_SCALE: f32 = f32::MIN_POSITIVE * (1u32 << 19) as f32;
/// The widest table a sketch bounds: `d + 16` roundings per product keep
/// `γ` tiny, and the underflow slack counts operations.
const SKETCH_MAX_DIM: usize = 1 << 16;
/// Rows scored per [`dots_block_i8`] call of [`Sketch::prune_into`]: the
/// tile stays in L1, and the bound test runs on it while hot.
const SKETCH_TILE: usize = 64;
/// Rows the bound test compares against the floor at once (an 8-lane
/// compare the compiler vectorises, as in `TopK::select_masked_into`).
const SKETCH_LANES: usize = 8;
/// [`Sketch::prune_into`] gives up on more than `rows / MAX_SURVIVOR_SHARE`
/// survivors. On 38,048 × 64 rows (AVX2, 2-vCPU Xeon) the sketch pass
/// costs ≈ 2.3 ns a row, each survivor ≈ 55 ns more to stage, rescore and
/// select (CML rows, 8,206 survivors), and the plain scan ≈ 9 ns a row:
/// the pruned path stays ahead while under ≈ 1/8 of the rows survive,
/// and 1/16 keeps a margin.
const MAX_SURVIVOR_SHARE: usize = 16;

/// An int8 copy of an f32 item table whose scores bound the f32 scan's
/// (module docs): exact serving scans it, then rescores only the rows that
/// can still reach the top k.
#[derive(Clone, Debug)]
pub struct Sketch {
    table: QuantizedTable,
    /// `E_i = ‖x̂_i‖₁` of every row, exact in f32 (at most `127·2¹⁶`).
    l1: Vec<f32>,
    /// `γ_{d+16}·127·(1 + 2u)`: the f32 scan's rounding per unit of
    /// `s_i·‖q‖₁`.
    scan_rounding: f64,
    /// `128 · max scale`, at least the table's largest `|x|`.
    amax: f32,
}

/// The per-query part of every sketch interval (module docs): row `i`
/// scores `T_i = fl(D_i)·fl(s_i·s_q)` within `h_i = s_i·(a + b·E_i) + 2⁻¹⁰⁰`
/// of the f32 scan.
#[derive(Clone, Copy, Debug)]
struct Certificate {
    /// `s_q`, the quantized query's scale.
    sq: f32,
    /// `A(q)·(1 + 2⁻¹⁶)`.
    a: f32,
    /// `B(q)·(1 + 2⁻¹⁶)`.
    b: f32,
}

impl Certificate {
    /// `T_i` of a row with exact dot `dot` and scale `s`.
    #[inline]
    fn score(self, dot: i32, s: f32) -> f32 {
        dot as f32 * (s * self.sq)
    }

    /// `h_i` of a row with scale `s` and `E_i = e`.
    #[inline]
    fn half_width(self, s: f32, e: f32) -> f32 {
        s * (self.a + self.b * e) + SKETCH_ABS_SLACK
    }
}

/// The tile epilogue of [`Sketch::prune_into`]: `T_i` into `ts` and `h_i`
/// into `hs` for every row of a tile, from its exact dot, scale and `E_i`.
#[inline]
fn bound_tile(
    cert: Certificate,
    dots: &[i32],
    scales: &[f32],
    l1: &[f32],
    ts: &mut [f32],
    hs: &mut [f32],
) {
    let rows = ts.iter_mut().zip(hs.iter_mut()).zip(dots.iter().zip(scales).zip(l1));
    for ((t, h), ((&dot, &s), &e)) in rows {
        *t = cert.score(dot, s);
        *h = cert.half_width(s, e);
    }
}

/// Reusable buffers of [`Sketch::prune_into`]; allocation-free once warm.
#[derive(Default)]
pub struct PruneScratch {
    /// The quantized query `q̂`.
    qhat: Vec<i8>,
    /// One tile of exact dots `D_i`.
    dots: Vec<i32>,
    /// One tile of sketch scores `T_i`.
    tile: Vec<f32>,
    /// One tile of half-widths `h_i`.
    half: Vec<f32>,
    /// One tile's `(row, upper bound)` pairs on their way to `kept`.
    stage: Vec<(u32, f32)>,
    /// The best lower bounds among unmasked rows so far, descending.
    lows: Vec<f32>,
    /// `(row, upper bound)` of every row that reached the floor.
    kept: Vec<(u32, f32)>,
}

impl Sketch {
    /// Quantizes `src` into a sketch, or `None` when its bound cannot be
    /// certified: a non-finite entry, a nonzero row whose largest `|x|` is
    /// below `2⁻¹⁰⁰`, or a width outside `1..=2¹⁶`.
    pub fn new(src: &Matrix) -> Option<Self> {
        let dim = src.cols();
        if dim == 0 || dim > SKETCH_MAX_DIM {
            return None;
        }
        // A nonzero row always has a nonzero byte (its largest entry maps
        // to ±127).
        let mut l1 = Vec::with_capacity(src.rows());
        let table = QuantizedTable::from_rows(src, |row, bytes, s| {
            let tiny = s < SKETCH_MIN_SCALE && bytes.iter().any(|&b| b != 0);
            l1.push(bytes.iter().map(|&b| u32::from(b.unsigned_abs())).sum::<u32>() as f32);
            !tiny && row.iter().fold(true, |ok, x| ok & x.is_finite())
        })?;
        let m = (dim + 16) as f64;
        let gamma = m * U / (1.0 - m * U);
        let scan_rounding = gamma * 127.0 * (1.0 + 2.0 * U);
        let amax = 128.0 * table.scales.iter().fold(0.0f32, |m, &s| m.max(s));
        Some(Self { table, l1, scan_rounding, amax })
    }

    /// Quantizes `q` into `qhat` and returns its [`Certificate`], or
    /// `None` when it has none (module docs): a non-finite `‖q‖₁`, a
    /// nonzero query whose largest `|q_j|` is below `2⁻¹⁰⁰`, or a score
    /// that could overflow.
    ///
    /// # Panics
    /// Panics if `q.len() != dim`.
    fn certify(&self, q: &[f32], qhat: &mut Vec<i8>) -> Option<Certificate> {
        let d = self.table.dim();
        assert_eq!(q.len(), d, "query width mismatch");
        let n1: f64 = q.iter().map(|&x| f64::from(x.abs())).sum();
        if !n1.is_finite() {
            return None;
        }
        qhat.resize(d, 0);
        let sq = quantize_row_i8(q, qhat);
        let big_q = qhat.iter().map(|&b| u32::from(b.unsigned_abs())).sum::<u32>() as f64;
        if sq < SKETCH_MIN_SCALE && big_q != 0.0 {
            return None;
        }
        let (s, d, c) = (f64::from(sq), d as f64, 0.5 + 382.0 * U);
        let widen = 1.0 + 2f64.powi(-16);
        let a =
            widen * (n1 * self.scan_rounding + s * (c * (big_q + d * c) + 127.0 * 6.0 * U * big_q));
        let b = widen * s * c;
        // The largest |T_i| + h_i any row could reach (E_i ≤ 127·d).
        let reach = f64::from(self.amax) / 128.0 * (s * 127.0 * big_q + a + b * 127.0 * d);
        let max = f64::from(f32::MAX);
        let fits = [4.0 * n1 * f64::from(self.amax), 2.0 * reach, a, b].iter().all(|&x| x <= max);
        fits.then_some(Certificate { sq, a: a as f32, b: b as f32 })
    }

    /// Writes into `out` (cleared first), ascending, every row that can
    /// still be among the `k` best unmasked rows of the f32 scan: the rows
    /// whose upper bound reaches `L_k`, the k-th best lower bound among
    /// unmasked rows. Rows are kept whatever `mask` says — the caller masks
    /// the survivors when it selects among them.
    ///
    /// One pass: `q` is quantized once, each tile of exact int8 dots turns
    /// into sketch scores and half-widths, and those are compared, eight at
    /// a time, against the running k-th best lower bound, which only rises;
    /// only a row whose lower bound would enter that set is offered to
    /// `mask`. Returns `false` (and leaves `out` empty) when the plain scan
    /// should answer instead: `q` has no certificate (a non-finite `‖q‖₁`,
    /// a nonzero `q` below `2⁻¹⁰⁰`, or a score that could overflow), fewer
    /// than `k` rows are unmasked, or more than a sixteenth of the rows
    /// survive.
    ///
    /// # Panics
    /// Panics if `q.len() != dim`.
    pub fn prune_into(
        &self,
        q: &[f32],
        k: usize,
        mask: impl Fn(usize) -> bool,
        scratch: &mut PruneScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        out.clear();
        if k == 0 {
            return true;
        }
        let PruneScratch { qhat, dots, tile, half, stage, lows, kept } = scratch;
        let Some(cert) = self.certify(q, qhat) else {
            return false;
        };
        lows.clear();
        kept.clear();
        dots.resize(SKETCH_TILE, 0);
        tile.resize(SKETCH_TILE, 0.0);
        half.resize(SKETCH_TILE, 0.0);
        stage.resize(SKETCH_TILE, (0, 0.0));
        let (n, d) = (self.table.rows(), self.table.dim());
        let mut floor = f32::NEG_INFINITY;
        for start in (0..n).step_by(SKETCH_TILE) {
            let rows = SKETCH_TILE.min(n - start);
            let dots = &mut dots[..rows];
            dots_block_i8(qhat, &self.table.data[start * d..(start + rows) * d], dots);
            let (scores, hs) = (&mut tile[..rows], &mut half[..rows]);
            let scales = &self.table.scales[start..start + rows];
            bound_tile(cert, dots, scales, &self.l1[start..start + rows], scores, hs);
            let mut staged = 0usize;
            let mut visit = |at: usize, ts: &[f32], hs: &[f32], floor: &mut f32| {
                for (j, (&t, &h)) in ts.iter().zip(hs).enumerate() {
                    // Staged without a branch: where many rows sit near the
                    // floor, a branch per row mispredicts on every other one.
                    stage[staged] = ((at + j) as u32, t + h);
                    staged += usize::from(t + h >= *floor);
                    let lo = t - h;
                    if lo > *floor && !mask(at + j) {
                        if lows.len() == k {
                            lows.pop();
                        }
                        let at = lows.partition_point(|&e| e >= lo);
                        lows.insert(at, lo);
                        if lows.len() == k {
                            *floor = lows[k - 1];
                        }
                    }
                }
            };
            let mut at = start;
            for (ts, hs) in scores.chunks_exact(SKETCH_LANES).zip(hs.chunks_exact(SKETCH_LANES)) {
                if ts.iter().zip(hs).fold(false, |any, (&t, &h)| any | (t + h >= floor)) {
                    visit(at, ts, hs, &mut floor);
                }
                at += SKETCH_LANES;
            }
            let tail = rows - rows % SKETCH_LANES;
            visit(at, &scores[tail..], &hs[tail..], &mut floor);
            kept.extend_from_slice(&stage[..staged]);
        }
        if lows.len() < k {
            return false;
        }
        out.extend(kept.iter().filter(|&&(_, hi)| hi >= floor).map(|&(i, _)| i));
        if out.len() > n / MAX_SURVIVOR_SHARE {
            out.clear();
            return false;
        }
        true
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

    /// The `f32::round` form `quantize_row_i8` replaced: the byte oracle.
    fn quantize_row_round(src: &[f32], dst: &mut [i8]) -> f32 {
        let amax = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if amax == 0.0 {
            dst.fill(0);
            return 0.0;
        }
        let inv = 127.0 / amax;
        for (d, &x) in dst.iter_mut().zip(src.iter()) {
            *d = (x * inv).round().clamp(-127.0, 127.0) as i8;
        }
        amax / 127.0
    }

    #[test]
    fn truncating_quantizer_matches_the_round_form() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (nan, inf, sub) = (f32::NAN, f32::INFINITY, f32::MIN_POSITIVE / 64.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut patterns: Vec<Vec<f32>> = vec![
            // amax 127 and 254 scale by exactly 1 and 1/2: exact halves.
            vec![127.0, 0.5, -0.5, 1.5, -1.5, 126.5, -126.5, 2.5, -63.5, 0.499_999_97],
            vec![254.0, 1.0, -1.0, 3.0, -3.0, 253.0, -253.0, -254.0],
            vec![-3.0, 3.0, 1.5, -0.7, 2.999_999_8],
            vec![sub, -sub, 3.0 * sub, 0.0, -0.0],
            vec![1.0, sub, -sub, 1e-38],
            vec![0.0],
            vec![nan, 1.0, -0.5, 0.25],
            vec![inf, 1.0, -2.0],
            vec![-inf, 2.0, nan, 0.0],
        ];
        patterns.extend((0..40).map(|_| {
            let mag = 10f32.powi(rng.gen_range(-30..30));
            (0..9).map(|_| rng.gen_range(-1.0f32..1.0) * mag).collect()
        }));
        for d in [1usize, 7, 8, 64, 65] {
            for p in &patterns {
                for shift in 0..p.len() {
                    let row: Vec<f32> = (0..d).map(|j| p[(j + shift) % p.len()]).collect();
                    let (mut got, mut want) = (vec![0i8; d], vec![0i8; d]);
                    let s = quantize_row_i8(&row, &mut got);
                    let s_want = quantize_row_round(&row, &mut want);
                    assert_eq!(got, want, "d {d} row {row:?}");
                    assert_eq!(s.to_bits(), s_want.to_bits(), "d {d} row {row:?}");
                }
            }
        }
    }

    /// Every row's `(T_i, h_i)`, built as `prune_into` builds them.
    fn sketch_scores(sketch: &Sketch, q: &[f32]) -> Vec<(f32, f32)> {
        let mut qhat = Vec::new();
        let cert = sketch.certify(q, &mut qhat).expect("a certified query");
        let mut dots = vec![0i32; sketch.table.rows()];
        dots_block_i8(&qhat, sketch.table.data(), &mut dots);
        let row = |(r, &dot): (usize, &i32)| {
            let s = sketch.table.scale(r);
            (cert.score(dot, s), cert.half_width(s, sketch.l1[r]))
        };
        dots.iter().enumerate().map(row).collect()
    }

    /// Asserts that every row's f32 score lies in its sketch interval: the
    /// whole-table scan at the process level (CI runs the suite under
    /// scalar, portable and native dispatch) and the one-row dot at every
    /// level this host has. Returns the largest `|S − T| / h` it saw.
    fn assert_intervals_hold(m: &Matrix, q: &[f32]) -> f32 {
        use bsl_linalg::simd::{active, dot_with, scores_block, SimdLevel};
        let sketch = Sketch::new(m).expect("a sketch");
        let mut scan = vec![0.0f32; m.rows()];
        scores_block(q, m.as_slice(), &mut scan);
        let mut levels = vec![SimdLevel::Scalar, SimdLevel::Portable];
        if active() == SimdLevel::Avx2Fma {
            levels.push(SimdLevel::Avx2Fma);
        }
        let mut worst = 0.0f32;
        for (r, (t, h)) in sketch_scores(&sketch, q).into_iter().enumerate() {
            let at_levels = levels.iter().map(|&lv| dot_with(lv, q, m.row(r)));
            for f in at_levels.chain([scan[r]]) {
                assert!(t - h <= f && f <= t + h, "row {r}: {f} vs {t} ± {h}");
                worst = worst.max((f - t).abs() / h);
            }
        }
        worst
    }

    /// Widths below, at and past the AVX2 int8 leg's 32-byte step.
    const WIDTHS: [usize; 9] = [1, 7, 8, 31, 32, 33, 64, 65, 128];

    proptest! {
        /// The f32 scan's score of every row lies in the row's sketch
        /// interval. Rows span 27 orders of magnitude, some carry one huge
        /// coordinate, some are zero; queries spread their mass, put it in
        /// one coordinate, or are zero.
        #[test]
        fn prop_sketch_interval_holds_the_scan_score(
            dsel in 0usize..9,
            n in 1usize..40,
            seed in 0u64..100_000,
            qexp in -15i32..12,
            qshape in 0usize..3,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let d = WIDTHS[dsel];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Matrix::zeros(n, d);
            for r in 0..n {
                let shape = rng.gen_range(0..4);
                let mag = 10f32.powi(rng.gen_range(-15..12));
                let row = m.row_mut(r);
                if shape != 0 {
                    row.iter_mut().for_each(|x| *x = rng.gen_range(-1.0f32..1.0) * mag);
                }
                if shape == 3 {
                    row[r % d] = 1e4 * mag;
                }
            }
            let qmag = 10f32.powi(qexp);
            let mut q: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0) * qmag).collect();
            match qshape {
                1 => q[seed as usize % d] = 1e4 * qmag,
                2 => q.fill(0.0),
                _ => {}
            }
            assert_intervals_hold(&m, &q);
        }
    }

    /// The bound is tight. Every coordinate of the query and of each row
    /// sits on a quantization half-step (rounding away from zero) or just
    /// below one (rounding toward it), with opposite signs, so both
    /// quantization errors push `S − T` the same way, and the coordinates
    /// holding `amax` (0 for the query, 1 for a row) meet a half-step on
    /// the other side. `|S − T|` then comes within the rounding slack of
    /// `h`: dropping `E_i` or `Q` from the bound fails here.
    #[test]
    fn worst_case_rows_stay_inside_their_interval() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut worst = 0.0f32;
        // Eleven rows: the AVX2 leg's eight-row pass and a short last group.
        let n = 11;
        for d in [2usize, 7, 8, 31, 32, 33, 64, 65, 128] {
            for below in [0.0f32, 2f32.powi(-17)] {
                for _ in 0..40 {
                    // `k + ½ − below` is exact in f32 for k ≤ 125.
                    let half = |k: i32, exp: i32| (k as f32 + 0.5 - below) * 2f32.powi(exp);
                    let f = rng.gen_range(-8..8);
                    let mut q: Vec<f32> = (0..d).map(|_| half(rng.gen_range(0..126), f)).collect();
                    (q[0], q[1]) = (127.0 * 2f32.powi(f), half(0, f));
                    let mut m = Matrix::zeros(n, d);
                    for r in 0..n {
                        let e = rng.gen_range(-8..8);
                        let row = m.row_mut(r);
                        row.iter_mut().for_each(|x| *x = half(rng.gen_range(0..126), e));
                        (row[0], row[1]) = (half(0, e), 127.0 * 2f32.powi(e));
                    }
                    for (j, qj) in q.iter_mut().enumerate() {
                        if rng.gen_range(0..2) == 1 {
                            *qj = -*qj;
                        } else {
                            (0..n).for_each(|r| m.row_mut(r)[j] *= -1.0);
                        }
                    }
                    worst = worst.max(assert_intervals_hold(&m, &q));
                }
            }
        }
        assert!(worst > 0.99, "the tightest case used {worst} of its half-width");
    }

    /// Rows whose largest `|x|` sits at or just above `2⁻¹⁰⁰`, the smallest
    /// scale the bound covers, where products underflow, against queries
    /// from that size up. A nonzero query below it has no certificate.
    #[test]
    fn rows_near_the_smallest_scale_stay_inside_their_interval() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tiny = 2f32.powi(-100);
        let mut rng = StdRng::seed_from_u64(41);
        for d in [1usize, 8, 33, 64] {
            let m = Matrix::from_fn(9, d, |r, c| {
                let spike = tiny * (1.0 + r as f32 / 8.0);
                if c == r % d {
                    spike
                } else {
                    rng.gen_range(-1.0f32..1.0) * tiny
                }
            });
            for qmag in [tiny, 1e-20, 1.0, 1e20] {
                let mut q: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0) * qmag).collect();
                q[0] = -qmag;
                assert_intervals_hold(&m, &q);
            }
            let sketch = Sketch::new(&m).unwrap();
            let mut below = vec![0.0f32; d];
            below[d - 1] = tiny / 2.0;
            assert!(sketch.certify(&below, &mut Vec::new()).is_none(), "d {d}");
        }
    }

    #[test]
    fn sketch_refuses_tables_it_cannot_bound() {
        let row = |v: Vec<f32>| Matrix::from_vec(2, v.len() / 2, v);
        assert!(Sketch::new(&row(vec![1.0, 0.0, 0.0, 0.0])).is_some());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-35, f32::MIN_POSITIVE / 8.0] {
            assert!(Sketch::new(&row(vec![1.0, 0.0, bad, 0.0])).is_none(), "{bad}");
        }
        assert!(Sketch::new(&Matrix::zeros(3, 0)).is_none());
        // Zero rows and an empty catalogue have a (trivial) certificate.
        assert!(Sketch::new(&Matrix::zeros(3, 4)).is_some());
        assert!(Sketch::new(&Matrix::zeros(0, 4)).is_some());
    }

    /// No certificate, so no half-width: a non-finite or overflowing query,
    /// or a nonzero one below `2⁻¹⁰⁰`; a zero query has a trivial one.
    #[test]
    fn queries_without_a_certificate_get_no_half_width() {
        let sketch = Sketch::new(&Matrix::from_vec(1, 2, vec![1e10, -3.0])).unwrap();
        let tiny = 2f32.powi(-100);
        for q in [[1.0, -2.0], [0.0, -0.0], [tiny, 0.0]] {
            assert!(sketch.certify(&q, &mut Vec::new()).is_some(), "{q:?}");
        }
        for q in [[f32::NAN, 1.0], [f32::INFINITY, 0.0], [1e28, 1e28], [tiny / 2.0, 0.0]] {
            assert!(sketch.certify(&q, &mut Vec::new()).is_none(), "{q:?}");
        }
        let mut out = vec![7];
        let mut scratch = PruneScratch::default();
        assert!(!sketch.prune_into(&[f32::NAN, 1.0], 1, |_| false, &mut scratch, &mut out));
        assert!(out.is_empty());
    }

    /// Up to a sixteenth of the rows may survive, one more and the pass
    /// reports failure: `s` copies of the best row tie for `k = 1` over
    /// zero rows, so exactly those `s` survive.
    #[test]
    fn prune_gives_up_past_a_sixteenth_of_the_rows() {
        let (mut scratch, mut out) = (PruneScratch::default(), Vec::new());
        let q = [0.5, -1.0, 2.0, 0.25];
        let n = 16 * 20;
        for s in [1, 20, 21, n] {
            // The copies sit at the end, past the first tiles.
            let m = Matrix::from_fn(n, 4, |r, c| if r >= n - s { q[c] } else { 0.0 });
            let sketch = Sketch::new(&m).unwrap();
            let ok = sketch.prune_into(&q, 1, |_| false, &mut scratch, &mut out);
            assert_eq!(ok, s <= n / 16, "{s} best rows");
            let want: Vec<u32> = if ok { (n - s..n).map(|r| r as u32).collect() } else { vec![] };
            assert_eq!(out, want, "{s} best rows");
        }
    }

    /// Against brute force: exactly the rows whose upper bound reaches the
    /// k-th best lower bound among unmasked rows survive, ascending (or the
    /// pass gives up, when they are over a sixteenth of the rows), and the
    /// mask is asked only about rows whose lower bound would enter.
    #[test]
    fn prune_keeps_the_rows_that_reach_the_kth_lower_bound() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::cell::Cell;
        let mut rng = StdRng::seed_from_u64(17);
        let (mut scratch, mut out) = (PruneScratch::default(), Vec::new());
        let mut answered = 0;
        for (n, d) in
            [1usize, 9, 64, 65, 200, 700, 5000].into_iter().flat_map(|n| [(n, 12), (n, 64)])
        {
            let m = Matrix::gaussian(n, d, 1.0, &mut rng);
            let sketch = Sketch::new(&m).unwrap();
            let q = Matrix::gaussian(1, d, 1.0, &mut rng);
            let bounds: Vec<(f32, f32)> =
                sketch_scores(&sketch, q.row(0)).into_iter().map(|(t, h)| (t - h, t + h)).collect();
            for k in [1usize, 3, 10] {
                for modulo in [1usize, 3] {
                    let masked = |i: usize| modulo > 1 && i.is_multiple_of(modulo);
                    let mut lows: Vec<f32> =
                        (0..n).filter(|&i| !masked(i)).map(|i| bounds[i].0).collect();
                    lows.sort_by(|a, b| b.total_cmp(a));
                    let calls = Cell::new(0usize);
                    let mask = |i: usize| {
                        calls.set(calls.get() + 1);
                        masked(i)
                    };
                    let ok = sketch.prune_into(q.row(0), k, mask, &mut scratch, &mut out);
                    if lows.len() < k {
                        assert!(!ok && out.is_empty(), "n {n} k {k}");
                        continue;
                    }
                    let want: Vec<u32> =
                        (0..n as u32).filter(|&i| bounds[i as usize].1 >= lows[k - 1]).collect();
                    if want.len() > n / 16 {
                        assert!(!ok && out.is_empty(), "n {n} k {k}");
                        continue;
                    }
                    answered += 1;
                    assert!(ok);
                    assert_eq!(out, want, "n {n} k {k} mask {modulo}");
                    if n >= 700 {
                        assert!(calls.get() < n / 4, "mask asked {} times", calls.get());
                    }
                }
            }
        }
        assert!(answered >= 8, "the pass answered {answered} cases");
    }
}
