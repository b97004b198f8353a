//! Runtime-dispatched SIMD kernels and their blocked (batch) forms.
//!
//! Three implementations of every hot kernel live here:
//!
//! * [`scalar`] — the original plain loops, kept verbatim as the bit-exact
//!   reference. Forcing this level (`BSL_SIMD=scalar`) reproduces the
//!   historical trainer output bit for bit.
//! * `portable` — 8-lane unrolled loops with independent accumulators on
//!   stable Rust (`chunks_exact(8)` + scalar tail). The compiler
//!   auto-vectorizes these on any target; this is the fallback when no
//!   intrinsic path applies.
//! * `avx2` — AVX2 + FMA intrinsics (`x86_64` only), selected at runtime
//!   via `is_x86_feature_detected!`.
//!
//! One kernel has a wider x86 leg: where the CPU has AVX-512F, the
//! `avx2+fma` level runs [`gemm`] in the `avx512` module's AVX-512F
//! register tiles, with the same bits as the AVX2 tiles. That is
//! detected at run time too; no level, `BSL_SIMD` value or option
//! selects it by hand.
//!
//! The level is resolved **once** (first kernel call) and cached; the
//! `BSL_SIMD` environment variable (`scalar` | `portable` | `avx2`)
//! overrides detection for debugging and determinism work, and
//! [`force`] pins it programmatically (tests use this — each integration
//! test binary is its own process, so a forced level cannot leak).
//!
//! On top of the element kernels sit *blocked* kernels
//! ([`normalize_rows_into`], [`normalize_gather_into`], [`scores_block`],
//! [`cosine_backward_block`], the gathered [`scores_gather`] and
//! [`cosine_backward_row`], [`adam_update`], [`sgd_momentum_update`],
//! the matrix product [`gemm`] and the gathered weighted row sum
//! [`gather_sum`], one SpMM output row)
//! that amortize dispatch and normalization over whole batches; the
//! trainer, evaluator, SpMM and optimizers all route through them. At the
//! [`SimdLevel::Scalar`] level every blocked kernel degrades to the exact
//! per-element loop order of the pre-SIMD implementations, so
//! forced-scalar runs stay bit-identical to the historical code; the SIMD
//! levels reassociate float reductions and use FMA, which agrees with
//! scalar within `1e-4` relative tolerance (property-tested below). The
//! integer [`dots_block_i8`] is exact, so its levels agree exactly.
//!
//! Two kernels have no pre-SIMD twin. [`softmax_row`]
//! exponentiates a score row once, through an in-crate polynomial `exp`
//! (`scalar::exp_lane`, which the portable leg shares, and its AVX2 twin
//! `exp_ps`: swapping the activation edits those two functions), so the
//! Softmax-family losses call no libm transcendental and forced-scalar
//! training is host-independent. [`gemm`] (the in-batch step's three
//! products) has a plain multiply-then-add loop in `k` order as its scalar
//! leg, which the portable level shares; at every level each output
//! element is one `k`-ascending chain, so a row's bits do not depend on
//! how the rows are split among calls.
//!
//! [`gather_sum`] holds each output element of a row in a register across
//! the row's entries instead of loading and storing it once an entry, and
//! keeps the chain of the `fill(0)` + [`axpy`] loop it replaced: at every
//! level its bits are that loop's.

use crate::Matrix;
use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Original plain loops — the bit-exact reference implementation.
    Scalar,
    /// 8-lane unrolled, multi-accumulator stable-Rust loops.
    Portable,
    /// AVX2 + FMA intrinsics (`x86_64` with runtime feature detection).
    Avx2Fma,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2Fma => "avx2+fma",
        })
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

// Constants of the polynomial `exp` behind [`softmax_row`], shared by the
// three legs. `exp(t) = 2^n · e^r` with `n = round(t·log2 e)` and
// `r = t − n·ln 2` in `[−ln2/2, ln2/2]`; `e^r ≈ 1 + r + r²·q(r)` with `q`
// the degree-4 minimax fit of the relative error (3.6e-9 with the
// coefficients rounded to f32, 0.03 ULP).

/// Arguments below this flush to exactly `+0.0`; at or above it the result
/// is a normal f32 (`e^-87 ≈ 1.4·2^-126`).
const EXP_CUT: f32 = -87.0;
/// `1.5·2^23`: adding it rounds an f32 of magnitude below `2^22` to the
/// nearest integer, left in the low mantissa bits of the sum.
const EXP_ROUND: f32 = 12_582_912.0;
/// Cody–Waite split of `ln 2`: `n·EXP_LN2_HI` is exact for `|n| < 2^15`.
const EXP_LN2_HI: f32 = 0.693_359_4; // 0.693359375 = 0x3f318000
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `q(r) = Q[0] + Q[1]·r + … + Q[4]·r⁴` (bits `0x3efffffe`, `0x3e2aaa49`,
/// `0x3d2aac79`, `0x3c091d10`, `0x3ab511e8`).
const EXP_Q: [f32; 5] = [4.999_999_4e-1, 1.666_652_1e-1, 4.166_839e-2, 8.368_745e-3, 1.381_454e-3];

fn parse_level(s: &str) -> Option<SimdLevel> {
    match s {
        "scalar" => Some(SimdLevel::Scalar),
        "portable" => Some(SimdLevel::Portable),
        "avx2" => Some(SimdLevel::Avx2Fma),
        _ => None,
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

fn detect() -> SimdLevel {
    if let Ok(v) = std::env::var("BSL_SIMD") {
        match parse_level(&v) {
            Some(SimdLevel::Avx2Fma) if !avx2_available() => {
                eprintln!("BSL_SIMD=avx2 requested but AVX2+FMA not detected; using portable");
                return SimdLevel::Portable;
            }
            Some(lv) => return lv,
            None => eprintln!("BSL_SIMD={v} not recognized (scalar|portable|avx2); auto-detecting"),
        }
    }
    if avx2_available() {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Portable
    }
}

/// The dispatch level every kernel in this process uses (cached on first
/// call; see the module docs for the `BSL_SIMD` override).
#[inline]
pub fn active() -> SimdLevel {
    *LEVEL.get_or_init(detect)
}

/// Pins the dispatch level before first kernel use.
///
/// Returns `Err(current)` when a *different* level is already cached
/// (kernels have run, or another caller forced first). Forcing
/// [`SimdLevel::Avx2Fma`] on hardware without it is clamped to portable.
pub fn force(level: SimdLevel) -> Result<(), SimdLevel> {
    let level =
        if level == SimdLevel::Avx2Fma && !avx2_available() { SimdLevel::Portable } else { level };
    match LEVEL.set(level) {
        Ok(()) => Ok(()),
        Err(_) => {
            let cur = active();
            if cur == level {
                Ok(())
            } else {
                Err(cur)
            }
        }
    }
}

/// The bit-exact reference kernels (the pre-SIMD implementations,
/// verbatim). Blocked kernels at [`SimdLevel::Scalar`] reduce to loops
/// over these in the historical order.
pub mod scalar {
    /// Reference dot product (in-order accumulation).
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b.iter()) {
            acc += x * y;
        }
        acc
    }

    /// Reference `y += alpha * x`.
    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    /// Reference `y *= alpha`.
    #[inline]
    pub fn scale(alpha: f32, y: &mut [f32]) {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    }

    /// Reference squared Euclidean distance.
    #[inline]
    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b.iter()) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }

    /// Reference `out = x / max(||x||, eps)`, returning `||x||`.
    #[inline]
    pub fn normalize_into(x: &[f32], out: &mut [f32]) -> f32 {
        let n = dot(x, x).max(0.0).sqrt();
        let inv = 1.0 / n.max(1e-12);
        for (o, xi) in out.iter_mut().zip(x.iter()) {
            *o = xi * inv;
        }
        n
    }

    /// Reference cosine backward (see [`crate::kernels::cosine_backward_into`]).
    #[inline]
    pub fn cosine_backward_into(
        g: f32,
        s: f32,
        a_hat: &[f32],
        b_hat: &[f32],
        a_norm: f32,
        grad_a: &mut [f32],
    ) {
        let inv = 1.0 / a_norm.max(1e-12);
        for ((ga, &bh), &ah) in grad_a.iter_mut().zip(b_hat.iter()).zip(a_hat.iter()) {
            *ga += g * (bh - s * ah) * inv;
        }
    }

    /// Reference fused row backward (see
    /// [`super::cosine_backward_row_with`]): per occurrence, the historical
    /// user-side then item-side [`cosine_backward_into`] pair.
    #[allow(clippy::too_many_arguments)] // mirrors the dispatched kernel
    #[inline]
    pub fn cosine_backward_row(
        gs: &[f32],
        ss: &[f32],
        q_hat: &[f32],
        q_norm: f32,
        table_hat: &[f32],
        table_norms: &[f32],
        slots: &[u32],
        block: &mut [f32],
        rows: &[u32],
        grad_q: &mut [f32],
    ) {
        let d = q_hat.len();
        for (((&g, &s), &slot), &row) in gs.iter().zip(ss).zip(slots).zip(rows) {
            if g == 0.0 {
                continue;
            }
            let (slot, row) = (slot as usize, row as usize);
            let n_hat = &table_hat[slot * d..(slot + 1) * d];
            let grad_n = &mut block[row * d..(row + 1) * d];
            cosine_backward_into(g, s, q_hat, n_hat, q_norm, grad_q);
            cosine_backward_into(g, s, n_hat, q_hat, table_norms[slot], grad_n);
        }
    }

    /// Reference fused Adam row update: first-moment EMA, second-moment
    /// EMA, bias-corrected parameter step — three in-order passes exactly
    /// matching the pre-SIMD `Adam::update_row`/`step_dense` loops.
    #[allow(clippy::too_many_arguments)] // mirrors the Adam hyperparameter set
    #[inline]
    pub fn adam_update(
        param: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) {
        for (mi, &gi) in m.iter_mut().zip(g.iter()) {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
        }
        for (vi, &gi) in v.iter_mut().zip(g.iter()) {
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
        }
        for ((p, &mi), &vi) in param.iter_mut().zip(m.iter()).zip(v.iter()) {
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Reference fused momentum-SGD update: `v ← μ·v + g`, `p ← p − lr·v`
    /// in one pass — exactly the pre-SIMD `Sgd::step_dense` loop.
    #[inline]
    pub fn sgd_momentum_update(param: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, mu: f32) {
        for ((p, vi), &gi) in param.iter_mut().zip(v.iter_mut()).zip(g.iter()) {
            *vi = mu * *vi + gi;
            *p -= lr * *vi;
        }
    }

    /// Reference fused int8→f32 dequantize-dot: `scale · Σ q[j]·row[j]`,
    /// widening each quantized value in the accumulation loop (no
    /// materialized f32 row). The one scale multiply happens after the
    /// reduction, so the quantization grid never re-rounds per element.
    #[inline]
    pub fn dequant_dot(q: &[f32], row: &[i8], scale: f32) -> f32 {
        debug_assert_eq!(q.len(), row.len());
        let mut acc = 0.0f32;
        for (x, &b) in q.iter().zip(row.iter()) {
            acc += x * b as f32;
        }
        acc * scale
    }

    /// Reference exact int8 dot product `Σ q[j]·row[j]` in `i32` (see
    /// [`super::dots_block_i8`]).
    #[inline]
    pub fn dot_i8(q: &[i8], row: &[i8]) -> i32 {
        debug_assert_eq!(q.len(), row.len());
        let mut acc = 0i32;
        for (&x, &b) in q.iter().zip(row.iter()) {
            acc += i32::from(x) * i32::from(b);
        }
        acc
    }

    /// The activation of [`softmax_row`]: `exp(t)` for `t ≤ 0`, within
    /// 0.99 ULP on `[−87, 0]` (every f32 in the range checked against
    /// `f64::exp`), exactly `1.0` at `0`, exactly `+0.0` below the cut-off
    /// and NaN for NaN.
    ///
    /// Only `+ − ×`, one comparison and bit conversions: `mul_add`,
    /// `round`, `floor` and `exp2` lower to libm calls on baseline x86-64.
    /// No branch either, so the portable leg's lanes vectorize.
    #[inline]
    pub(super) fn exp_lane(t: f32) -> f32 {
        use super::{EXP_CUT, EXP_LN2_HI, EXP_LN2_LO, EXP_Q, EXP_ROUND};
        let zf = t * std::f32::consts::LOG2_E + EXP_ROUND;
        let nf = zf - EXP_ROUND;
        let r = (t - nf * EXP_LN2_HI) - nf * EXP_LN2_LO;
        let q = EXP_Q[0] + r * (EXP_Q[1] + r * (EXP_Q[2] + r * (EXP_Q[3] + r * EXP_Q[4])));
        let p = (q * (r * r) + r) + 1.0;
        // n sits in the low mantissa bits of zf; n + 127 is the exponent
        // field of 2^n. Out of range (t below the cut-off, or NaN) the bits
        // are garbage: the select drops them, and NaN survives through `p`.
        let pow2 = zf.to_bits().wrapping_sub(EXP_ROUND.to_bits()).wrapping_add(127) << 23;
        let e = p * f32::from_bits(pow2);
        if t < EXP_CUT {
            0.0
        } else {
            e
        }
    }

    /// Reference softmax row kernel (see [`super::softmax_row_with`]):
    /// in-order max, then in-order `exp` and f64 sum.
    #[inline]
    pub fn softmax_row(xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
        let inv_tau = 1.0 / tau;
        let mut max = f32::NEG_INFINITY;
        for &x in xs {
            if x > max {
                max = x;
            }
        }
        let mut sum = 0.0f64;
        for (o, &x) in out.iter_mut().zip(xs.iter()) {
            let e = exp_lane((x - max) * inv_tau);
            *o = e;
            sum += e as f64;
        }
        (max, sum)
    }

    /// Reference GEMM rows (see [`super::gemm_with`]): `A[i][p]` sits at
    /// `a[i·rs + p·ks]`, and each `C[i][j]` starts at `0` and adds
    /// `A[i][p]·B[p][j]` for `p = 0..k` in order, one multiply then one add.
    /// The loop runs over `j` innermost, so it vectorizes without
    /// reassociating anything.
    #[inline]
    pub fn gemm(
        a: &[f32],
        (rs, ks): (usize, usize),
        b: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        c: &mut [f32],
    ) {
        for (i, c_row) in rows.zip(c.chunks_exact_mut(n)) {
            c_row.fill(0.0);
            for (p, b_row) in b.chunks_exact(n).enumerate() {
                let x = a[i * rs + p * ks];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += x * bj;
                }
            }
        }
    }

    /// Reference gathered weighted row sum (see [`super::gather_sum_with`]):
    /// `out` cleared, then one [`axpy`] of `table` row `ids[k]` scaled by
    /// `ws[k]` per entry, in order — the historical SpMM output row.
    #[inline]
    pub fn gather_sum(ws: &[f32], ids: &[u32], table: &[f32], out: &mut [f32]) {
        let d = out.len();
        out.fill(0.0);
        for (&w, &id) in ws.iter().zip(ids) {
            axpy(w, &table[id as usize * d..][..d], out);
        }
    }
}

/// 8-lane unrolled stable-Rust kernels: independent per-lane accumulators
/// over `chunks_exact(8)` with a scalar tail. Reduction order differs from
/// [`scalar`] (pairwise lane fold), so results agree within float
/// tolerance, not bitwise.
mod portable {
    #[inline]
    fn fold8(lanes: [f32; 8]) -> f32 {
        ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
            + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
    }

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f32; 8];
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            for k in 0..8 {
                lanes[k] += ca[k] * cb[k];
            }
        }
        let mut acc = fold8(lanes);
        for (x, y) in ac.remainder().iter().zip(bc.remainder().iter()) {
            acc += x * y;
        }
        acc
    }

    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let mut xc = x.chunks_exact(8);
        let mut yc = y.chunks_exact_mut(8);
        for (cx, cy) in (&mut xc).zip(&mut yc) {
            for k in 0..8 {
                cy[k] += alpha * cx[k];
            }
        }
        for (xi, yi) in xc.remainder().iter().zip(yc.into_remainder().iter_mut()) {
            *yi += alpha * xi;
        }
    }

    #[inline]
    pub fn scale(alpha: f32, y: &mut [f32]) {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    }

    #[inline]
    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f32; 8];
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        for (ca, cb) in (&mut ac).zip(&mut bc) {
            for k in 0..8 {
                let d = ca[k] - cb[k];
                lanes[k] += d * d;
            }
        }
        let mut acc = fold8(lanes);
        for (x, y) in ac.remainder().iter().zip(bc.remainder().iter()) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }

    /// `out = x * inv` (the elementwise half of normalization).
    #[inline]
    pub fn scale_into(inv: f32, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        for (o, xi) in out.iter_mut().zip(x.iter()) {
            *o = xi * inv;
        }
    }

    #[inline]
    pub fn normalize_into(x: &[f32], out: &mut [f32]) -> f32 {
        let n = dot(x, x).max(0.0).sqrt();
        let inv = 1.0 / n.max(1e-12);
        scale_into(inv, x, out);
        n
    }

    /// `grad_a += c1·b_hat − c2·a_hat` with `c1 = g/||a||`,
    /// `c2 = g·s/||a||` hoisted out of the loop.
    #[inline]
    pub fn cosine_backward_into(
        g: f32,
        s: f32,
        a_hat: &[f32],
        b_hat: &[f32],
        a_norm: f32,
        grad_a: &mut [f32],
    ) {
        let inv = 1.0 / a_norm.max(1e-12);
        let c1 = g * inv;
        let c2 = g * s * inv;
        let mut bc = b_hat.chunks_exact(8);
        let mut ac = a_hat.chunks_exact(8);
        let mut gc = grad_a.chunks_exact_mut(8);
        for ((cb, ca), cg) in (&mut bc).zip(&mut ac).zip(&mut gc) {
            for k in 0..8 {
                cg[k] += c1 * cb[k] - c2 * ca[k];
            }
        }
        for ((bh, ah), ga) in
            bc.remainder().iter().zip(ac.remainder().iter()).zip(gc.into_remainder().iter_mut())
        {
            *ga += c1 * bh - c2 * ah;
        }
    }

    /// Fused row backward (see [`super::cosine_backward_row_with`]): per
    /// occurrence one [`axpy`] into the user gradient and one
    /// [`cosine_backward_into`] into the item's row, then the single
    /// `−(Σ g·s)·q̂` term. Every step is elementwise, so the lanes reassociate
    /// nothing.
    #[allow(clippy::too_many_arguments)] // mirrors the dispatched kernel
    #[inline]
    pub fn cosine_backward_row(
        gs: &[f32],
        ss: &[f32],
        q_hat: &[f32],
        q_norm: f32,
        table_hat: &[f32],
        table_norms: &[f32],
        slots: &[u32],
        block: &mut [f32],
        rows: &[u32],
        grad_q: &mut [f32],
    ) {
        let d = q_hat.len();
        let inv = 1.0 / q_norm.max(1e-12);
        let mut coef = 0.0f32;
        for (((&g, &s), &slot), &row) in gs.iter().zip(ss).zip(slots).zip(rows) {
            if g == 0.0 {
                continue;
            }
            let (slot, row) = (slot as usize, row as usize);
            let n_hat = &table_hat[slot * d..(slot + 1) * d];
            let grad_n = &mut block[row * d..(row + 1) * d];
            coef += g * s;
            axpy(g * inv, n_hat, grad_q);
            cosine_backward_into(g, s, n_hat, q_hat, table_norms[slot], grad_n);
        }
        if coef != 0.0 {
            axpy(-coef * inv, q_hat, grad_q);
        }
    }

    /// Single-pass fused Adam row update (same math as
    /// [`super::scalar::adam_update`], per-element fusion reassociates
    /// nothing — only the SIMD lanes do).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn adam_update(
        param: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) {
        for ((p, mi), (vi, &gi)) in
            param.iter_mut().zip(m.iter_mut()).zip(v.iter_mut().zip(g.iter()))
        {
            *mi = beta1 * *mi + (1.0 - beta1) * gi;
            *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Fused momentum-SGD update (identical per-element ops to
    /// [`super::scalar::sgd_momentum_update`]; the compiler vectorizes).
    #[inline]
    pub fn sgd_momentum_update(param: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, mu: f32) {
        super::scalar::sgd_momentum_update(param, v, g, lr, mu);
    }

    /// 8-lane unrolled int8→f32 dequantize-dot (per-lane widening, lane
    /// fold, one trailing scale multiply).
    #[inline]
    pub fn dequant_dot(q: &[f32], row: &[i8], scale: f32) -> f32 {
        debug_assert_eq!(q.len(), row.len());
        let mut lanes = [0.0f32; 8];
        let mut qc = q.chunks_exact(8);
        let mut rc = row.chunks_exact(8);
        for (cq, cr) in (&mut qc).zip(&mut rc) {
            for k in 0..8 {
                lanes[k] += cq[k] * cr[k] as f32;
            }
        }
        let mut acc = fold8(lanes);
        for (x, &b) in qc.remainder().iter().zip(rc.remainder().iter()) {
            acc += x * b as f32;
        }
        acc * scale
    }

    /// 8-lane exact int8 dot product (integer sums do not depend on their
    /// order, so this equals [`super::scalar::dot_i8`]).
    #[inline]
    pub fn dot_i8(q: &[i8], row: &[i8]) -> i32 {
        debug_assert_eq!(q.len(), row.len());
        let mut lanes = [0i32; 8];
        let mut qc = q.chunks_exact(8);
        let mut rc = row.chunks_exact(8);
        for (cq, cr) in (&mut qc).zip(&mut rc) {
            for k in 0..8 {
                lanes[k] += i32::from(cq[k]) * i32::from(cr[k]);
            }
        }
        let mut acc: i32 = lanes.iter().sum();
        for (&x, &b) in qc.remainder().iter().zip(rc.remainder().iter()) {
            acc += i32::from(x) * i32::from(b);
        }
        acc
    }

    /// 8-lane softmax row kernel (see [`super::softmax_row_with`]):
    /// per-lane max and per-lane f64 sums, scalar tail. Its activation is
    /// the scalar leg's [`exp_lane`](super::scalar::exp_lane), which is
    /// branch-free, so the compiler vectorizes it across the lanes.
    #[inline]
    pub fn softmax_row(xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
        use super::scalar::exp_lane;
        let inv_tau = 1.0 / tau;
        let mut lanes = [f32::NEG_INFINITY; 8];
        let mut xc = xs.chunks_exact(8);
        for cx in &mut xc {
            for k in 0..8 {
                if cx[k] > lanes[k] {
                    lanes[k] = cx[k];
                }
            }
        }
        let mut max = f32::NEG_INFINITY;
        for &x in lanes.iter().chain(xc.remainder().iter()) {
            if x > max {
                max = x;
            }
        }
        let mut sums = [0.0f64; 8];
        let mut xc = xs.chunks_exact(8);
        let mut oc = out.chunks_exact_mut(8);
        for (cx, co) in (&mut xc).zip(&mut oc) {
            for k in 0..8 {
                co[k] = exp_lane((cx[k] - max) * inv_tau);
                sums[k] += co[k] as f64;
            }
        }
        let mut sum = ((sums[0] + sums[4]) + (sums[1] + sums[5]))
            + ((sums[2] + sums[6]) + (sums[3] + sums[7]));
        for (o, &x) in oc.into_remainder().iter_mut().zip(xc.remainder().iter()) {
            *o = exp_lane((x - max) * inv_tau);
            sum += *o as f64;
        }
        (max, sum)
    }
}

/// AVX2 + FMA intrinsic kernels.
///
/// # Safety
/// Every `#[target_feature]` function here is only reachable through the
/// dispatch tables after `is_x86_feature_detected!("avx2")` and `("fma")`
/// both returned true (see [`detect`]/[`force`]), so the safe wrappers'
/// `unsafe` blocks uphold the ISA precondition by construction.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // the one sanctioned unsafe island: raw SIMD intrinsics
mod avx2 {
    use std::arch::x86_64::*;

    /// Lane-activation masks for tail loads: `TAIL_MASKS[r]` activates the
    /// first `r` lanes (sign bit set ⇒ lane loaded/stored by
    /// `maskload`/`maskstore`, cleared ⇒ lane reads as 0.0 / is skipped).
    const TAIL_MASKS: [[i32; 8]; 8] = [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0],
        [-1, -1, 0, 0, 0, 0, 0, 0],
        [-1, -1, -1, 0, 0, 0, 0, 0],
        [-1, -1, -1, -1, 0, 0, 0, 0],
        [-1, -1, -1, -1, -1, 0, 0, 0],
        [-1, -1, -1, -1, -1, -1, 0, 0],
        [-1, -1, -1, -1, -1, -1, -1, 0],
    ];

    /// The `__m256i` mask activating the first `rem < 8` lanes.
    #[inline]
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        // SAFETY: 32-byte load entirely inside TAIL_MASKS[rem], which exists
        // for every rem < 8 (debug_asserted).
        unsafe {
            debug_assert!(rem < 8);
            _mm256_loadu_si256(TAIL_MASKS[rem].as_ptr().cast())
        }
    }

    /// Horizontal sum of an 8-lane register (pairwise).
    #[inline]
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        // Register-only lane shuffles and adds (safe under target_feature);
        // no memory access.
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // a and b must be equal length (debug_asserted).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with full 8-lane loads for i + 8 <= n and masked loads
        // (inactive lanes read as 0.0) for the tail — all inside a/b.
        unsafe {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= n {
                acc0 =
                    _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
                i += 8;
            }
            if i < n {
                // Masked tail: inactive lanes load as 0.0 and contribute
                // nothing — no per-element scalar loop at odd dims.
                let mask = tail_mask(n - i);
                acc1 = _mm256_fmadd_ps(
                    _mm256_maskload_ps(pa.add(i), mask),
                    _mm256_maskload_ps(pb.add(i), mask),
                    acc1,
                );
            }
            hsum(_mm256_add_ps(acc0, acc1))
        }
    }

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths are debug_asserted by the kernel.
        unsafe { dot_impl(a, b) }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // x and y must be equal length (debug_asserted).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with full 8-lane access for i + 8 <= n and masked
        // load/store of only the live lanes for the tail.
        unsafe {
            debug_assert_eq!(x.len(), y.len());
            let n = x.len();
            let (px, py) = (x.as_ptr(), y.as_mut_ptr());
            let va = _mm256_set1_ps(alpha);
            let mut i = 0usize;
            while i + 8 <= n {
                let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
                _mm256_storeu_ps(py.add(i), r);
                i += 8;
            }
            if i < n {
                // Masked tail: load/compute/store only the live lanes.
                let mask = tail_mask(n - i);
                let r = _mm256_fmadd_ps(
                    va,
                    _mm256_maskload_ps(px.add(i), mask),
                    _mm256_maskload_ps(py.add(i), mask),
                );
                _mm256_maskstore_ps(py.add(i), mask, r);
            }
        }
    }

    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths are debug_asserted by the kernel.
        unsafe { axpy_impl(alpha, x, y) }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale_impl(alpha: f32, y: &mut [f32]) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements of y.
        unsafe {
            let n = y.len();
            let py = y.as_mut_ptr();
            let va = _mm256_set1_ps(alpha);
            let mut i = 0usize;
            while i + 8 <= n {
                _mm256_storeu_ps(py.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(py.add(i))));
                i += 8;
            }
            while i < n {
                *py.add(i) *= alpha;
                i += 1;
            }
        }
    }

    #[inline]
    pub fn scale(alpha: f32, y: &mut [f32]) {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); the kernel never reads past y.len().
        unsafe { scale_impl(alpha, y) }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // a and b must be equal length (debug_asserted).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sq_dist_impl(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements of a/b (equal lengths debug_asserted).
        unsafe {
            debug_assert_eq!(a.len(), b.len());
            let n = a.len();
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= n {
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                acc = _mm256_fmadd_ps(d, d, acc);
                i += 8;
            }
            let mut out = hsum(acc);
            while i < n {
                let d = *pa.add(i) - *pb.add(i);
                out = f32::mul_add(d, d, out);
                i += 1;
            }
            out
        }
    }

    #[inline]
    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths are debug_asserted by the kernel.
        unsafe { sq_dist_impl(a, b) }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // x and out must be equal length (debug_asserted).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale_into_impl(inv: f32, x: &[f32], out: &mut [f32]) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements of x/out (equal lengths debug_asserted).
        unsafe {
            debug_assert_eq!(x.len(), out.len());
            let n = x.len();
            let (px, po) = (x.as_ptr(), out.as_mut_ptr());
            let vi = _mm256_set1_ps(inv);
            let mut i = 0usize;
            while i + 8 <= n {
                _mm256_storeu_ps(po.add(i), _mm256_mul_ps(vi, _mm256_loadu_ps(px.add(i))));
                i += 8;
            }
            while i < n {
                *po.add(i) = *px.add(i) * inv;
                i += 1;
            }
        }
    }

    #[inline]
    pub fn normalize_into(x: &[f32], out: &mut [f32]) -> f32 {
        let n = dot(x, x).max(0.0).sqrt();
        let inv = 1.0 / n.max(1e-12);
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); x and out are equal length (debug_asserted by the kernel).
        unsafe { scale_into_impl(inv, x, out) };
        n
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // a_hat, b_hat and grad_a must be equal length.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cosine_backward_impl(
        c1: f32,
        c2: f32,
        a_hat: &[f32],
        b_hat: &[f32],
        grad_a: &mut [f32],
    ) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements (equal lengths per caller contract).
        unsafe {
            let n = grad_a.len();
            let (pa, pb, pg) = (a_hat.as_ptr(), b_hat.as_ptr(), grad_a.as_mut_ptr());
            let vc1 = _mm256_set1_ps(c1);
            let vc2 = _mm256_set1_ps(c2);
            let mut i = 0usize;
            while i + 8 <= n {
                let mut r =
                    _mm256_fmadd_ps(vc1, _mm256_loadu_ps(pb.add(i)), _mm256_loadu_ps(pg.add(i)));
                r = _mm256_fnmadd_ps(vc2, _mm256_loadu_ps(pa.add(i)), r);
                _mm256_storeu_ps(pg.add(i), r);
                i += 8;
            }
            while i < n {
                *pg.add(i) += c1 * *pb.add(i) - c2 * *pa.add(i);
                i += 1;
            }
        }
    }

    #[inline]
    pub fn cosine_backward_into(
        g: f32,
        s: f32,
        a_hat: &[f32],
        b_hat: &[f32],
        a_norm: f32,
        grad_a: &mut [f32],
    ) {
        debug_assert_eq!(a_hat.len(), grad_a.len());
        debug_assert_eq!(b_hat.len(), grad_a.len());
        let inv = 1.0 / a_norm.max(1e-12);
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths asserted above.
        unsafe { cosine_backward_impl(g * inv, g * s * inv, a_hat, b_hat, grad_a) }
    }

    /// One column tile of [`cosine_backward_row`]: columns
    /// `c0 .. c0 + 8·R + tail` of every occurrence, in order. The tile's
    /// share of the user gradient lives in `R` registers (plus a masked one
    /// for `tail` lanes) from the first occurrence to the last.
    ///
    /// Occurrences are applied one at a time: two of them may name the same
    /// row of `block`, and loading both before storing either would drop an
    /// update.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here. Every
    // slice is cut to the tile with safe slicing (panics on `tail >= 8`, a
    // tile past `q_hat`/`grad_q`, a slot past the table or a row past the
    // block).
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // the dispatched kernel's, plus the tile
    unsafe fn cosine_backward_row_impl<const R: usize>(
        gs: &[f32],
        ss: &[f32],
        q_hat: &[f32],
        q_norm: f32,
        table_hat: &[f32],
        table_norms: &[f32],
        slots: &[u32],
        block: &mut [f32],
        rows: &[u32],
        grad_q: &mut [f32],
        c0: usize,
        tail: usize,
    ) {
        // A tile is at most eight registers wide, the masked one included:
        // nine accumulators would spill one to the stack per occurrence.
        assert!(R < 8 || (R == 8 && tail == 0), "cosine_backward_row tile wider than 64 lanes");
        let d = q_hat.len();
        let w = 8 * R + tail;
        let q = &q_hat[c0..c0 + w];
        let gq = &mut grad_q[c0..c0 + w];
        let inv = 1.0 / q_norm.max(1e-12);
        // SAFETY: `q`, `gq`, `n` and `t` are all exactly `w = 8·R + tail`
        // long; full registers sit at offsets `8·k < 8·R`, and the masked
        // register at `8·R` loads and stores its first `tail` lanes only.
        unsafe {
            let mask = tail_mask(tail);
            let (pq, pgq) = (q.as_ptr(), gq.as_mut_ptr());
            let mut acc = [_mm256_setzero_ps(); R];
            for (k, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(pgq.add(8 * k));
            }
            let mut acc_tail = _mm256_setzero_ps();
            if tail > 0 {
                acc_tail = _mm256_maskload_ps(pgq.add(8 * R), mask);
            }
            let mut coef = 0.0f32;
            for (((&g, &s), &slot), &row) in gs.iter().zip(ss).zip(slots).zip(rows) {
                if g == 0.0 {
                    continue;
                }
                let (slot, row) = (slot as usize, row as usize);
                let n = &table_hat[slot * d..(slot + 1) * d][c0..c0 + w];
                let t = &mut block[row * d..(row + 1) * d][c0..c0 + w];
                let inv_n = 1.0 / table_norms[slot].max(1e-12);
                let (c1, c2) = (g * inv_n, g * s * inv_n);
                coef += g * s;
                let (pn, pt) = (n.as_ptr(), t.as_mut_ptr());
                let (vu, vc1, vc2) =
                    (_mm256_set1_ps(g * inv), _mm256_set1_ps(c1), _mm256_set1_ps(c2));
                for (k, a) in acc.iter_mut().enumerate() {
                    let vn = _mm256_loadu_ps(pn.add(8 * k));
                    *a = _mm256_fmadd_ps(vu, vn, *a);
                    let r = _mm256_fmadd_ps(
                        vc1,
                        _mm256_loadu_ps(pq.add(8 * k)),
                        _mm256_loadu_ps(pt.add(8 * k)),
                    );
                    _mm256_storeu_ps(pt.add(8 * k), _mm256_fnmadd_ps(vc2, vn, r));
                }
                if tail > 0 {
                    // The user side keeps `axpy_impl`'s masked FMA; the item
                    // side keeps `cosine_backward_impl`'s unfused scalar tail.
                    acc_tail =
                        _mm256_fmadd_ps(vu, _mm256_maskload_ps(pn.add(8 * R), mask), acc_tail);
                    for i in 8 * R..w {
                        t[i] += c1 * q[i] - c2 * n[i];
                    }
                }
            }
            if coef != 0.0 {
                let vq = _mm256_set1_ps(-coef * inv);
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(vq, _mm256_loadu_ps(pq.add(8 * k)), *a);
                }
                if tail > 0 {
                    acc_tail =
                        _mm256_fmadd_ps(vq, _mm256_maskload_ps(pq.add(8 * R), mask), acc_tail);
                }
            }
            for (k, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(pgq.add(8 * k), *a);
            }
            if tail > 0 {
                _mm256_maskstore_ps(pgq.add(8 * R), mask, acc_tail);
            }
        }
    }

    /// Fused row backward (see [`super::cosine_backward_row_with`]) in
    /// column tiles of up to 64 lanes — eight accumulator registers — so a
    /// `d ≤ 64` row is one pass over its occurrences.
    #[allow(clippy::too_many_arguments)] // mirrors the dispatched kernel
    #[inline]
    pub fn cosine_backward_row(
        gs: &[f32],
        ss: &[f32],
        q_hat: &[f32],
        q_norm: f32,
        table_hat: &[f32],
        table_norms: &[f32],
        slots: &[u32],
        block: &mut [f32],
        rows: &[u32],
        grad_q: &mut [f32],
    ) {
        let d = q_hat.len();
        let mut c0 = 0usize;
        while c0 < d {
            let w = (d - c0).min(64);
            let tile = match w / 8 {
                0 => cosine_backward_row_impl::<0>,
                1 => cosine_backward_row_impl::<1>,
                2 => cosine_backward_row_impl::<2>,
                3 => cosine_backward_row_impl::<3>,
                4 => cosine_backward_row_impl::<4>,
                5 => cosine_backward_row_impl::<5>,
                6 => cosine_backward_row_impl::<6>,
                7 => cosine_backward_row_impl::<7>,
                _ => cosine_backward_row_impl::<8>,
            };
            // SAFETY: AVX2+FMA verified before this module is dispatched (mod
            // docs); the tile bounds its own accesses.
            unsafe {
                tile(
                    gs,
                    ss,
                    q_hat,
                    q_norm,
                    table_hat,
                    table_norms,
                    slots,
                    block,
                    rows,
                    grad_q,
                    c0,
                    w % 8,
                );
            }
            c0 += w;
        }
    }

    /// One `R × w` tile of [`gemm`] (`R ≤ 6` rows from `i0`, `w ≤ 16`
    /// columns from `j0`) in `2·R` accumulator registers: per `p`, two
    /// loads of `B`'s row, `R` broadcasts of `A[i][p]` and `2·R` FMAs, so
    /// every element is one FMA chain in `p` order, starting from `0`, or,
    /// with `resume`, from the value the tile's previous `p` block stored in
    /// `c`. A narrow tile masks its loads and stores and runs the same
    /// chain.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here. The
    // asserts on entry bound every access of the tile.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // the leg's operands plus the tile
    unsafe fn gemm_impl<const R: usize>(
        a: &[f32],
        (rs, ks): (usize, usize),
        i0: usize,
        b: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        c: &mut [f32],
        resume: bool,
    ) {
        let k = b.len() / n;
        assert!((1..=6).contains(&R) && (1..=16).contains(&w) && j0 + w <= n);
        assert!(k > 0 && (i0 + R - 1) * rs + (k - 1) * ks < a.len(), "gemm tile past A");
        assert!((R - 1) * n + j0 + w <= c.len(), "gemm tile past C");
        // SAFETY: `A[i0 + r][p]` is at `(i0 + r)·rs + p·ks < a.len()` for
        // every `r < R`, `p < k` (asserted above); `B`'s lanes `j0 + l` of
        // row `p` are at `p·n + j0 + l < k·n ≤ b.len()` and `C`'s lanes of
        // row `r` at `r·n + j0 + l < c.len()`, for `l < w`: the full loads
        // and stores run only at `w = 16`, the masked ones touch lanes
        // `l < w` only. A second half with no active lane (`w ≤ 8`) may
        // start past the slice, so its address is formed with
        // `wrapping_add` and never dereferenced.
        unsafe {
            let (pa, pb, pc) =
                (a.as_ptr().add(i0 * rs), b.as_ptr().add(j0), c.as_mut_ptr().add(j0));
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            if w == 16 {
                if resume {
                    for (r, acc) in acc.iter_mut().enumerate() {
                        *acc = [_mm256_loadu_ps(pc.add(r * n)), _mm256_loadu_ps(pc.add(r * n + 8))];
                    }
                }
                for p in 0..k {
                    let (b0, b1) =
                        (_mm256_loadu_ps(pb.add(p * n)), _mm256_loadu_ps(pb.add(p * n + 8)));
                    let pa = pa.add(p * ks);
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let x = _mm256_set1_ps(*pa.add(r * rs));
                        acc[0] = _mm256_fmadd_ps(x, b0, acc[0]);
                        acc[1] = _mm256_fmadd_ps(x, b1, acc[1]);
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    _mm256_storeu_ps(pc.add(r * n), acc[0]);
                    _mm256_storeu_ps(pc.add(r * n + 8), acc[1]);
                }
            } else {
                let (m0, m1) = if w >= 8 {
                    (_mm256_set1_epi32(-1), tail_mask(w - 8))
                } else {
                    (tail_mask(w), tail_mask(0))
                };
                if resume {
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let c_row = pc.add(r * n);
                        let hi = _mm256_maskload_ps(c_row.wrapping_add(8), m1);
                        *acc = [_mm256_maskload_ps(c_row, m0), hi];
                    }
                }
                for p in 0..k {
                    let b0 = _mm256_maskload_ps(pb.add(p * n), m0);
                    let b1 = _mm256_maskload_ps(pb.wrapping_add(p * n + 8), m1);
                    let pa = pa.add(p * ks);
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let x = _mm256_set1_ps(*pa.add(r * rs));
                        acc[0] = _mm256_fmadd_ps(x, b0, acc[0]);
                        acc[1] = _mm256_fmadd_ps(x, b1, acc[1]);
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    _mm256_maskstore_ps(pc.add(r * n), m0, acc[0]);
                    _mm256_maskstore_ps(pc.wrapping_add(r * n + 8), m1, acc[1]);
                }
            }
        }
    }

    /// GEMM rows (see [`super::gemm_with`]) in 6 × 16 register tiles: row
    /// blocks of six outside, column blocks of sixteen inside; the last
    /// block of each runs narrower.
    #[inline]
    pub fn gemm(
        a: &[f32],
        strides: (usize, usize),
        b: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        c: &mut [f32],
    ) {
        let mut i = rows.start;
        while i < rows.end {
            let h = (rows.end - i).min(6);
            let block = match h {
                1 => gemm_rows::<1>,
                2 => gemm_rows::<2>,
                3 => gemm_rows::<3>,
                4 => gemm_rows::<4>,
                5 => gemm_rows::<5>,
                _ => gemm_rows::<6>,
            };
            block(a, strides, i, b, n, &mut c[(i - rows.start) * n..]);
            i += h;
        }
    }

    /// Values of `p` a packed panel holds (an 8 KiB stack buffer).
    const GEMM_KC: usize = 256;

    /// Rows `i0..i0 + R` of [`gemm`], one tile per column block. A stored
    /// transposed (`rs = 1`) keeps a row block's `A[i][p]` in a
    /// `k`-strided column panel, whose one short run per `p` costs a cache
    /// line each and, at a power-of-two stride, shares a handful of L1
    /// sets. So the panel is first copied into a contiguous stack buffer,
    /// `GEMM_KC` values of `p` at a time, and each tile resumes its chains
    /// from `c` between the blocks: the chains, and their bits, are
    /// unchanged.
    fn gemm_rows<const R: usize>(
        a: &[f32],
        (rs, ks): (usize, usize),
        i0: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) {
        let tiles = |a: &[f32], strides, i0, b: &[f32], c: &mut [f32], resume| {
            let mut j = 0usize;
            while j < n {
                let w = (n - j).min(16);
                // SAFETY: AVX2+FMA verified before this module is
                // dispatched (mod docs); the tile bounds its own accesses.
                unsafe { gemm_impl::<R>(a, strides, i0, b, n, j, w, c, resume) };
                j += w;
            }
        };
        let k = b.len() / n;
        if rs != 1 {
            return tiles(a, (rs, ks), i0, b, c, false);
        }
        let mut panel = [0.0f32; 8 * GEMM_KC];
        let mut p0 = 0usize;
        while p0 < k {
            let kc = (k - p0).min(GEMM_KC);
            for (p, run) in panel.chunks_exact_mut(8).take(kc).enumerate() {
                run[..R].copy_from_slice(&a[(p0 + p) * ks + i0..][..R]);
            }
            tiles(&panel[..8 * kc], (1, 8), 0, &b[p0 * n..(p0 + kc) * n], c, p0 > 0);
            p0 += kc;
        }
    }

    /// Columns `j0 .. j0 + 8·V + rem` (`rem < 8`) of [`gather_sum`] in `V`
    /// full accumulator registers and, when `rem > 0`, one masked one: per
    /// entry, one broadcast of its weight and one FMA a register, so every
    /// element is one FMA chain in entry order starting from `0`, stored
    /// once after the last entry.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here. The
    // assert on entry and the per-entry row slice bound every access.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gather_sum_impl<const V: usize>(
        ws: &[f32],
        ids: &[u32],
        table: &[f32],
        j0: usize,
        rem: usize,
        out: &mut [f32],
    ) {
        let d = out.len();
        assert!(V <= 8 && rem < 8 && j0 + 8 * V + rem <= d, "gather_sum panel past the row");
        // SAFETY: every row is a safe `d`-long slice of `table` (it panics on
        // an id past the table), and the panel's lanes `j0 + l`, `l < 8·V +
        // rem`, lie inside both it and `out` (asserted above): the full loads
        // and stores cover lanes below `j0 + 8·V`, the masked ones only the
        // `rem` lanes after them.
        unsafe {
            let mask = tail_mask(rem);
            let mut acc = [_mm256_setzero_ps(); V];
            let mut tail = _mm256_setzero_ps();
            for (&w, &id) in ws.iter().zip(ids) {
                let row = table[id as usize * d..][..d].as_ptr().add(j0);
                let x = _mm256_set1_ps(w);
                for (r, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(row.add(8 * r)), *acc);
                }
                if rem > 0 {
                    tail = _mm256_fmadd_ps(x, _mm256_maskload_ps(row.add(8 * V), mask), tail);
                }
            }
            let po = out.as_mut_ptr().add(j0);
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(po.add(8 * r), *acc);
            }
            if rem > 0 {
                _mm256_maskstore_ps(po.add(8 * V), mask, tail);
            }
        }
    }

    /// [`super::gather_sum_with`] in 64-column panels, each one register
    /// tile held across all the entries.
    #[inline]
    pub fn gather_sum(ws: &[f32], ids: &[u32], table: &[f32], out: &mut [f32]) {
        let d = out.len();
        let mut j0 = 0usize;
        while j0 < d {
            let w = (d - j0).min(64);
            let panel = match w / 8 {
                0 => gather_sum_impl::<0>,
                1 => gather_sum_impl::<1>,
                2 => gather_sum_impl::<2>,
                3 => gather_sum_impl::<3>,
                4 => gather_sum_impl::<4>,
                5 => gather_sum_impl::<5>,
                6 => gather_sum_impl::<6>,
                7 => gather_sum_impl::<7>,
                _ => gather_sum_impl::<8>,
            };
            // SAFETY: AVX2+FMA verified before this module is dispatched (mod
            // docs); the panel bounds its own accesses.
            unsafe { panel(ws, ids, table, j0, w % 8, out) };
            j0 += w;
        }
    }

    /// Two simultaneous dots of one query against rows `r0`, `r1` —
    /// shares the query loads across both item rows.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // Callers must pass r0/r1 at least as long as q.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot2_impl(q: &[f32], r0: &[f32], r1: &[f32]) -> (f32, f32) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with full 8-lane loads for i + 8 <= n and masked loads for
        // the tail, so every active lane reads inside q/r0/r1.
        unsafe {
            let n = q.len();
            let (pq, p0, p1) = (q.as_ptr(), r0.as_ptr(), r1.as_ptr());
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= n {
                let vq = _mm256_loadu_ps(pq.add(i));
                a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(p0.add(i)), a0);
                a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(p1.add(i)), a1);
                i += 8;
            }
            if i < n {
                // Masked tail shared across both rows (odd-dim fix).
                let mask = tail_mask(n - i);
                let vq = _mm256_maskload_ps(pq.add(i), mask);
                a0 = _mm256_fmadd_ps(vq, _mm256_maskload_ps(p0.add(i), mask), a0);
                a1 = _mm256_fmadd_ps(vq, _mm256_maskload_ps(p1.add(i), mask), a1);
            }
            (hsum(a0), hsum(a1))
        }
    }

    /// `out[j] = <q, block[j·d ..]>` for an `M × d` row block, two rows
    /// per pass; an odd last row is paired with itself, so every row's
    /// score is [`dot2_impl`]'s whatever its position.
    #[inline]
    pub fn scores_block(q: &[f32], block: &[f32], out: &mut [f32]) {
        let d = q.len();
        let mut j = 0usize;
        while j + 2 <= out.len() {
            // SAFETY: AVX2+FMA verified before this module is dispatched (mod
            // docs); both row slices are exactly d = q.len() elements.
            let (s0, s1) = unsafe {
                dot2_impl(q, &block[j * d..(j + 1) * d], &block[(j + 1) * d..(j + 2) * d])
            };
            out[j] = s0;
            out[j + 1] = s1;
            j += 2;
        }
        if j < out.len() {
            let row = &block[j * d..(j + 1) * d];
            // SAFETY: as above; the row slice is exactly d elements.
            out[j] = unsafe { dot2_impl(q, row, row) }.0;
        }
    }

    /// `out[j] = <q, table[ids[j]·d ..]>` for gathered rows of an `n × d`
    /// table, through the same [`dot2_impl`] as [`scores_block`], so a
    /// gathered score has the bits of the block score of the same row.
    #[inline]
    pub fn scores_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
        let d = q.len();
        let row = |id: u32| &table[id as usize * d..(id as usize + 1) * d];
        let mut j = 0usize;
        while j + 2 <= out.len() {
            // SAFETY: AVX2+FMA verified before this module is dispatched (mod
            // docs); both row slices are exactly d = q.len() elements (safe
            // slicing panics on an id past the table).
            let (s0, s1) = unsafe { dot2_impl(q, row(ids[j]), row(ids[j + 1])) };
            out[j] = s0;
            out[j + 1] = s1;
            j += 2;
        }
        if j < out.len() {
            let r = row(ids[j]);
            // SAFETY: as above.
            out[j] = unsafe { dot2_impl(q, r, r) }.0;
        }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // param, m, v and g must be equal length.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn adam_update_impl(
        param: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements of the four equal-length slices (caller contract).
        unsafe {
            let n = param.len();
            let (pp, pm, pv, pg) = (param.as_mut_ptr(), m.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
            let vb1 = _mm256_set1_ps(beta1);
            let vb1c = _mm256_set1_ps(1.0 - beta1);
            let vb2 = _mm256_set1_ps(beta2);
            let vb2c = _mm256_set1_ps(1.0 - beta2);
            let vbc1 = _mm256_set1_ps(bc1);
            let vbc2 = _mm256_set1_ps(bc2);
            let veps = _mm256_set1_ps(eps);
            let vlr = _mm256_set1_ps(lr);
            let mut i = 0usize;
            while i + 8 <= n {
                let gv = _mm256_loadu_ps(pg.add(i));
                let mv = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(pm.add(i)), _mm256_mul_ps(vb1c, gv));
                _mm256_storeu_ps(pm.add(i), mv);
                let g2 = _mm256_mul_ps(gv, gv);
                let vv = _mm256_fmadd_ps(vb2, _mm256_loadu_ps(pv.add(i)), _mm256_mul_ps(vb2c, g2));
                _mm256_storeu_ps(pv.add(i), vv);
                let m_hat = _mm256_div_ps(mv, vbc1);
                let v_hat = _mm256_div_ps(vv, vbc2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
                _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), step));
                i += 8;
            }
            while i < n {
                let gi = *pg.add(i);
                let mi = beta1 * *pm.add(i) + (1.0 - beta1) * gi;
                *pm.add(i) = mi;
                let vi = beta2 * *pv.add(i) + (1.0 - beta2) * gi * gi;
                *pv.add(i) = vi;
                *pp.add(i) -= lr * (mi / bc1) / ((vi / bc2).sqrt() + eps);
                i += 1;
            }
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn adam_update(
        param: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        bc1: f32,
        bc2: f32,
        eps: f32,
    ) {
        debug_assert_eq!(param.len(), g.len());
        debug_assert_eq!(m.len(), g.len());
        debug_assert_eq!(v.len(), g.len());
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths asserted above.
        unsafe { adam_update_impl(param, m, v, g, lr, beta1, beta2, bc1, bc2, eps) }
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // param, v and g must be equal length.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sgd_momentum_impl(param: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, mu: f32) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n, and the scalar tail dereferences single
        // in-bounds elements of param/v/g (equal lengths per caller contract).
        unsafe {
            let n = param.len();
            let (pp, pv, pg) = (param.as_mut_ptr(), v.as_mut_ptr(), g.as_ptr());
            let vmu = _mm256_set1_ps(mu);
            let vlr = _mm256_set1_ps(lr);
            let mut i = 0usize;
            while i + 8 <= n {
                let vel =
                    _mm256_fmadd_ps(vmu, _mm256_loadu_ps(pv.add(i)), _mm256_loadu_ps(pg.add(i)));
                _mm256_storeu_ps(pv.add(i), vel);
                _mm256_storeu_ps(pp.add(i), _mm256_fnmadd_ps(vlr, vel, _mm256_loadu_ps(pp.add(i))));
                i += 8;
            }
            while i < n {
                let vel = f32::mul_add(mu, *pv.add(i), *pg.add(i));
                *pv.add(i) = vel;
                *pp.add(i) = f32::mul_add(-lr, vel, *pp.add(i));
                i += 1;
            }
        }
    }

    /// Fused momentum-SGD update: `v ← μ·v + g`, `p ← p − lr·v`.
    #[inline]
    pub fn sgd_momentum_update(param: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, mu: f32) {
        debug_assert_eq!(param.len(), g.len());
        debug_assert_eq!(v.len(), g.len());
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths asserted above.
        unsafe { sgd_momentum_impl(param, v, g, lr, mu) }
    }

    /// Widens 8 packed `i8` values (the low 8 bytes of `b`) to one f32
    /// register: sign-extend to i32 lanes, then convert.
    #[inline]
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn widen8(b: __m128i) -> __m256 {
        // Register-only widening (safe under target_feature); no memory
        // access.
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b))
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // q and row must be equal length (debug_asserted).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dequant_dot_impl(q: &[f32], row: &[i8]) -> f32 {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offsets bounded by the loop conditions (16- and 8-byte i8 loads at
        // i + 16 <= n / i + 8 <= n), with a scalar sub-8 tail.
        unsafe {
            debug_assert_eq!(q.len(), row.len());
            let n = q.len();
            let (pq, pr) = (q.as_ptr(), row.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= n {
                // One 16-byte load covers two 8-lane dequant groups.
                let b = _mm_loadu_si128(pr.add(i).cast());
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), widen8(b), acc0);
                acc1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pq.add(i + 8)),
                    widen8(_mm_srli_si128::<8>(b)),
                    acc1,
                );
                i += 16;
            }
            if i + 8 <= n {
                let b = _mm_loadl_epi64(pr.add(i).cast());
                acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), widen8(b), acc0);
                i += 8;
            }
            let mut out = hsum(_mm256_add_ps(acc0, acc1));
            while i < n {
                // Sub-8 tail: i8 lanes have no maskload, so finish scalar.
                out = f32::mul_add(*pq.add(i), *pr.add(i) as f32, out);
                i += 1;
            }
            out
        }
    }

    /// Fused int8→f32 dequantize-dot: `scale · Σ q[j]·row[j]` with the
    /// widening done in-register (no materialized f32 row).
    #[inline]
    pub fn dequant_dot(q: &[f32], row: &[i8], scale: f32) -> f32 {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); equal lengths are debug_asserted by the kernel.
        unsafe { dequant_dot_impl(q, row) * scale }
    }

    /// Two simultaneous dequant-dots of one query against quantized rows
    /// `r0`, `r1` — shares the query loads across both rows, like
    /// [`dot2_impl`] does for f32.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // Callers must pass r0/r1 at least as long as q.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dequant_dot2_impl(q: &[f32], r0: &[i8], r1: &[i8]) -> (f32, f32) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with i + 8 <= n (8-byte i8 loads widen the low 8 lanes),
        // and the scalar tail dereferences single in-bounds elements.
        unsafe {
            let n = q.len();
            let (pq, p0, p1) = (q.as_ptr(), r0.as_ptr(), r1.as_ptr());
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 8 <= n {
                let vq = _mm256_loadu_ps(pq.add(i));
                a0 = _mm256_fmadd_ps(vq, widen8(_mm_loadl_epi64(p0.add(i).cast())), a0);
                a1 = _mm256_fmadd_ps(vq, widen8(_mm_loadl_epi64(p1.add(i).cast())), a1);
                i += 8;
            }
            let (mut s0, mut s1) = (hsum(a0), hsum(a1));
            while i < n {
                let x = *pq.add(i);
                s0 = f32::mul_add(x, *p0.add(i) as f32, s0);
                s1 = f32::mul_add(x, *p1.add(i) as f32, s1);
                i += 1;
            }
            (s0, s1)
        }
    }

    /// Lane `r` = `scales[r] · <q, rows[r][..d]>` for eight quantized rows
    /// at `d = q.len() ≥ 8`. Each row accumulates in its own 8-lane
    /// register, as in [`dequant_dot2_impl`], and one `hadd` tree reduces
    /// all eight, so a row pays an eighth of the reduction instead of a
    /// whole horizontal sum, and the scales apply in one multiply. A row's
    /// result depends on that row alone, not on the seven beside it.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // Callers must pass `q` at least 8 long and eight row pointers each
    // valid for `q.len()` bytes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dequant_dot8_impl(q: &[f32], rows: [*const i8; 8], scales: __m256) -> __m256 {
        // SAFETY: row loads read 8 bytes at `rows[r] + i` with
        // `8 ≤ i + 8 ≤ d` (the tail's at `i = d − 8`) and q loads 8 floats
        // at `i + 8 ≤ d`, all inside `q`/the rows by the caller contract.
        unsafe {
            let d = q.len();
            debug_assert!(d >= 8);
            let pq = q.as_ptr();
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 8 <= d {
                let vq = _mm256_loadu_ps(pq.add(i));
                for (a, &p) in acc.iter_mut().zip(&rows) {
                    *a = _mm256_fmadd_ps(vq, widen8(_mm_loadl_epi64(p.add(i).cast())), *a);
                }
                i += 8;
            }
            if i < d {
                // A sub-8 tail re-reads the last 8 entries of each row, with
                // the query lanes that were already summed zeroed.
                let done = _mm256_castsi256_ps(tail_mask(8 - (d - i)));
                let q_tail = _mm256_andnot_ps(done, _mm256_loadu_ps(pq.add(d - 8)));
                for (a, &p) in acc.iter_mut().zip(&rows) {
                    *a = _mm256_fmadd_ps(q_tail, widen8(_mm_loadl_epi64(p.add(d - 8).cast())), *a);
                }
            }
            // Lane r of `sums` is row r: two hadd levels sum each register's
            // 128-bit halves to four rows per half, and the halves add.
            let h01 = _mm256_hadd_ps(acc[0], acc[1]);
            let h23 = _mm256_hadd_ps(acc[2], acc[3]);
            let h45 = _mm256_hadd_ps(acc[4], acc[5]);
            let h67 = _mm256_hadd_ps(acc[6], acc[7]);
            let lo = _mm256_hadd_ps(h01, h23);
            let hi = _mm256_hadd_ps(h45, h67);
            let sums = _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(lo, hi),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            );
            _mm256_mul_ps(sums, scales)
        }
    }

    /// `out[j] = scales[i] · <q, table[i·d ..]>` with `i = ids[j]`, or
    /// `i = j` without `ids`, for `j < out.len()`: the one int8 row order
    /// behind [`scores_block_i8`] and [`scores_gather_i8`]. At `d ≥ 8`
    /// rows go eight to a [`dequant_dot8_impl`] pass (a short last group
    /// repeats its last row), below that two to a [`dequant_dot2_impl`]
    /// pass (an odd last row is paired with itself). Either kernel gives a
    /// row the same bits whatever its neighbours, so a row scores the same
    /// at any position of a block or a list.
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn scores_rows_i8_impl(
        q: &[f32],
        table: &[i8],
        scales: &[f32],
        ids: Option<&[u32]>,
        out: &mut [f32],
    ) {
        // SAFETY: safe slicing makes every row exactly d = q.len() bytes
        // (and panics on an index past the table), `d ≥ 8` before the
        // eight-row kernel runs, and a store of 8 lanes goes to 8 floats of
        // `out` or of `last`.
        unsafe {
            let (d, m) = (q.len(), out.len());
            // The table row of output `j`.
            let row_of = |j: usize| match ids {
                Some(ids) => ids[j] as usize,
                None => j,
            };
            if d < 8 {
                for j in (0..m).step_by(2) {
                    let j1 = (j + 1).min(m - 1);
                    let (i0, i1) = (row_of(j), row_of(j1));
                    let (r0, r1) = (&table[i0 * d..(i0 + 1) * d], &table[i1 * d..(i1 + 1) * d]);
                    let (s0, s1) = dequant_dot2_impl(q, r0, r1);
                    out[j] = s0 * scales[i0];
                    out[j1] = s1 * scales[i1];
                }
                return;
            }
            for j in (0..m).step_by(8) {
                let mut rows = [table.as_ptr(); 8];
                let v = if ids.is_none() && j + 8 <= m {
                    // Eight consecutive rows: one bounds check, one load.
                    let base = table[j * d..(j + 8) * d].as_ptr();
                    for (r, p) in rows.iter_mut().enumerate() {
                        *p = base.add(r * d);
                    }
                    _mm256_loadu_ps(scales[j..j + 8].as_ptr())
                } else {
                    let mut s = [0.0f32; 8];
                    for r in 0..8 {
                        let i = row_of((j + r).min(m - 1));
                        rows[r] = table[i * d..(i + 1) * d].as_ptr();
                        s[r] = scales[i];
                    }
                    _mm256_setr_ps(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
                };
                let sums = dequant_dot8_impl(q, rows, v);
                if j + 8 <= m {
                    _mm256_storeu_ps(out.as_mut_ptr().add(j), sums);
                } else {
                    let mut last = [0.0f32; 8];
                    _mm256_storeu_ps(last.as_mut_ptr(), sums);
                    out[j..].copy_from_slice(&last[..m - j]);
                }
            }
        }
    }

    /// `out[j] = scales[j] · <q, block_i8[j·d ..]>` for an `M × d`
    /// quantized row block (row order: [`scores_rows_i8_impl`]).
    #[inline]
    pub fn scores_block_i8(q: &[f32], block: &[i8], scales: &[f32], out: &mut [f32]) {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs).
        unsafe { scores_rows_i8_impl(q, block, scales, None, out) }
    }

    /// `out[j] = scales[ids[j]] · <q, table[ids[j]·d ..]>` for gathered
    /// rows of an `n × d` quantized table, with the bits
    /// [`scores_block_i8`] gives the same rows ([`scores_rows_i8_impl`]).
    #[inline]
    pub fn scores_gather_i8(q: &[f32], table: &[i8], scales: &[f32], ids: &[u32], out: &mut [f32]) {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs).
        unsafe { scores_rows_i8_impl(q, table, scales, Some(ids), out) }
    }

    /// `TAIL_BYTES[r..r + 32]` keeps (all bits set) the last `r` of 32 byte
    /// lanes and clears the others.
    const TAIL_BYTES: [i8; 64] = {
        let mut t = [0i8; 64];
        let mut i = 32;
        while i < 64 {
            t[i] = -1;
            i += 1;
        }
        t
    };

    /// Lane `r` = `Σ_j q[j]·rows[r][j]` exactly, for eight int8 rows at
    /// `d = q.len() ≥ 32` with every entry in `−127..=127`. Per 32 bytes a
    /// row costs one `sign` (the query's signs moved onto the row), one
    /// `maddubs` against `|q|` (u8 × i8, adjacent pairs summed to i16: at
    /// most 2·127² = 32,258, so nothing saturates), one `madd` by ones (i16
    /// pairs to i32) and one add. One `hadd` tree reduces the eight rows,
    /// as in [`dequant_dot8_impl`].
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // Callers must pass `q` at least 32 long and eight row pointers each
    // valid for `q.len()` bytes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dots_i8x8_impl(q: &[i8], rows: [*const i8; 8]) -> __m256i {
        // SAFETY: row and query loads read 32 bytes at offset `i` with
        // `i + 32 ≤ d` (the tail's at `i = d − 32 ≥ 0`), all inside `q`/the
        // rows by the caller contract; the mask load reads 32 of
        // `TAIL_BYTES`' 64 bytes at an offset below 32.
        unsafe {
            let d = q.len();
            debug_assert!(d >= 32);
            let pq = q.as_ptr();
            let ones = _mm256_set1_epi16(1);
            let mut acc = [_mm256_setzero_si256(); 8];
            let mut i = 0usize;
            // Fixed-count index loops: LLVM unrolls them and keeps the eight
            // accumulators in registers (an iterator zip here spills them).
            while i + 32 <= d {
                let vq = _mm256_loadu_si256(pq.add(i).cast());
                let aq = _mm256_abs_epi8(vq);
                for r in 0..8 {
                    let row = _mm256_loadu_si256(rows[r].add(i).cast());
                    let pairs = _mm256_maddubs_epi16(aq, _mm256_sign_epi8(row, vq));
                    acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(pairs, ones));
                }
                i += 32;
            }
            if i < d {
                // A sub-32 tail re-reads the last 32 bytes of each row, with
                // the query lanes that were already summed zeroed (`sign` by
                // zero clears the row lane too).
                let keep = _mm256_loadu_si256(TAIL_BYTES.as_ptr().add(d - i).cast());
                let vq = _mm256_and_si256(keep, _mm256_loadu_si256(pq.add(d - 32).cast()));
                let aq = _mm256_abs_epi8(vq);
                for r in 0..8 {
                    let row = _mm256_loadu_si256(rows[r].add(d - 32).cast());
                    let pairs = _mm256_maddubs_epi16(aq, _mm256_sign_epi8(row, vq));
                    acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(pairs, ones));
                }
            }
            let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let h45 = _mm256_hadd_epi32(acc[4], acc[5]);
            let h67 = _mm256_hadd_epi32(acc[6], acc[7]);
            let lo = _mm256_hadd_epi32(h01, h23);
            let hi = _mm256_hadd_epi32(h45, h67);
            _mm256_add_epi32(
                _mm256_permute2x128_si256::<0x20>(lo, hi),
                _mm256_permute2x128_si256::<0x31>(lo, hi),
            )
        }
    }

    /// How many bytes past the group it scores [`dots_block_i8_impl`]
    /// prefetches. A caller scanning a table in tiles reads those bytes
    /// next; on a 38,048 × 64 sketch (2.4 MB, past a 2 MB L2) the request
    /// path went from 114–129 to 92–97 µs (2-vCPU Xeon, alternated runs;
    /// 1 KB ahead read 96–100).
    const DOTS_PREFETCH_AHEAD: usize = 2048;

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    // Callers must pass `q` at least 32 long and `block` exactly
    // `out.len() · q.len()` bytes.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dots_block_i8_impl(q: &[i8], block: &[i8], out: &mut [i32]) {
        // SAFETY: a full group's eight rows lie inside its `8·d`-byte chunk
        // and a short group's rows are sliced safely, so every row pointer
        // is valid for d = q.len() ≥ 32 bytes; a store of 8 lanes goes to an
        // 8-lane chunk of `out` or to `last`. A prefetch dereferences
        // nothing (its address may lie past the block: the hardware drops
        // a hint it cannot serve), and `wrapping_add` forms it without UB.
        unsafe {
            let d = q.len();
            let mut groups = out.chunks_exact_mut(8);
            for (sums, chunk) in (&mut groups).zip(block.chunks_exact(8 * d)) {
                // One bounds check for eight rows.
                let base = chunk.as_ptr();
                let ahead = base.wrapping_add(DOTS_PREFETCH_AHEAD);
                for line in (0..8 * d).step_by(64) {
                    _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(line));
                }
                let rows = std::array::from_fn(|r| base.add(r * d));
                _mm256_storeu_si256(sums.as_mut_ptr().cast(), dots_i8x8_impl(q, rows));
            }
            let tail = groups.into_remainder();
            if let Some(last_row) = tail.len().checked_sub(1) {
                // A short last group repeats its last row.
                let start = block.len() - tail.len() * d;
                let rows = std::array::from_fn(|r| block[start + r.min(last_row) * d..].as_ptr());
                let mut last = [0i32; 8];
                _mm256_storeu_si256(last.as_mut_ptr().cast(), dots_i8x8_impl(q, rows));
                tail.copy_from_slice(&last[..tail.len()]);
            }
        }
    }

    /// `out[j] = Σ_k q[k]·block[j·d + k]` exactly for an `M × d` int8 block
    /// at `d ≥ 32`, eight rows a pass ([`dots_i8x8_impl`]).
    #[inline]
    pub fn dots_block_i8(q: &[i8], block: &[i8], out: &mut [i32]) {
        assert!(q.len() >= 32 && block.len() == out.len() * q.len());
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); the shape contract is asserted above.
        unsafe { dots_block_i8_impl(q, block, out) }
    }

    /// Eight lanes of the [`softmax_row`] activation: the polynomial of
    /// [`super::scalar::exp_lane`] with FMA in the range reduction and the
    /// Horner steps (within 1.01 ULP on `[−87, 0]`, every f32 checked). Lanes
    /// below the cut-off come back as `+0.0`, NaN lanes as NaN.
    #[inline]
    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_ps(t: __m256) -> __m256 {
        use super::{EXP_CUT, EXP_LN2_HI, EXP_LN2_LO, EXP_Q, EXP_ROUND};
        // Register-only arithmetic (safe under target_feature); no memory
        // access.
        let round = _mm256_set1_ps(EXP_ROUND);
        let zf = _mm256_fmadd_ps(t, _mm256_set1_ps(std::f32::consts::LOG2_E), round);
        let nf = _mm256_sub_ps(zf, round);
        let r = _mm256_fnmadd_ps(nf, _mm256_set1_ps(EXP_LN2_HI), t);
        let r = _mm256_fnmadd_ps(nf, _mm256_set1_ps(EXP_LN2_LO), r);
        let mut q = _mm256_fmadd_ps(r, _mm256_set1_ps(EXP_Q[4]), _mm256_set1_ps(EXP_Q[3]));
        q = _mm256_fmadd_ps(r, q, _mm256_set1_ps(EXP_Q[2]));
        q = _mm256_fmadd_ps(r, q, _mm256_set1_ps(EXP_Q[1]));
        q = _mm256_fmadd_ps(r, q, _mm256_set1_ps(EXP_Q[0]));
        let p = _mm256_add_ps(_mm256_fmadd_ps(q, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0));
        let n = _mm256_sub_epi32(_mm256_castps_si256(zf), _mm256_castps_si256(round));
        let pow2 = _mm256_slli_epi32::<23>(_mm256_add_epi32(n, _mm256_set1_epi32(127)));
        let e = _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
        // LT is false for NaN, so a NaN lane keeps the NaN of `p`; a flushed
        // lane loses every bit of whatever its out-of-range `n` produced.
        _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(t, _mm256_set1_ps(EXP_CUT)), e)
    }

    // SAFETY: to call, `target_feature` only — sound once AVX2+FMA are
    // verified, which the dispatch tables do before routing here. Touches
    // the first `min(xs.len(), out.len())` elements of each slice only.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn softmax_row_impl(xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
        // SAFETY: every load/store goes through a slice-derived pointer at
        // offset i with full 8-lane access for i + 8 <= n and masked
        // load/store of only the live lanes for the tail, where n is the
        // shorter of the two slice lengths.
        unsafe {
            let n = xs.len().min(out.len());
            let (px, po) = (xs.as_ptr(), out.as_mut_ptr());
            let tail = tail_mask(n % 8);
            let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);

            // `max_ps(x, acc)` returns `acc` when `x` is NaN: NaN scores are
            // skipped here, as in the scalar fold, and surface in the sum.
            let mut m0 = neg_inf;
            let mut m1 = neg_inf;
            let mut i = 0usize;
            while i + 16 <= n {
                m0 = _mm256_max_ps(_mm256_loadu_ps(px.add(i)), m0);
                m1 = _mm256_max_ps(_mm256_loadu_ps(px.add(i + 8)), m1);
                i += 16;
            }
            if i + 8 <= n {
                m0 = _mm256_max_ps(_mm256_loadu_ps(px.add(i)), m0);
                i += 8;
            }
            if i < n {
                // Inactive lanes load as 0.0, which may exceed the true
                // maximum: replace them with −inf.
                let x = _mm256_maskload_ps(px.add(i), tail);
                m1 = _mm256_max_ps(_mm256_blendv_ps(neg_inf, x, _mm256_castsi256_ps(tail)), m1);
            }
            let m = _mm256_max_ps(m0, m1);
            let m4 = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps(m, 1));
            let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
            let max = _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 0b01)));

            let vmax = _mm256_set1_ps(max);
            let vinv = _mm256_set1_ps(1.0 / tau);
            let mut s0 = _mm256_setzero_pd();
            let mut s1 = _mm256_setzero_pd();
            let mut i = 0usize;
            while i + 8 <= n {
                let e =
                    exp_ps(_mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px.add(i)), vmax), vinv));
                _mm256_storeu_ps(po.add(i), e);
                s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
                s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
                i += 8;
            }
            if i < n {
                let x = _mm256_maskload_ps(px.add(i), tail);
                let e = exp_ps(_mm256_mul_ps(_mm256_sub_ps(x, vmax), vinv));
                // Inactive lanes computed exp((0 − max)/τ): clear them.
                let e = _mm256_and_ps(e, _mm256_castsi256_ps(tail));
                _mm256_maskstore_ps(po.add(i), tail, e);
                s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
                s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
            }
            let s = _mm256_add_pd(s0, s1);
            let s2 = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
            let sum = _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
            (max, sum)
        }
    }

    /// Softmax row kernel (see [`super::softmax_row_with`]): two max
    /// accumulators, then one `exp_ps` per eight scores with the sum kept
    /// in two f64 registers; masked tails.
    #[inline]
    pub fn softmax_row(xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
        // SAFETY: AVX2+FMA verified before this module is dispatched (mod
        // docs); the kernel bounds every access by the shorter slice.
        unsafe { softmax_row_impl(xs, tau, out) }
    }
}

/// AVX-512F register tiles of [`gemm`], the one kernel with a second x86
/// width. [`gemm_with`] routes its [`SimdLevel::Avx2Fma`] arm here only
/// after `is_x86_feature_detected!("avx512f")` returned true (see
/// [`avx512::available`]), so the safe wrappers' `unsafe` blocks uphold
/// the ISA precondition by construction. Every element is the same FMA
/// chain the AVX2 tile runs, so the two widths give the same bits.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // the one sanctioned unsafe island: raw SIMD intrinsics
mod avx512 {
    use std::arch::x86_64::*;

    /// Whether the CPU runs AVX-512F (cached by `std` after the first call).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// The mask activating the first `min(w, 16)` lanes of a register.
    #[inline]
    fn lanes(w: usize) -> __mmask16 {
        if w >= 16 {
            u16::MAX
        } else {
            (1u16 << w) - 1
        }
    }

    /// One `R × w` tile of [`gemm`] (`R ≤ GEMM_MR` rows from `i0`, `w ≤ 32`
    /// columns from `j0`) in `2·R` accumulator registers: per `p`, two
    /// masked loads of `B`'s row, `R` broadcasts of `A[i][p]` and `2·R`
    /// FMAs, so every element is one FMA chain in `p` order, starting from
    /// `0`, or, with `resume`, from the value the tile's previous `p` block
    /// stored in `c`: the chain of the AVX2 tile, bit for bit.
    // SAFETY: to call, `target_feature` only — sound once AVX-512F is
    // verified, which `super::gemm_with` does before routing here. The
    // asserts on entry bound every access of the tile.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)] // the leg's operands plus the tile
    unsafe fn gemm512_impl<const R: usize>(
        a: &[f32],
        (rs, ks): (usize, usize),
        i0: usize,
        b: &[f32],
        n: usize,
        j0: usize,
        w: usize,
        c: &mut [f32],
        resume: bool,
    ) {
        let k = b.len() / n;
        assert!((1..=GEMM_MR).contains(&R) && (1..=32).contains(&w) && j0 + w <= n);
        assert!(k > 0 && (i0 + R - 1) * rs + (k - 1) * ks < a.len(), "gemm tile past A");
        assert!((R - 1) * n + j0 + w <= c.len(), "gemm tile past C");
        // SAFETY: `A[i0 + r][p]` is at `(i0 + r)·rs + p·ks < a.len()` for
        // every `r < R`, `p < k` (asserted above); `B`'s lanes `j0 + l` of
        // row `p` are at `p·n + j0 + l < k·n ≤ b.len()` and `C`'s lanes of
        // row `r` at `r·n + j0 + l < c.len()`, for `l < w`: every load and
        // store is masked to lanes `l < w`, and masked-off lanes are not
        // accessed. A second half with no active lane (`w ≤ 16`) may start
        // past the slice, so its address is formed with `wrapping_add`.
        unsafe {
            let (pa, pb, pc) =
                (a.as_ptr().add(i0 * rs), b.as_ptr().add(j0), c.as_mut_ptr().add(j0));
            let (m0, m1) = (lanes(w), lanes(w.saturating_sub(16)));
            let mut acc = [[_mm512_setzero_ps(); 2]; R];
            if resume {
                for (r, acc) in acc.iter_mut().enumerate() {
                    let c_row = pc.add(r * n);
                    let hi = _mm512_maskz_loadu_ps(m1, c_row.wrapping_add(16));
                    *acc = [_mm512_maskz_loadu_ps(m0, c_row), hi];
                }
            }
            for p in 0..k {
                let b0 = _mm512_maskz_loadu_ps(m0, pb.add(p * n));
                let b1 = _mm512_maskz_loadu_ps(m1, pb.wrapping_add(p * n + 16));
                let pa = pa.add(p * ks);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let x = _mm512_set1_ps(*pa.add(r * rs));
                    acc[0] = _mm512_fmadd_ps(x, b0, acc[0]);
                    acc[1] = _mm512_fmadd_ps(x, b1, acc[1]);
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(pc.add(r * n), m0, acc[0]);
                _mm512_mask_storeu_ps(pc.wrapping_add(r * n + 16), m1, acc[1]);
            }
        }
    }

    /// Rows a tile holds.
    const GEMM_MR: usize = 12;

    /// GEMM rows (see [`super::gemm_with`]) in `GEMM_MR` × 32 register
    /// tiles: row blocks of `GEMM_MR` outside, column blocks of 32 inside;
    /// the last block of each runs narrower.
    #[inline]
    pub fn gemm(
        a: &[f32],
        strides: (usize, usize),
        b: &[f32],
        n: usize,
        rows: std::ops::Range<usize>,
        c: &mut [f32],
    ) {
        let mut i = rows.start;
        while i < rows.end {
            let h = (rows.end - i).min(GEMM_MR);
            let block = match h {
                1 => gemm_rows::<1>,
                2 => gemm_rows::<2>,
                3 => gemm_rows::<3>,
                4 => gemm_rows::<4>,
                5 => gemm_rows::<5>,
                6 => gemm_rows::<6>,
                7 => gemm_rows::<7>,
                8 => gemm_rows::<8>,
                9 => gemm_rows::<9>,
                10 => gemm_rows::<10>,
                11 => gemm_rows::<11>,
                _ => gemm_rows::<GEMM_MR>,
            };
            block(a, strides, i, b, n, &mut c[(i - rows.start) * n..]);
            i += h;
        }
    }

    /// Values of `p` a packed panel holds (a 16 KiB stack buffer).
    const GEMM_KC: usize = 256;

    /// Rows `i0..i0 + R` of [`gemm`], one tile per column block, with `A`
    /// stored transposed packed into `GEMM_KC`-deep panels as in the AVX2
    /// leg, 16 values of `i` wide.
    fn gemm_rows<const R: usize>(
        a: &[f32],
        (rs, ks): (usize, usize),
        i0: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) {
        let tiles = |a: &[f32], strides, i0, b: &[f32], c: &mut [f32], resume| {
            let mut j = 0usize;
            while j < n {
                let w = (n - j).min(32);
                // SAFETY: AVX-512F verified before this module is
                // dispatched (mod docs); the tile bounds its own accesses.
                unsafe { gemm512_impl::<R>(a, strides, i0, b, n, j, w, c, resume) };
                j += w;
            }
        };
        let k = b.len() / n;
        if rs != 1 {
            return tiles(a, (rs, ks), i0, b, c, false);
        }
        let mut panel = [0.0f32; 16 * GEMM_KC];
        let mut p0 = 0usize;
        while p0 < k {
            let kc = (k - p0).min(GEMM_KC);
            for (p, run) in panel.chunks_exact_mut(16).take(kc).enumerate() {
                run[..R].copy_from_slice(&a[(p0 + p) * ks + i0..][..R]);
            }
            tiles(&panel[..16 * kc], (1, 16), 0, &b[p0 * n..(p0 + kc) * n], c, p0 > 0);
            p0 += kc;
        }
    }
}

// Non-x86 targets fall back to the portable kernels when the enum says
// Avx2Fma (detect()/force() never hand that out off-x86, but the match
// arms still need a body).
#[cfg(target_arch = "x86_64")]
use avx2 as accel;
#[cfg(not(target_arch = "x86_64"))]
use portable as accel;

// ---------------------------------------------------------------------------
// Dispatched element kernels (`*_with` takes an explicit level; the short
// name reads the cached process level).
// ---------------------------------------------------------------------------

/// Dot product at an explicit dispatch level.
#[inline]
pub fn dot_with(lv: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
    match lv {
        SimdLevel::Scalar => scalar::dot(a, b),
        SimdLevel::Portable => portable::dot(a, b),
        SimdLevel::Avx2Fma => accel::dot(a, b),
    }
}

/// Dot product at the process dispatch level.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active(), a, b)
}

/// `y += alpha * x` at an explicit dispatch level.
#[inline]
pub fn axpy_with(lv: SimdLevel, alpha: f32, x: &[f32], y: &mut [f32]) {
    match lv {
        SimdLevel::Scalar => scalar::axpy(alpha, x, y),
        SimdLevel::Portable => portable::axpy(alpha, x, y),
        SimdLevel::Avx2Fma => accel::axpy(alpha, x, y),
    }
}

/// `y += alpha * x` at the process dispatch level.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(active(), alpha, x, y)
}

/// `y *= alpha` at an explicit dispatch level.
#[inline]
pub fn scale_with(lv: SimdLevel, alpha: f32, y: &mut [f32]) {
    match lv {
        SimdLevel::Scalar => scalar::scale(alpha, y),
        SimdLevel::Portable => portable::scale(alpha, y),
        SimdLevel::Avx2Fma => accel::scale(alpha, y),
    }
}

/// `y *= alpha` at the process dispatch level.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    scale_with(active(), alpha, y)
}

/// Squared Euclidean distance at an explicit dispatch level.
#[inline]
pub fn sq_dist_with(lv: SimdLevel, a: &[f32], b: &[f32]) -> f32 {
    match lv {
        SimdLevel::Scalar => scalar::sq_dist(a, b),
        SimdLevel::Portable => portable::sq_dist(a, b),
        SimdLevel::Avx2Fma => accel::sq_dist(a, b),
    }
}

/// Squared Euclidean distance at the process dispatch level.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    sq_dist_with(active(), a, b)
}

/// `out = x / max(||x||, eps)` at an explicit level, returning `||x||`.
#[inline]
pub fn normalize_into_with(lv: SimdLevel, x: &[f32], out: &mut [f32]) -> f32 {
    match lv {
        SimdLevel::Scalar => scalar::normalize_into(x, out),
        SimdLevel::Portable => portable::normalize_into(x, out),
        SimdLevel::Avx2Fma => accel::normalize_into(x, out),
    }
}

/// `out = x / max(||x||, eps)` at the process level, returning `||x||`.
#[inline]
pub fn normalize_into(x: &[f32], out: &mut [f32]) -> f32 {
    normalize_into_with(active(), x, out)
}

/// Cosine backward at an explicit dispatch level (see
/// [`crate::kernels::cosine_backward_into`] for the math).
#[inline]
pub fn cosine_backward_into_with(
    lv: SimdLevel,
    g: f32,
    s: f32,
    a_hat: &[f32],
    b_hat: &[f32],
    a_norm: f32,
    grad_a: &mut [f32],
) {
    match lv {
        SimdLevel::Scalar => scalar::cosine_backward_into(g, s, a_hat, b_hat, a_norm, grad_a),
        SimdLevel::Portable => portable::cosine_backward_into(g, s, a_hat, b_hat, a_norm, grad_a),
        SimdLevel::Avx2Fma => accel::cosine_backward_into(g, s, a_hat, b_hat, a_norm, grad_a),
    }
}

/// Cosine backward at the process dispatch level.
#[inline]
pub fn cosine_backward_into(
    g: f32,
    s: f32,
    a_hat: &[f32],
    b_hat: &[f32],
    a_norm: f32,
    grad_a: &mut [f32],
) {
    cosine_backward_into_with(active(), g, s, a_hat, b_hat, a_norm, grad_a)
}

/// Fused Adam row update at an explicit dispatch level: updates both
/// moment rows in place and applies the bias-corrected step to `param`.
/// At [`SimdLevel::Scalar`] this is bit-identical to the historical
/// three-loop `Adam::update_row`.
#[allow(clippy::too_many_arguments)] // mirrors the Adam hyperparameter set
#[inline]
pub fn adam_update_with(
    lv: SimdLevel,
    param: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
) {
    match lv {
        SimdLevel::Scalar => scalar::adam_update(param, m, v, g, lr, beta1, beta2, bc1, bc2, eps),
        SimdLevel::Portable => {
            portable::adam_update(param, m, v, g, lr, beta1, beta2, bc1, bc2, eps)
        }
        SimdLevel::Avx2Fma => accel::adam_update(param, m, v, g, lr, beta1, beta2, bc1, bc2, eps),
    }
}

/// Fused Adam row update at the process dispatch level.
#[allow(clippy::too_many_arguments)] // mirrors the Adam hyperparameter set
#[inline]
pub fn adam_update(
    param: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    bc1: f32,
    bc2: f32,
    eps: f32,
) {
    adam_update_with(active(), param, m, v, g, lr, beta1, beta2, bc1, bc2, eps)
}

/// Fused momentum-SGD update at an explicit dispatch level:
/// `v ← μ·v + g`, `p ← p − lr·v` in one pass. At
/// [`SimdLevel::Scalar`] this is bit-identical to the historical fused
/// `Sgd::step_dense` loop.
#[inline]
pub fn sgd_momentum_update_with(
    lv: SimdLevel,
    param: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    mu: f32,
) {
    match lv {
        SimdLevel::Scalar => scalar::sgd_momentum_update(param, v, g, lr, mu),
        SimdLevel::Portable => portable::sgd_momentum_update(param, v, g, lr, mu),
        SimdLevel::Avx2Fma => accel::sgd_momentum_update(param, v, g, lr, mu),
    }
}

/// Fused momentum-SGD update at the process dispatch level.
#[inline]
pub fn sgd_momentum_update(param: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, mu: f32) {
    sgd_momentum_update_with(active(), param, v, g, lr, mu)
}

/// Fused int8→f32 dequantize-dot at an explicit dispatch level:
/// `scale · Σ q[j]·row[j]`, widening the quantized row in the accumulation
/// loop — quantized score tables are never materialized as f32.
#[inline]
pub fn dequant_dot_with(lv: SimdLevel, q: &[f32], row: &[i8], scale: f32) -> f32 {
    match lv {
        SimdLevel::Scalar => scalar::dequant_dot(q, row, scale),
        SimdLevel::Portable => portable::dequant_dot(q, row, scale),
        SimdLevel::Avx2Fma => accel::dequant_dot(q, row, scale),
    }
}

/// Fused int8→f32 dequantize-dot at the process dispatch level.
#[inline]
pub fn dequant_dot(q: &[f32], row: &[i8], scale: f32) -> f32 {
    dequant_dot_with(active(), q, row, scale)
}

/// The softmax row kernel at an explicit dispatch level: writes the
/// un-normalized weights `out[j] = exp((xs[j] − max)·(1/τ))`, one `exp` per
/// score, and returns `(max, Σ_j out[j])` with the sum carried in f64.
///
/// Everything a Log-Expectation-Exp loss needs from a row follows from the
/// return: `log Σ_j exp(xs[j]/τ) = max/τ + ln Σ`, and the softmax weights
/// are `out[j]/Σ` — callers fold the `1/Σ` into the row scale they apply
/// anyway. The maximum's weight is exactly `1.0`, so `Σ ≥ 1`; a score more
/// than `87·τ` below the maximum gets exactly `+0.0`, never a tiny
/// positive (the trainer's `g == 0` skip decides which rows the optimizer
/// touches). A NaN score is skipped by the maximum and makes `Σ` NaN. An
/// empty row returns `(−inf, 0.0)`.
///
/// `exp` is an in-crate polynomial (within 1.01 ULP; no libm), and scalar
/// dispatch uses only `+ − ×`, comparisons and bit conversions, so its bits
/// do not depend on the host. `τ` must be positive with a finite `1/τ`.
///
/// # Panics
/// Panics if `xs` and `out` differ in length.
#[inline]
pub fn softmax_row_with(lv: SimdLevel, xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
    assert_eq!(xs.len(), out.len(), "softmax_row length mismatch");
    match lv {
        SimdLevel::Scalar => scalar::softmax_row(xs, tau, out),
        SimdLevel::Portable => portable::softmax_row(xs, tau, out),
        SimdLevel::Avx2Fma => accel::softmax_row(xs, tau, out),
    }
}

/// The softmax row kernel at the process dispatch level.
#[inline]
pub fn softmax_row(xs: &[f32], tau: f32, out: &mut [f32]) -> (f32, f64) {
    softmax_row_with(active(), xs, tau, out)
}

// ---------------------------------------------------------------------------
// Blocked kernels: dispatch resolved once per call, loops run on the
// level-specific implementations.
// ---------------------------------------------------------------------------

/// L2-normalizes every row of `src` into `dst`, writing the raw row norms
/// into `norms`.
///
/// # Panics
/// Panics if shapes disagree or `norms.len() != src.rows()`.
pub fn normalize_rows_into(src: &Matrix, dst: &mut Matrix, norms: &mut [f32]) {
    assert_eq!(src.shape(), dst.shape(), "normalize_rows_into shape mismatch");
    assert_eq!(norms.len(), src.rows(), "normalize_rows_into norms length mismatch");
    let lv = active();
    for (r, n) in norms.iter_mut().enumerate() {
        *n = normalize_into_with(lv, src.row(r), dst.row_mut(r));
    }
}

/// How many gather rows ahead [`normalize_gather_into`] prefetches. Far
/// enough to cover DRAM latency at catalogue scale (a ~250 ns miss vs
/// ~30 ns of work per row at d = 64), near enough not to thrash L1.
#[cfg(target_arch = "x86_64")]
const GATHER_PREFETCH_AHEAD: usize = 8;

/// Issues T0 prefetches for every cache line of `src.row(id)`.
///
/// Gathered negative rows are random accesses into a catalogue-scale item
/// table; prefetching a few ids ahead overlaps their DRAM misses with the
/// current row's normalize work. A prefetch is a pure hint (no memory is
/// dereferenced, faulting addresses are ignored by the hardware), so this
/// is safe for any in-bounds row.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // _mm_prefetch is an intrinsic hint; see above
#[inline]
fn prefetch_row(src: &Matrix, id: u32) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let row = src.row(id as usize);
    let bytes = std::mem::size_of_val(row);
    let base = row.as_ptr().cast::<i8>();
    let mut off = 0usize;
    while off < bytes {
        // SAFETY: `base + off` stays within the row's allocation.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off)) };
        off += 64;
    }
}

/// Gathers rows `ids` of `src` and L2-normalizes each into the contiguous
/// `ids.len() × d` block `dst`, writing raw norms into `norms`.
///
/// This is the batch form the trainer uses for negative-item blocks: one
/// dispatch, no intermediate gather copy, and the upcoming rows are
/// software-prefetched so catalogue-scale item tables don't stall the
/// normalize loop on DRAM (see `normalize_gather_*` in the kernels bench).
///
/// # Panics
/// Panics if `dst`/`norms` lengths disagree with `ids.len()` and
/// `src.cols()`.
pub fn normalize_gather_into(src: &Matrix, ids: &[u32], dst: &mut [f32], norms: &mut [f32]) {
    let d = src.cols();
    assert_eq!(dst.len(), ids.len() * d, "normalize_gather_into block size mismatch");
    assert_eq!(norms.len(), ids.len(), "normalize_gather_into norms length mismatch");
    let lv = active();
    #[cfg(target_arch = "x86_64")]
    for &id in ids.iter().take(GATHER_PREFETCH_AHEAD) {
        prefetch_row(src, id);
    }
    for (j, ((&id, out), n)) in
        ids.iter().zip(dst.chunks_exact_mut(d)).zip(norms.iter_mut()).enumerate()
    {
        #[cfg(target_arch = "x86_64")]
        if let Some(&ahead) = ids.get(j + GATHER_PREFETCH_AHEAD) {
            prefetch_row(src, ahead);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = j;
        *n = normalize_into_with(lv, src.row(id as usize), out);
    }
}

/// Scores one query row against an `M × d` row block (a tall-skinny
/// matvec): `out[j] = <q, block[j]>`.
///
/// The AVX2 path processes two block rows per pass, sharing the query
/// loads, and pairs an odd last row with itself; scalar dispatch reduces
/// to the historical per-row dot loop. At every level a row's score does
/// not depend on its position in the block.
///
/// # Panics
/// Panics if `block.len() != out.len() * q.len()`.
pub fn scores_block(q: &[f32], block: &[f32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(block.len(), out.len() * d, "scores_block shape mismatch");
    match active() {
        SimdLevel::Scalar => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(d)) {
                *o = scalar::dot(q, row);
            }
        }
        SimdLevel::Portable => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(d)) {
                *o = portable::dot(q, row);
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::scores_block(q, block, out),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(d)) {
                *o = portable::dot(q, row);
            }
        }
    }
}

/// Scores one query row against an `M × d` *quantized* row block:
/// `out[j] = scales[j] · <q, block[j]>` — the int8 twin of
/// [`scores_block`], and the full-scan hot path for int8 artifacts.
///
/// The AVX2 path widens eight quantized rows per pass in-register, sharing
/// the query loads and one reduction tree (two rows per pass below
/// `d = 8`); scalar dispatch reduces to a per-row
/// [`scalar::dequant_dot`] loop. At every level a row's score does not
/// depend on its position, so [`scores_gather_i8`] gives it the same bits.
///
/// # Panics
/// Panics if `block.len() != out.len() * q.len()` or
/// `scales.len() != out.len()`.
pub fn scores_block_i8(q: &[f32], block: &[i8], scales: &[f32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(block.len(), out.len() * d, "scores_block_i8 shape mismatch");
    assert_eq!(scales.len(), out.len(), "scores_block_i8 scales length mismatch");
    match active() {
        SimdLevel::Scalar => {
            for ((o, row), &s) in out.iter_mut().zip(block.chunks_exact(d)).zip(scales.iter()) {
                *o = scalar::dequant_dot(q, row, s);
            }
        }
        SimdLevel::Portable => {
            for ((o, row), &s) in out.iter_mut().zip(block.chunks_exact(d)).zip(scales.iter()) {
                *o = portable::dequant_dot(q, row, s);
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::scores_block_i8(q, block, scales, out),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => {
            for ((o, row), &s) in out.iter_mut().zip(block.chunks_exact(d)).zip(scales.iter()) {
                *o = portable::dequant_dot(q, row, s);
            }
        }
    }
}

/// Scores one query row against *gathered* rows of an `n × d` quantized
/// table: `out[j] = scales[ids[j]] · <q, table_row(ids[j])>` — the IVF
/// shortlist-rescoring hot path. Unlike looping [`dequant_dot`], the whole
/// candidate list is scored inside one dispatch (and, on AVX2, one
/// target-feature region with eight rows per pass sharing the query
/// loads). Each score has the bits [`scores_block_i8`] gives the same row.
///
/// # Panics
/// Panics if `table.len() != scales.len() * q.len()`,
/// `out.len() != ids.len()`, or any id indexes past the table.
pub fn scores_gather_i8(q: &[f32], table: &[i8], scales: &[f32], ids: &[u32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(table.len(), scales.len() * d, "scores_gather_i8 table shape mismatch");
    assert_eq!(out.len(), ids.len(), "scores_gather_i8 output length mismatch");
    match active() {
        SimdLevel::Scalar => {
            for (o, &i) in out.iter_mut().zip(ids.iter()) {
                let i = i as usize;
                *o = scalar::dequant_dot(q, &table[i * d..(i + 1) * d], scales[i]);
            }
        }
        SimdLevel::Portable => {
            for (o, &i) in out.iter_mut().zip(ids.iter()) {
                let i = i as usize;
                *o = portable::dequant_dot(q, &table[i * d..(i + 1) * d], scales[i]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::scores_gather_i8(q, table, scales, ids, out),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => {
            for (o, &i) in out.iter_mut().zip(ids.iter()) {
                let i = i as usize;
                *o = portable::dequant_dot(q, &table[i * d..(i + 1) * d], scales[i]);
            }
        }
    }
}

/// Exact dot products of an int8 query against an `M × d` int8 row block:
/// `out[j] = Σ_k q[k]·block[j·d + k]` in `i32` — the kernel behind the
/// exact serving path's sketch scan, where the query is quantized too.
///
/// Every level computes the exact integer, so every level returns the same
/// values, for entries in `−127..=127` (what
/// `bsl_models::quant::quantize_row_i8` emits; a `−128` may saturate the
/// AVX2 leg). The AVX2 path scores eight rows a pass at `d ≥ 32`, two
/// `sign` / `maddubs` / `madd` steps per 32 bytes; narrower rows take the
/// portable loop.
///
/// # Panics
/// Panics if `block.len() != out.len() * q.len()` or `q.len() > 2¹⁶`
/// (which keeps every sum inside `i32`).
pub fn dots_block_i8(q: &[i8], block: &[i8], out: &mut [i32]) {
    let d = q.len();
    assert!(d <= 1 << 16, "dots_block_i8 width {d} past 2^16");
    assert_eq!(block.len(), out.len() * d, "dots_block_i8 shape mismatch");
    if d == 0 {
        out.fill(0);
        return;
    }
    match active() {
        SimdLevel::Scalar => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(d)) {
                *o = scalar::dot_i8(q, row);
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma if d >= 32 => avx2::dots_block_i8(q, block, out),
        _ => {
            for (o, row) in out.iter_mut().zip(block.chunks_exact(d)) {
                *o = portable::dot_i8(q, row);
            }
        }
    }
}

/// Scores one query row against *gathered* rows of an `n × d` f32 table:
/// `out[j] = <q, table_row(ids[j])>` — the f32 twin of
/// [`scores_gather_i8`], and how the sampled trainer step scores a batch
/// row against its negatives' slots in the per-step unit-vector table.
///
/// Rows go through the kernel [`scores_block`] uses, so at every dispatch
/// level each score is bit-identical to what [`scores_block`] gives the
/// same row, at any position of the block.
///
/// # Panics
/// Panics if `out.len() != ids.len()` or any id indexes past the table.
pub fn scores_gather(q: &[f32], table: &[f32], ids: &[u32], out: &mut [f32]) {
    let d = q.len();
    assert_eq!(out.len(), ids.len(), "scores_gather output length mismatch");
    let row = |id: u32| &table[id as usize * d..(id as usize + 1) * d];
    match active() {
        SimdLevel::Scalar => {
            for (o, &id) in out.iter_mut().zip(ids.iter()) {
                *o = scalar::dot(q, row(id));
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::scores_gather(q, table, ids, out),
        _ => {
            for (o, &id) in out.iter_mut().zip(ids.iter()) {
                *o = portable::dot(q, row(id));
            }
        }
    }
}

/// Backward of a block of cosine scores with respect to the shared query
/// vector: accumulates `Σ_j g_j · ∂cos(q, b_j)/∂q` into `grad_q`.
///
/// `block_hat` holds the `M` unit item rows contiguously; `gs`/`ss` are
/// the per-row score gradients and scores. Scalar dispatch replays the
/// historical per-negative `cosine_backward_into` sequence (including the
/// `g == 0` skip) bit for bit; SIMD levels use the fused form
/// `grad_q += (Σ_j g_j·b̂_j − (Σ_j g_j·s_j)·q̂) / ||q||`.
///
/// # Panics
/// Panics if slice lengths disagree.
pub fn cosine_backward_block(
    gs: &[f32],
    ss: &[f32],
    q_hat: &[f32],
    q_norm: f32,
    block_hat: &[f32],
    grad_q: &mut [f32],
) {
    let d = q_hat.len();
    assert_eq!(gs.len(), ss.len(), "cosine_backward_block grad/score length mismatch");
    assert_eq!(block_hat.len(), gs.len() * d, "cosine_backward_block block size mismatch");
    assert_eq!(grad_q.len(), d, "cosine_backward_block output length mismatch");
    let rows = block_hat.chunks_exact(d);
    let lv = active();
    if lv == SimdLevel::Scalar {
        for ((&g, &s), row) in gs.iter().zip(ss.iter()).zip(rows) {
            if g == 0.0 {
                continue;
            }
            scalar::cosine_backward_into(g, s, q_hat, row, q_norm, grad_q);
        }
        return;
    }
    let inv = 1.0 / q_norm.max(1e-12);
    let mut coef = 0.0f32;
    for ((&g, &s), row) in gs.iter().zip(ss.iter()).zip(rows) {
        if g == 0.0 {
            continue;
        }
        coef += g * s;
        axpy_with(lv, g * inv, row, grad_q);
    }
    if coef != 0.0 {
        axpy_with(lv, -coef * inv, q_hat, grad_q);
    }
}

/// Backward of one batch row of cosine scores, both sides in one pass over
/// its negative occurrences, at an explicit dispatch level.
///
/// Occurrence `j` scored the row's unit query `q_hat` against row
/// `slots[j]` of `table_hat` (unit item rows, raw norms in `table_norms`)
/// with score `ss[j]` and score gradient `gs[j]`. Applied strictly in order,
/// it adds `g_j · ∂cos/∂q` to `grad_q` — the sequence
/// [`cosine_backward_block`] runs on the copied-out rows, with the one
/// `−(Σ_j g_j·s_j)·q̂` term after the last occurrence — and
/// `g_j · ∂cos/∂n_j` to row `rows[j]` of the flat gradient `block` — what
/// [`cosine_backward_into`] adds — reading the unit row once for both. Two
/// occurrences may name the same row of `block`; the second sees the first's
/// update.
///
/// An occurrence with `g_j == 0` is skipped before its slot or row is looked
/// at (the row may be stale: the trainer resolves rows only where it will
/// write, because a touched row gets an optimizer update). Scalar dispatch
/// replays the historical per-negative `cosine_backward_into` pairs bit for
/// bit; the SIMD levels keep the user gradient in registers across the row.
///
/// # Panics
/// Panics if `gs`, `ss`, `slots` and `rows` differ in length, if `grad_q`
/// is not `q_hat.len()` long, if `table_hat` is not `table_norms.len()` rows,
/// or if an occurrence with `g != 0` names a slot past the table or a row
/// past the block.
#[allow(clippy::too_many_arguments)] // one batch row's whole backward state
#[inline]
pub fn cosine_backward_row_with(
    lv: SimdLevel,
    gs: &[f32],
    ss: &[f32],
    q_hat: &[f32],
    q_norm: f32,
    table_hat: &[f32],
    table_norms: &[f32],
    slots: &[u32],
    block: &mut [f32],
    rows: &[u32],
    grad_q: &mut [f32],
) {
    let d = q_hat.len();
    assert_eq!(gs.len(), ss.len(), "cosine_backward_row grad/score length mismatch");
    assert_eq!(slots.len(), gs.len(), "cosine_backward_row slot count mismatch");
    assert_eq!(rows.len(), gs.len(), "cosine_backward_row row count mismatch");
    assert_eq!(grad_q.len(), d, "cosine_backward_row output length mismatch");
    assert_eq!(table_hat.len(), table_norms.len() * d, "cosine_backward_row table shape mismatch");
    let leg = match lv {
        SimdLevel::Scalar => scalar::cosine_backward_row,
        SimdLevel::Portable => portable::cosine_backward_row,
        SimdLevel::Avx2Fma => accel::cosine_backward_row,
    };
    leg(gs, ss, q_hat, q_norm, table_hat, table_norms, slots, block, rows, grad_q)
}

/// [`cosine_backward_row_with`] at the process dispatch level.
#[allow(clippy::too_many_arguments)] // one batch row's whole backward state
#[inline]
pub fn cosine_backward_row(
    gs: &[f32],
    ss: &[f32],
    q_hat: &[f32],
    q_norm: f32,
    table_hat: &[f32],
    table_norms: &[f32],
    slots: &[u32],
    block: &mut [f32],
    rows: &[u32],
    grad_q: &mut [f32],
) {
    cosine_backward_row_with(
        active(),
        gs,
        ss,
        q_hat,
        q_norm,
        table_hat,
        table_norms,
        slots,
        block,
        rows,
        grad_q,
    )
}

/// How [`gemm_with`] reads its `m × k` left factor `A` out of a flat slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Stored `m × k` row-major: `A[i][p] = a[i·k + p]`.
    N,
    /// Stored `k × m` row-major, i.e. transposed: `A[i][p] = a[p·m + i]`.
    T,
}

/// Rows `rows` of the product `C = A·B` at an explicit dispatch level:
/// `A` is `m × k`, stored as `op` says, `B` is `k × n` row-major (`k =
/// b.len() / n`), and `c` is the `rows.len() × n` row-major block of `C`'s
/// rows `rows`, overwritten.
///
/// **Contract:** every element of `C` is one chain in `p = 0..k` order,
/// `c = 0`, then `c ← c + A[i][p]·B[p][j]` (one multiply and one add at
/// [`SimdLevel::Scalar`] and [`SimdLevel::Portable`], which share the
/// plain loop; one FMA at [`SimdLevel::Avx2Fma`], in 6 × 16 AVX2 register
/// tiles or, where the CPU has AVX-512F, in 12 × 32 AVX-512F ones). An
/// element's bits therefore depend on the level only: not on `rows`, on
/// `op`, on where it sits in a tile, or on which register width ran it.
/// The AVX-512F tiles are picked at run time; nothing selects them by
/// hand. A pool that splits `C`'s rows among its workers gets the bits of
/// one call over all of them.
///
/// # Panics
/// Panics if `b.len()` is not a multiple of `n`, if `a.len()` is not a
/// multiple of `k` (then `m = a.len() / k`), if `rows` reaches past `m`,
/// or if `c.len() != rows.len() · n`.
pub fn gemm_with(
    lv: SimdLevel,
    op: Op,
    a: &[f32],
    b: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    c: &mut [f32],
) {
    assert_eq!(c.len(), rows.len() * n, "gemm output block shape mismatch");
    if n == 0 {
        return;
    }
    assert_eq!(b.len() % n, 0, "gemm B is not k × n");
    let k = b.len() / n;
    if k == 0 {
        c.fill(0.0);
        return;
    }
    assert_eq!(a.len() % k, 0, "gemm A is not m × k");
    let m = a.len() / k;
    assert!(rows.start <= rows.end && rows.end <= m, "gemm rows {rows:?} past m = {m}");
    let strides = match op {
        Op::N => (k, 1),
        Op::T => (1, m),
    };
    match lv {
        SimdLevel::Scalar | SimdLevel::Portable => scalar::gemm(a, strides, b, n, rows, c),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma if avx512::available() => avx512::gemm(a, strides, b, n, rows, c),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::gemm(a, strides, b, n, rows, c),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => scalar::gemm(a, strides, b, n, rows, c),
    }
}

/// [`gemm_with`] at the process dispatch level.
#[inline]
pub fn gemm(op: Op, a: &[f32], b: &[f32], n: usize, rows: std::ops::Range<usize>, c: &mut [f32]) {
    gemm_with(active(), op, a, b, n, rows, c)
}

/// Gathered weighted row sum at an explicit dispatch level: `out = Σ_k
/// ws[k] · table_row(ids[k])` over the rows of a row-major `n × d` table,
/// `d = out.len()`, overwriting `out`. One call is one SpMM output row.
///
/// **Contract:** every element of `out` is one chain in `k` order,
/// `o = 0`, then `o ← o + ws[k]·x_k` (one multiply and one add at
/// [`SimdLevel::Scalar`] and [`SimdLevel::Portable`], which share the
/// historical `fill(0)` + [`axpy`] loop; one FMA under AVX2, in register
/// tiles of up to 64 columns). These are the bits of clearing `out` and
/// running the level's [`axpy_with`] once per entry. No entries write zeros.
///
/// # Panics
/// Panics if `ws` and `ids` differ in length or an id indexes past the
/// table.
pub fn gather_sum_with(lv: SimdLevel, ws: &[f32], ids: &[u32], table: &[f32], out: &mut [f32]) {
    assert_eq!(ws.len(), ids.len(), "gather_sum weight/id length mismatch");
    match lv {
        SimdLevel::Scalar | SimdLevel::Portable => scalar::gather_sum(ws, ids, table, out),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => avx2::gather_sum(ws, ids, table, out),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2Fma => scalar::gather_sum(ws, ids, table, out),
    }
}

/// [`gather_sum_with`] at the process dispatch level.
#[inline]
pub fn gather_sum(ws: &[f32], ids: &[u32], table: &[f32], out: &mut [f32]) {
    gather_sum_with(active(), ws, ids, table, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Levels to test on this machine (scalar is the reference).
    fn simd_levels() -> Vec<SimdLevel> {
        let mut lv = vec![SimdLevel::Portable];
        if avx2_available() {
            lv.push(SimdLevel::Avx2Fma);
        }
        lv
    }

    fn rel_close(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn vec_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-3.0f32..3.0, 0..max_len)
    }

    #[test]
    fn parse_level_accepts_known_names() {
        assert_eq!(parse_level("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(parse_level("portable"), Some(SimdLevel::Portable));
        assert_eq!(parse_level("avx2"), Some(SimdLevel::Avx2Fma));
        assert_eq!(parse_level("bogus"), None);
    }

    #[test]
    fn active_returns_a_level_and_is_stable() {
        let a = active();
        assert_eq!(a, active());
        // force() of the already-cached level is a no-op Ok; a different
        // level reports the cached one.
        assert!(force(a).is_ok());
    }

    /// The `scalar` module must be bit-identical to the pre-SIMD kernel
    /// bodies (inlined here, frozen at their pre-refactor form).
    #[test]
    fn scalar_is_bit_identical_to_legacy_loops() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).sin() * 2.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 1.3).cos() * 1.5).collect();

        let legacy_dot = {
            let mut acc = 0.0f32;
            for (x, y) in a.iter().zip(b.iter()) {
                acc += x * y;
            }
            acc
        };
        assert_eq!(scalar::dot(&a, &b).to_bits(), legacy_dot.to_bits());

        let legacy_sq = {
            let mut acc = 0.0f32;
            for (x, y) in a.iter().zip(b.iter()) {
                let d = x - y;
                acc += d * d;
            }
            acc
        };
        assert_eq!(scalar::sq_dist(&a, &b).to_bits(), legacy_sq.to_bits());

        let mut y1 = b.clone();
        let mut y2 = b.clone();
        scalar::axpy(0.37, &a, &mut y1);
        for (yi, xi) in y2.iter_mut().zip(a.iter()) {
            *yi += 0.37 * xi;
        }
        assert_eq!(
            y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut o1 = vec![0.0f32; a.len()];
        let n1 = scalar::normalize_into(&a, &mut o1);
        let legacy_norm = legacy_dot_self(&a).max(0.0).sqrt();
        let mut o2 = vec![0.0f32; a.len()];
        let inv = 1.0 / legacy_norm.max(1e-12);
        for (o, xi) in o2.iter_mut().zip(a.iter()) {
            *o = xi * inv;
        }
        assert_eq!(n1.to_bits(), legacy_norm.to_bits());
        assert_eq!(
            o1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            o2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut g1 = vec![0.1f32; a.len()];
        let mut g2 = g1.clone();
        scalar::cosine_backward_into(0.3, 0.4, &o1, &o2, legacy_norm, &mut g1);
        let inv = 1.0 / legacy_norm.max(1e-12);
        for ((ga, &bh), &ah) in g2.iter_mut().zip(o2.iter()).zip(o1.iter()) {
            *ga += 0.3 * (bh - 0.4 * ah) * inv;
        }
        assert_eq!(
            g1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            g2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    fn legacy_dot_self(a: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for x in a {
            acc += x * x;
        }
        acc
    }

    proptest! {
        /// Every SIMD level matches the scalar reference within 1e-4
        /// relative tolerance across random lengths including
        /// non-multiple-of-8 tails.
        #[test]
        fn prop_dot_matches_scalar(a in vec_strategy(130), b in vec_strategy(130)) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let want = scalar::dot(a, b);
            for lv in simd_levels() {
                prop_assert!(rel_close(dot_with(lv, a, b), want, 1e-4), "{lv}");
            }
        }

        #[test]
        fn prop_sq_dist_matches_scalar(a in vec_strategy(130), b in vec_strategy(130)) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let want = scalar::sq_dist(a, b);
            for lv in simd_levels() {
                prop_assert!(rel_close(sq_dist_with(lv, a, b), want, 1e-4), "{lv}");
            }
        }

        #[test]
        fn prop_axpy_matches_scalar(alpha in -2.0f32..2.0, x in vec_strategy(130), y0 in vec_strategy(130)) {
            let n = x.len().min(y0.len());
            let (x, y0) = (&x[..n], &y0[..n]);
            let mut want = y0.to_vec();
            scalar::axpy(alpha, x, &mut want);
            for lv in simd_levels() {
                let mut got = y0.to_vec();
                axpy_with(lv, alpha, x, &mut got);
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*g, *w, 1e-4), "{lv}: {g} vs {w}");
                }
            }
        }

        #[test]
        fn prop_scale_matches_scalar(alpha in -2.0f32..2.0, y0 in vec_strategy(130)) {
            let mut want = y0.clone();
            scalar::scale(alpha, &mut want);
            for lv in simd_levels() {
                let mut got = y0.clone();
                scale_with(lv, alpha, &mut got);
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*g, *w, 1e-4), "{lv}");
                }
            }
        }

        #[test]
        fn prop_normalize_matches_scalar(x in vec_strategy(130)) {
            let mut want = vec![0.0f32; x.len()];
            let wn = scalar::normalize_into(&x, &mut want);
            for lv in simd_levels() {
                let mut got = vec![0.0f32; x.len()];
                let gn = normalize_into_with(lv, &x, &mut got);
                prop_assert!(rel_close(gn, wn, 1e-4), "{lv} norm");
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*g, *w, 1e-4), "{lv}");
                }
            }
        }

        #[test]
        fn prop_cosine_backward_matches_scalar(
            g in -2.0f32..2.0,
            s in -1.0f32..1.0,
            a in vec_strategy(130),
            b in vec_strategy(130),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let norm = 0.8f32;
            let mut want = vec![0.05f32; n];
            scalar::cosine_backward_into(g, s, a, b, norm, &mut want);
            for lv in simd_levels() {
                let mut got = vec![0.05f32; n];
                cosine_backward_into_with(lv, g, s, a, b, norm, &mut got);
                for (x, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv}");
                }
            }
        }

        #[test]
        fn prop_adam_update_matches_scalar(
            p0 in vec_strategy(70),
            seed in 0u64..1000,
        ) {
            let n = p0.len();
            let g: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 17) as f32 * 0.1 - 0.8).collect();
            let m0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin() * 0.3).collect();
            let v0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).cos().abs() * 0.2).collect();
            let (mut pw, mut mw, mut vw) = (p0.clone(), m0.clone(), v0.clone());
            scalar::adam_update(&mut pw, &mut mw, &mut vw, &g, 0.01, 0.9, 0.999, 0.19, 0.002, 1e-8);
            for lv in simd_levels() {
                let (mut pg, mut mg, mut vg) = (p0.clone(), m0.clone(), v0.clone());
                adam_update_with(lv, &mut pg, &mut mg, &mut vg, &g, 0.01, 0.9, 0.999, 0.19, 0.002, 1e-8);
                for (x, w) in pg.iter().zip(pw.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv}");
                }
                for (x, w) in mg.iter().zip(mw.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv} m");
                }
                for (x, w) in vg.iter().zip(vw.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv} v");
                }
            }
        }

        /// Blocked kernels agree with per-element scalar loops across
        /// random block shapes (including d not a multiple of 8 and odd M).
        #[test]
        fn prop_scores_block_matches_scalar(d in 1usize..40, m in 0usize..9, seed in 0u64..100) {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 + seed) % 13) as f32 * 0.2 - 1.0).collect();
            let block: Vec<f32> = (0..m * d).map(|i| ((i as u64 * 7 + seed) % 11) as f32 * 0.3 - 1.4).collect();
            let mut want = vec![0.0f32; m];
            for (o, row) in want.iter_mut().zip(block.chunks_exact(d)) {
                *o = scalar::dot(&q, row);
            }
            let mut got = vec![0.0f32; m];
            scores_block(&q, &block, &mut got);
            for (x, w) in got.iter().zip(want.iter()) {
                prop_assert!(rel_close(*x, *w, 1e-4));
            }
        }

        #[test]
        fn prop_cosine_backward_block_matches_scalar(d in 1usize..40, m in 0usize..9, seed in 0u64..100) {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 + seed) % 13) as f32 * 0.2 - 1.0).collect();
            let block: Vec<f32> = (0..m * d).map(|i| ((i as u64 * 7 + seed) % 11) as f32 * 0.3 - 1.4).collect();
            // Include zero gradients to exercise the skip path.
            let gs: Vec<f32> = (0..m).map(|j| if j % 3 == 0 { 0.0 } else { 0.1 * j as f32 - 0.2 }).collect();
            let ss: Vec<f32> = (0..m).map(|j| 0.05 * j as f32 - 0.1).collect();
            let qn = 0.9f32;
            let mut want = vec![0.02f32; d];
            for ((&g, &s), row) in gs.iter().zip(ss.iter()).zip(block.chunks_exact(d)) {
                if g == 0.0 { continue; }
                scalar::cosine_backward_into(g, s, &q, row, qn, &mut want);
            }
            let mut got = vec![0.02f32; d];
            cosine_backward_block(&gs, &ss, &q, qn, &block, &mut got);
            for (x, w) in got.iter().zip(want.iter()) {
                prop_assert!(rel_close(*x, *w, 1e-4));
            }
        }

        /// Every level's fused row backward matches the scalar leg on both
        /// sides, with repeated slots, shared target rows and `g == 0`
        /// entries, at dims on both sides of the 64-lane tile.
        #[test]
        fn prop_cosine_backward_row_matches_scalar(d in 1usize..80, m in 0usize..12, seed in 0u64..100) {
            let (n, nb) = (5usize, 3usize);
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 + seed) % 13) as f32 * 0.2 - 1.0).collect();
            let table: Vec<f32> = (0..n * d).map(|i| ((i as u64 * 7 + seed) % 11) as f32 * 0.3 - 1.4).collect();
            let norms: Vec<f32> = (0..n).map(|r| 0.5 + 0.25 * r as f32).collect();
            let gs: Vec<f32> = (0..m).map(|j| if j % 3 == 0 { 0.0 } else { 0.1 * j as f32 - 0.2 }).collect();
            let ss: Vec<f32> = (0..m).map(|j| 0.05 * j as f32 - 0.1).collect();
            let slots: Vec<u32> = (0..m).map(|j| ((j as u64 / 2 + seed) % n as u64) as u32).collect();
            let rows: Vec<u32> = (0..m).map(|j| ((j / 2) % nb) as u32).collect();
            let (mut want_q, mut want_block) = (vec![0.02f32; d], vec![0.01f32; nb * d]);
            scalar::cosine_backward_row(&gs, &ss, &q, 0.9, &table, &norms, &slots, &mut want_block, &rows, &mut want_q);
            for lv in simd_levels() {
                let (mut got_q, mut got_block) = (vec![0.02f32; d], vec![0.01f32; nb * d]);
                cosine_backward_row_with(lv, &gs, &ss, &q, 0.9, &table, &norms, &slots, &mut got_block, &rows, &mut got_q);
                for (x, w) in got_q.iter().zip(&want_q).chain(got_block.iter().zip(&want_block)) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv:?}: {x} vs {w}");
                }
            }
        }

        /// Every dispatch level's fused dequant-dot matches the scalar
        /// reference within tolerance, and the whole int8 pipeline
        /// (quantized row × f32 query) matches the plain f32 dot of the
        /// dequantized row — across non-multiple-of-8 tails.
        #[test]
        fn prop_dequant_dot_matches_scalar_and_f32(
            q in vec_strategy(130),
            bytes in proptest::collection::vec(-127i8..=127, 0..130),
            scale in 0.0f32..0.1,
        ) {
            let n = q.len().min(bytes.len());
            let (q, row) = (&q[..n], &bytes[..n]);
            let want = scalar::dequant_dot(q, row, scale);
            for lv in simd_levels() {
                prop_assert!(rel_close(dequant_dot_with(lv, q, row, scale), want, 1e-4), "{lv}");
            }
            // The fused kernel is the dot of the dequantized row.
            let deq: Vec<f32> = row.iter().map(|&b| b as f32 * scale).collect();
            let via_f32 = scalar::dot(q, &deq);
            prop_assert!(rel_close(want, via_f32, 1e-4), "fused {want} vs dequantized {via_f32}");
        }

        /// Blocked int8 scoring agrees with per-row scalar dequant-dots
        /// across random block shapes (odd d, M around multiples of 8 — the
        /// eight-row AVX2 microkernel's short last group included).
        #[test]
        fn prop_scores_block_i8_matches_scalar(d in 1usize..40, m in 0usize..27, seed in 0u64..100) {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 + seed) % 13) as f32 * 0.2 - 1.0).collect();
            let block: Vec<i8> = (0..m * d)
                .map(|i| (((i as u64 * 7 + seed) % 255) as i64 - 127) as i8)
                .collect();
            let scales: Vec<f32> = (0..m).map(|j| 0.002 + 0.001 * j as f32).collect();
            let mut want = vec![0.0f32; m];
            for ((o, row), &s) in want.iter_mut().zip(block.chunks_exact(d)).zip(scales.iter()) {
                *o = scalar::dequant_dot(&q, row, s);
            }
            let mut got = vec![0.0f32; m];
            scores_block_i8(&q, &block, &scales, &mut got);
            for (x, w) in got.iter().zip(want.iter()) {
                prop_assert!(rel_close(*x, *w, 1e-4));
            }
        }

        /// Gathered int8 scoring agrees with per-row scalar dequant-dots
        /// for arbitrary (repeating, unsorted) id lists — odd candidate
        /// counts exercise the AVX2 single-row remainder.
        #[test]
        fn prop_scores_gather_i8_matches_scalar(
            d in 1usize..40,
            n in 1usize..9,
            picks in proptest::collection::vec(0usize..9, 0..20),
            seed in 0u64..100,
        ) {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 + seed) % 13) as f32 * 0.2 - 1.0).collect();
            let table: Vec<i8> = (0..n * d)
                .map(|i| (((i as u64 * 11 + seed) % 255) as i64 - 127) as i8)
                .collect();
            let scales: Vec<f32> = (0..n).map(|j| 0.002 + 0.001 * j as f32).collect();
            let ids: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            let mut want = vec![0.0f32; ids.len()];
            for (o, &i) in want.iter_mut().zip(ids.iter()) {
                let i = i as usize;
                *o = scalar::dequant_dot(&q, &table[i * d..(i + 1) * d], scales[i]);
            }
            let mut got = vec![0.0f32; ids.len()];
            scores_gather_i8(&q, &table, &scales, &ids, &mut got);
            for (x, w) in got.iter().zip(want.iter()) {
                prop_assert!(rel_close(*x, *w, 1e-4));
            }
        }

        #[test]
        fn prop_sgd_momentum_matches_scalar(
            p0 in vec_strategy(70),
            lr in 0.001f32..0.5,
            mu in 0.0f32..0.99,
        ) {
            let n = p0.len();
            let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin()).collect();
            let v0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).cos() * 0.5).collect();
            let (mut pw, mut vw) = (p0.clone(), v0.clone());
            scalar::sgd_momentum_update(&mut pw, &mut vw, &g, lr, mu);
            for lv in simd_levels() {
                let (mut pg, mut vg) = (p0.clone(), v0.clone());
                sgd_momentum_update_with(lv, &mut pg, &mut vg, &g, lr, mu);
                for (x, w) in pg.iter().zip(pw.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv}");
                }
                for (x, w) in vg.iter().zip(vw.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "{lv} v");
                }
            }
        }
    }

    proptest! {
        /// Odd dims straddling the 8-lane boundary (d = 13/15) exercise
        /// the AVX2 masked tail loads in `dot`, `axpy` and the two-row
        /// `scores_block` microkernel: every level must agree with scalar.
        #[test]
        fn prop_masked_tails_at_d13_d15(seed in 0u64..300) {
            for d in [13usize, 15] {
                let a: Vec<f32> = (0..d)
                    .map(|i| (((i as u64 * 31 + seed * 7) % 23) as f32) * 0.21 - 2.3)
                    .collect();
                let b: Vec<f32> = (0..d)
                    .map(|i| (((i as u64 * 17 + seed * 13) % 19) as f32) * 0.27 - 2.5)
                    .collect();
                let want_dot = scalar::dot(&a, &b);
                let mut want_axpy = b.clone();
                scalar::axpy(0.37, &a, &mut want_axpy);
                for lv in simd_levels() {
                    prop_assert!(rel_close(dot_with(lv, &a, &b), want_dot, 1e-4), "{lv} dot d={d}");
                    let mut got = b.clone();
                    axpy_with(lv, 0.37, &a, &mut got);
                    for (g, w) in got.iter().zip(want_axpy.iter()) {
                        prop_assert!(rel_close(*g, *w, 1e-4), "{lv} axpy d={d}: {g} vs {w}");
                    }
                }
                // scores_block runs the dispatched level (covers the AVX2
                // dot2 microkernel's masked tail when available): odd M so
                // both the paired and the single-row paths run.
                let m = 5usize;
                let block: Vec<f32> = (0..m * d)
                    .map(|i| (((i as u64 * 11 + seed) % 29) as f32) * 0.17 - 2.4)
                    .collect();
                let mut want = vec![0.0f32; m];
                for (o, row) in want.iter_mut().zip(block.chunks_exact(d)) {
                    *o = scalar::dot(&a, row);
                }
                let mut got = vec![0.0f32; m];
                scores_block(&a, &block, &mut got);
                for (x, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*x, *w, 1e-4), "scores_block d={d}");
                }
            }
        }
    }

    #[test]
    fn normalize_rows_and_gather_agree() {
        let src = Matrix::from_fn(5, 11, |r, c| ((r * 13 + c * 7) % 9) as f32 * 0.4 - 1.2);
        let mut dst = Matrix::zeros(5, 11);
        let mut norms = vec![0.0f32; 5];
        normalize_rows_into(&src, &mut dst, &mut norms);
        for (r, &got_n) in norms.iter().enumerate() {
            let mut want = vec![0.0f32; 11];
            let wn = scalar::normalize_into(src.row(r), &mut want);
            assert!(rel_close(got_n, wn, 1e-4));
            for (x, w) in dst.row(r).iter().zip(want.iter()) {
                assert!(rel_close(*x, *w, 1e-4));
            }
        }
        // Gather with a permutation.
        let ids = [4u32, 0, 2];
        let mut block = vec![0.0f32; 3 * 11];
        let mut bnorms = vec![0.0f32; 3];
        normalize_gather_into(&src, &ids, &mut block, &mut bnorms);
        for (j, &id) in ids.iter().enumerate() {
            assert!(rel_close(bnorms[j], norms[id as usize], 1e-4));
            for (x, w) in block[j * 11..(j + 1) * 11].iter().zip(dst.row(id as usize)) {
                assert!(rel_close(*x, *w, 1e-4));
            }
        }
    }

    #[test]
    fn empty_slices_are_fine_at_every_level() {
        for lv in simd_levels().into_iter().chain([SimdLevel::Scalar]) {
            assert_eq!(dot_with(lv, &[], &[]), 0.0);
            assert_eq!(sq_dist_with(lv, &[], &[]), 0.0);
            let mut y: [f32; 0] = [];
            axpy_with(lv, 1.0, &[], &mut y);
            scale_with(lv, 2.0, &mut y);
        }
        let mut out: [f32; 0] = [];
        scores_block(&[1.0, 2.0], &[], &mut out);
        cosine_backward_block(&[], &[], &[1.0], 1.0, &[], &mut [0.0]);
    }

    fn all_levels() -> impl Iterator<Item = SimdLevel> {
        [SimdLevel::Scalar].into_iter().chain(simd_levels())
    }

    /// One slot four times in a row, all into one block row (a negative
    /// drawn repeatedly, or an item that is several batch rows' positive):
    /// each occurrence must add to its predecessor's stored result. A leg
    /// that loaded two occurrences' rows before storing either would lose
    /// an update; the sequential per-occurrence reference cannot.
    #[test]
    fn cosine_backward_row_applies_back_to_back_occurrences_of_one_row_in_sequence() {
        for d in [7usize, 64, 65] {
            let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
            let table: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.173).cos()).collect();
            let (gs, ss) = ([0.3f32, -0.2, 0.15, 0.4], [0.1f32, 0.7, -0.4, 0.2]);
            for lv in all_levels() {
                let mut want = vec![0.5f32; 2 * d];
                for (&g, &s) in gs.iter().zip(&ss) {
                    cosine_backward_into_with(lv, g, s, &table[d..], &q, 1.3, &mut want[..d]);
                }
                let (mut got, mut grad_q) = (vec![0.5f32; 2 * d], vec![0.0f32; d]);
                cosine_backward_row_with(
                    lv,
                    &gs,
                    &ss,
                    &q,
                    0.9,
                    &table,
                    &[0.8, 1.3],
                    &[1; 4],
                    &mut got,
                    &[0; 4],
                    &mut grad_q,
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{lv}, d = {d}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `C = A·B` over every row, with `A` stored `m × k` and, transposed,
    /// `k × m`: the two layouts must give the same bits.
    fn gemm_both_ops(lv: SimdLevel, a: &[f32], b: &[f32], m: usize, n: usize) -> Vec<f32> {
        let k = a.len() / m;
        let a_t: Vec<f32> = (0..k * m).map(|x| a[(x % m) * k + x / m]).collect();
        let (mut c, mut c_t) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        gemm_with(lv, Op::N, a, b, n, 0..m, &mut c);
        gemm_with(lv, Op::T, &a_t, b, n, 0..m, &mut c_t);
        assert_eq!(bits(&c), bits(&c_t), "{lv}: Op::T moved the bits, m {m}, n {n}");
        c
    }

    /// Every level, both layouts of `A`, on tile-sized and tail shapes:
    /// each element within `k·2⁻²³·Σ_p |A[i][p]·B[p][j]|` of the f64
    /// product (about twice the worst-case bound `γ_k` of a `k`-term f32
    /// chain), and the same bits whether `C` is computed whole or one row
    /// at a time.
    #[test]
    fn gemm_matches_the_f64_product_at_every_level_and_shape() {
        for m in [1usize, 5, 6, 7, 64] {
            for k in [1usize, 2, 63, 512] {
                let a: Vec<f32> = (0..m * k).map(|x| (x as f32 * 0.37).sin()).collect();
                for n in [1usize, 7, 16, 33, 64, 65] {
                    let b: Vec<f32> = (0..k * n).map(|x| (x as f32 * 0.53).cos() * 1.7).collect();
                    for lv in all_levels() {
                        let c = gemm_both_ops(lv, &a, &b, m, n);
                        for (x, &got) in c.iter().enumerate() {
                            let (i, j) = (x / n, x % n);
                            let terms = (0..k).map(|p| a[i * k + p] as f64 * b[p * n + j] as f64);
                            let (exact, mag) =
                                terms.fold((0.0f64, 0.0f64), |(s, t), v| (s + v, t + v.abs()));
                            let bound = k as f64 * (-23f64).exp2() * mag;
                            assert!(
                                (got as f64 - exact).abs() <= bound,
                                "{lv}: m {m} k {k} n {n} C[{i}][{j}] = {got}, f64 {exact}"
                            );
                        }
                        let mut row = vec![0.0f32; n];
                        for i in 0..m {
                            gemm_with(lv, Op::N, &a, &b, n, i..i + 1, &mut row);
                            assert_eq!(bits(&row), bits(&c[i * n..(i + 1) * n]), "{lv}: row {i}");
                        }
                    }
                }
            }
        }
    }

    /// The AVX-512F tile against the AVX2 tile, both called directly into a
    /// NaN-filled `C`, on every tile height and tail width, on depths that
    /// cross the transposed panel's 256-value resume, in both layouts, over
    /// the whole row range and split: the same bits everywhere, and no
    /// element left unwritten. On a host without AVX-512F only the AVX2
    /// tile's split-against-whole bits are checked.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_avx512_tile_is_bit_equal_to_the_avx2_tile() {
        if !avx2_available() {
            eprintln!("gemm tiles: no avx2+fma on this host, nothing checked");
            return;
        }
        let wide = avx512::available();
        if !wide {
            eprintln!("gemm tiles: no avx512f on this host, only the AVX2 tile was checked");
        }
        type Tile = fn(&[f32], (usize, usize), &[f32], usize, std::ops::Range<usize>, &mut [f32]);
        let both: [(&str, Tile); 2] = [("avx2", avx2::gemm), ("avx512", avx512::gemm)];
        let tiles = if wide { &both[..] } else { &both[..1] };
        for m in 1usize..=14 {
            let mut cuts = vec![0, 1.min(m), 7.min(m), m];
            cuts.dedup();
            for k in [1usize, 7, 64, 255, 256, 257, 512, 600] {
                let a: Vec<f32> = (0..m * k).map(|x| (x as f32 * 0.37).sin()).collect();
                let a_t: Vec<f32> = (0..k * m).map(|x| a[(x % m) * k + x / m]).collect();
                for n in [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 512] {
                    let b: Vec<f32> = (0..k * n).map(|x| (x as f32 * 0.53).cos() * 1.7).collect();
                    let mut want = vec![f32::NAN; m * n];
                    avx2::gemm(&a, (k, 1), &b, n, 0..m, &mut want);
                    assert!(want.iter().all(|x| !x.is_nan()), "avx2: m {m} k {k} n {n}");
                    for &(name, tile) in tiles {
                        for (op, a, strides) in [(Op::N, &a, (k, 1)), (Op::T, &a_t, (1, m))] {
                            let mut whole = vec![f32::NAN; m * n];
                            tile(a, strides, &b, n, 0..m, &mut whole);
                            let mut pieces = vec![f32::NAN; m * n];
                            for w in cuts.windows(2) {
                                let block = &mut pieces[w[0] * n..w[1] * n];
                                tile(a, strides, &b, n, w[0]..w[1], block);
                            }
                            let at = format!("{name} {op:?}: m {m} k {k} n {n}");
                            assert_eq!(bits(&whole), bits(&want), "{at}, whole");
                            assert_eq!(bits(&pieces), bits(&want), "{at}, split {cuts:?}");
                        }
                    }
                }
            }
        }
    }

    /// At every level, on panel-sized and tail widths, `gather_sum` over a
    /// NaN-filled output has the bits of clearing it and running the level's
    /// `axpy` once per entry, repeated rows included; no entries give zeros.
    #[test]
    fn gather_sum_is_bit_equal_to_fill_then_axpy_at_every_level() {
        const ROWS: usize = 11;
        for d in [1usize, 7, 8, 9, 31, 64, 65, 72, 128] {
            let table: Vec<f32> = (0..ROWS * d).map(|x| (x as f32 * 0.37).sin() * 1.3).collect();
            for entries in [0usize, 1, 2, 17] {
                let ids: Vec<u32> = (0..entries).map(|k| ((k * 7 + 3) % ROWS) as u32).collect();
                let ws: Vec<f32> = (0..entries).map(|k| (k as f32 * 0.53).cos() * 0.7).collect();
                for lv in all_levels() {
                    let mut want = vec![0.0f32; d];
                    for (&w, &id) in ws.iter().zip(&ids) {
                        axpy_with(lv, w, &table[id as usize * d..][..d], &mut want);
                    }
                    let mut got = vec![f32::NAN; d];
                    gather_sum_with(lv, &ws, &ids, &table, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{lv}: d {d}, {entries} entries");
                    if entries == 0 {
                        assert!(got.iter().all(|&x| x.to_bits() == 0), "{lv}: d {d}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Any split of `C`'s rows into consecutive ranges, computed range
        /// by range, gives the bits of the whole product.
        #[test]
        fn gemm_row_ranges_compose_to_the_whole_bit_for_bit(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            cuts in proptest::collection::vec(0usize..40, 0..6),
            transposed in 0u8..2,
        ) {
            let a: Vec<f32> = (0..m * k).map(|x| (x as f32 * 0.71).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|x| (x as f32 * 0.29).cos()).collect();
            let op = if transposed == 1 { Op::T } else { Op::N };
            let mut cuts: Vec<usize> = cuts.into_iter().map(|x| x % (m + 1)).collect();
            cuts.extend([0, m]);
            cuts.sort_unstable();
            for lv in all_levels() {
                let mut whole = vec![0.0f32; m * n];
                gemm_with(lv, op, &a, &b, n, 0..m, &mut whole);
                let mut pieces = vec![0.0f32; m * n];
                for w in cuts.windows(2) {
                    let block = &mut pieces[w[0] * n..w[1] * n];
                    gemm_with(lv, op, &a, &b, n, w[0]..w[1], block);
                }
                prop_assert_eq!(bits(&whole), bits(&pieces), "{} {:?}", lv, op);
            }
        }
    }

    /// The proptest above stops at `k < 40`; a transposed `A` deeper than
    /// the 256-value panel the x86 tiles pack resumes each chain from `C`
    /// between panels, and a split of the rows must still give the bits of
    /// the whole product.
    #[test]
    fn gemm_transposed_row_ranges_compose_past_the_packed_panel() {
        let (m, k, n) = (13usize, 600usize, 37usize);
        let a: Vec<f32> = (0..m * k).map(|x| (x as f32 * 0.71).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x as f32 * 0.29).cos()).collect();
        for lv in all_levels() {
            let mut whole = vec![f32::NAN; m * n];
            gemm_with(lv, Op::T, &a, &b, n, 0..m, &mut whole);
            let mut pieces = vec![f32::NAN; m * n];
            for w in [0, 5, 6, 13].windows(2) {
                gemm_with(lv, Op::T, &a, &b, n, w[0]..w[1], &mut pieces[w[0] * n..w[1] * n]);
            }
            assert_eq!(bits(&whole), bits(&pieces), "{lv}");
        }
    }

    /// The f64 oracle of [`softmax_row`]: `(log Σ exp(x/τ), softmax(x/τ))`.
    /// Shifted by the maximum the arguments are small, so handing them to
    /// `logsumexp` as f32 moves its result by under 1e-7.
    fn softmax_oracle(xs: &[f32], tau: f32) -> (f64, Vec<f64>) {
        let tau = tau as f64;
        let max = xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x as f64));
        let shifted: Vec<f32> = xs.iter().map(|&x| ((x as f64 - max) / tau) as f32).collect();
        let lse = max / tau + crate::stats::logsumexp(&shifted);
        let e: Vec<f64> = xs.iter().map(|&x| ((x as f64 - max) / tau).exp()).collect();
        let sum: f64 = e.iter().sum();
        (lse, e.iter().map(|v| v / sum).collect())
    }

    /// Cosine-range scores (±1, many comparable weights) and un-normalized
    /// ones (±50) at the paper's temperatures, every length through the
    /// 8-lane boundaries and 511 (the in-batch row). Where `exp(s/τ)` then
    /// `log(Σ + eps)` (SNIPPETS.md #3) overflows, every leg stays finite and
    /// inside the error bound of the f64 oracle.
    #[test]
    fn softmax_row_matches_the_f64_oracle_where_the_naive_form_overflows() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let (mut worst_w, mut worst_lse, mut overflowed) = (0.0f64, 0.0f64, 0usize);
        for (range, tau) in
            [1.0, 50.0].into_iter().flat_map(|r| [0.01f32, 0.05, 0.2, 1.0].map(|t| (r, t)))
        {
            for len in (1..=70).chain([511]) {
                let xs: Vec<f32> = (0..len).map(|_| (unit() * range) as f32).collect();
                let naive: f32 = xs.iter().map(|&x| (x / tau).exp()).sum::<f32>() + 1e-7;
                overflowed += usize::from(naive.ln().is_infinite());
                let (want_lse, want_w) = softmax_oracle(&xs, tau);
                for lv in all_levels() {
                    let mut out = vec![f32::NAN; len];
                    let (max, sum) = softmax_row_with(lv, &xs, tau, &mut out);
                    assert!(sum.is_finite() && sum >= 1.0, "{lv} tau {tau} len {len}: sum {sum}");
                    let lse = max as f64 / tau as f64 + crate::stats::ln(sum);
                    worst_lse = worst_lse.max((lse - want_lse).abs());
                    for (&e, &w) in out.iter().zip(want_w.iter()) {
                        assert!((0.0..=1.0).contains(&e), "{lv} tau {tau} len {len}: weight {e}");
                        worst_w = worst_w.max((e as f64 / sum - w).abs());
                    }
                }
            }
        }
        assert!(overflowed > 200, "the naive form overflowed on {overflowed} of 568 rows only");
        assert!(worst_w <= 1e-7, "weight error {worst_w:e}");
        assert!(worst_lse <= 1e-6, "lse error {worst_lse:e}");
    }

    /// Every 4099th f32 in `[−87, 0]` (273k arguments) plus both ends, per
    /// leg, against `f64::exp`. The exhaustive sweep reads 0.982 ULP for
    /// the scalar and portable legs and 1.010 ULP for AVX2+FMA.
    #[test]
    fn exp_is_within_1_02_ulp_of_f64_exp_at_every_level() {
        let (lo, hi) = ((-0.0f32).to_bits(), (-87.0f32).to_bits());
        let mut xs = vec![0.0f32]; // the maximum: out[j] = exp(xs[j]) at τ = 1
        xs.extend((lo..=hi).step_by(4099).map(f32::from_bits));
        xs.push(-87.0);
        let mut out = vec![0.0f32; xs.len()];
        for lv in all_levels() {
            softmax_row_with(lv, &xs, 1.0, &mut out);
            for (&t, &got) in xs.iter().zip(out.iter()) {
                let want = (t as f64).exp();
                // `got` is normal on the whole range, so its exponent field
                // gives the ULP.
                let ulp = 2f64.powi(((want as f32).to_bits() >> 23) as i32 - 127 - 23);
                let err = (got as f64 - want).abs() / ulp;
                assert!(err <= 1.02, "{lv}: exp({t:e}) = {got:e}, {err:.3} ULP from {want:e}");
            }
        }
    }

    #[test]
    fn softmax_row_edges_are_exact_at_every_level() {
        for lv in all_levels() {
            // Empty row.
            assert_eq!(softmax_row_with(lv, &[], 0.1, &mut []), (f32::NEG_INFINITY, 0.0));
            // A single score: weight exactly 1, whatever the score and τ.
            let mut one = [0.0f32];
            assert_eq!(softmax_row_with(lv, &[-37.25], 0.01, &mut one), (-37.25, 1.0));
            assert_eq!(one[0].to_bits(), 1.0f32.to_bits());
            // All-equal scores: every weight exactly 1, Σ = len.
            for len in [7usize, 8, 19] {
                let mut out = vec![0.0f32; len];
                let (max, sum) = softmax_row_with(lv, &vec![0.3; len], 0.05, &mut out);
                assert_eq!((max, sum), (0.3, len as f64), "{lv}");
                assert!(out.iter().all(|&e| e == 1.0), "{lv}");
            }
            // Below the cut-off the weight is +0.0 itself — not a clamped
            // tiny positive, not −0.0 — and just above it a normal number;
            // in the full lanes and in the masked tail alike.
            let mut xs = vec![0.0f32; 11];
            let mut out = vec![1.0f32; 11];
            (xs[1], xs[2], xs[9], xs[10]) = (-87.0, -87.001, -1e30, f32::NEG_INFINITY);
            let (max, sum) = softmax_row_with(lv, &xs, 1.0, &mut out);
            assert_eq!(max, 0.0);
            assert!(out[1] >= f32::MIN_POSITIVE, "{lv}: exp(-87) = {:e}", out[1]);
            for j in [2, 9, 10] {
                assert_eq!(out[j].to_bits(), 0, "{lv}: out[{j}] = {:e}", out[j]);
            }
            assert_eq!(sum, 7.0 + out[1] as f64, "{lv}");
            // A NaN score is skipped by the maximum and poisons the sum.
            for at in [0usize, 3, 10] {
                let mut xs = vec![0.5f32; 11];
                xs[at] = f32::NAN;
                let (max, sum) = softmax_row_with(lv, &xs, 0.2, &mut out);
                assert_eq!(max, 0.5, "{lv}");
                assert!(sum.is_nan() && out[at].is_nan(), "{lv}: NaN at {at} gave sum {sum}");
            }
        }
    }

    proptest! {
        /// Portable and AVX2 agree with the scalar reference inside the
        /// module's 1e-4 relative bound, across the 8-lane tails.
        #[test]
        fn prop_softmax_row_matches_scalar(xs in vec_strategy(130), tau in 0.01f32..2.0) {
            let mut want = vec![0.0f32; xs.len()];
            let (want_max, want_sum) = scalar::softmax_row(&xs, tau, &mut want);
            for lv in simd_levels() {
                let mut got = vec![0.0f32; xs.len()];
                let (max, sum) = softmax_row_with(lv, &xs, tau, &mut got);
                prop_assert_eq!(max, want_max, "{}", lv);
                prop_assert!((sum - want_sum).abs() <= 1e-4 * (1.0 + want_sum), "{lv}: {sum} vs {want_sum}");
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert!(rel_close(*g, *w, 1e-4), "{lv}: {g} vs {w}");
                }
            }
        }
    }
}
