//! Adam (Kingma & Ba) with dense and lazy-row update paths.
//!
//! Both paths route through the fused [`bsl_linalg::simd::adam_update`]
//! kernel (runtime-dispatched scalar / unrolled / AVX2+FMA): the moment
//! EMAs and the bias-corrected parameter step run as one kernel call per
//! row (lazy path) or per matrix (dense path; with a pool, per lane's run
//! of it, cut on the 8-float grid). Scalar dispatch is
//! bit-identical to the historical three-loop implementation. The bias
//! corrections `1 − β^t` are computed once per step, not once per row.

use bsl_linalg::pool::{Job, WorkerPool};
use bsl_linalg::simd;
use bsl_linalg::Matrix;

/// Adam state for one parameter matrix.
#[derive(Clone, Debug)]
pub struct Adam {
    m: Matrix,
    v: Matrix,
    t: u64,
    /// `(1 − β1^t, 1 − β2^t)` at the current `t`, computed once per step
    /// by [`Self::begin_step`] and read by every row update.
    bias: (f32, f32),
    /// Reusable dedup scratch for [`Adam::step_rows`], lazily sized to the
    /// row count once and reset per call in O(touched rows).
    seen: Vec<bool>,
}

impl Adam {
    // β1, β2 and ε, fixed for every parameter.
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Fresh state for a `rows × cols` parameter with the standard
    /// hyperparameters (β1 = 0.9, β2 = 0.999, ε = 1e-8) the paper's
    /// baselines all use.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
            bias: bias_corrections(0),
            seen: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Advances the global step counter; call exactly once per optimizer
    /// step before [`Self::update_row`] / the dense path handles this
    /// itself in [`Self::step_dense`].
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.bias = bias_corrections(self.t);
    }

    /// Lazy per-row update: applies one Adam update to `param` row
    /// `row` with gradient `grad`. Must be preceded by [`Self::begin_step`]
    /// once per batch. Rows not visited keep stale moments (lazy Adam).
    ///
    /// # Panics
    /// Panics if dimensions disagree (debug builds check per element).
    pub fn update_row(&mut self, param: &mut [f32], row: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(param.len(), grad.len());
        let (bc1, bc2) = self.bias;
        simd::adam_update(
            param,
            self.m.row_mut(row),
            self.v.row_mut(row),
            grad,
            lr,
            Self::BETA1,
            Self::BETA2,
            bc1,
            bc2,
            Self::EPS,
        );
    }

    /// Dense update of a whole parameter matrix. Advances the step counter
    /// itself.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn step_dense(&mut self, param: &mut Matrix, grad: &Matrix, lr: f32) {
        self.step_dense_on(param, grad, lr, None);
    }

    /// [`Self::step_dense`] with the flattened tables split across
    /// `pool`'s lanes, one contiguous run each, after one
    /// [`Self::begin_step`] on the caller.
    ///
    /// The update is elementwise, but its AVX2 leg runs 8-float vectors
    /// with FMA and a scalar tail without: every cut sits at an element
    /// offset that is a multiple of 8, so each element takes the leg it
    /// takes in the single call and the bits do not depend on the split.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn step_dense_on(
        &mut self,
        param: &mut Matrix,
        grad: &Matrix,
        lr: f32,
        pool: Option<&WorkerPool>,
    ) {
        assert_eq!(param.shape(), grad.shape(), "adam gradient shape mismatch");
        assert_eq!(param.shape(), self.m.shape(), "adam state shape mismatch");
        self.begin_step();
        let (bc1, bc2) = self.bias;
        let update = |p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]| {
            simd::adam_update(p, m, v, g, lr, Self::BETA1, Self::BETA2, bc1, bc2, Self::EPS);
        };
        let (p, m, v) = (param.as_mut_slice(), self.m.as_mut_slice(), self.v.as_mut_slice());
        let g = grad.as_slice();
        let Some(pool) = pool.filter(|p| p.n_workers() > 1) else {
            return update(p, m, v, g);
        };
        let run = p.len().div_ceil(pool.n_workers()).next_multiple_of(8).max(8);
        let update = &update;
        let jobs: Vec<Job> = (p.chunks_mut(run).zip(m.chunks_mut(run)))
            .zip(v.chunks_mut(run).zip(g.chunks(run)))
            .map(|((p, m), (v, g))| Box::new(move || update(p, m, v, g)) as Job)
            .collect();
        pool.run(jobs);
    }

    /// Lazy update over an explicit list of touched rows: one
    /// [`Self::begin_step`] followed by [`Self::update_row`] per distinct
    /// row. Duplicate rows in `rows` are skipped after their first visit
    /// (the gradient buffer already accumulates duplicates).
    pub fn step_rows(&mut self, param: &mut Matrix, grad: &Matrix, rows: &[u32], lr: f32) {
        assert_eq!(param.shape(), grad.shape(), "adam gradient shape mismatch");
        self.begin_step();
        // Dedup via the persistent `seen` scratch: one lazy allocation per
        // optimizer, reset below in O(touched) — per-call cost scales with
        // the batch footprint, not the parameter row count.
        if self.seen.len() < param.rows() {
            self.seen.resize(param.rows(), false);
        }
        for &r in rows {
            let r = r as usize;
            if self.seen[r] {
                continue;
            }
            self.seen[r] = true;
            self.update_row(param.row_mut(r), r, grad.row(r), lr);
        }
        for &r in rows {
            self.seen[r as usize] = false;
        }
    }
}

/// Adam's bias corrections `(1 − β1^t, 1 − β2^t)`. Step 0 (no
/// [`Adam::begin_step`] yet) reads as step 1, and the exponent saturates
/// at `i32::MAX` instead of wrapping negative; `β^(2³¹)` is already 0 in
/// f32, so saturating changes no value.
fn bias_corrections(t: u64) -> (f32, f32) {
    let t = t.clamp(1, i32::MAX as u64) as i32;
    (1.0 - Adam::BETA1.powi(t), 1.0 - Adam::BETA2.powi(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One dense Adam step from zero state has magnitude ≈ lr in every
    /// coordinate with a non-zero gradient (the classic Adam property).
    #[test]
    fn first_step_has_lr_magnitude() {
        let mut p = Matrix::from_vec(1, 3, vec![0.0, 0.0, 0.0]);
        let g = Matrix::from_vec(1, 3, vec![10.0, -0.3, 1e-4]);
        let mut adam = Adam::new(1, 3);
        adam.step_dense(&mut p, &g, 0.01);
        for (i, &x) in p.as_slice().iter().enumerate() {
            let sign = if g.as_slice()[i] > 0.0 { -1.0 } else { 1.0 };
            assert!((x - sign * 0.01).abs() < 1e-3, "coord {i}: {x}");
        }
    }

    #[test]
    fn zero_gradient_leaves_param_unchanged() {
        let mut p = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let g = Matrix::zeros(1, 2);
        let mut adam = Adam::new(1, 2);
        adam.step_dense(&mut p, &g, 0.1);
        assert_eq!(p.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn converges_on_quadratic() {
        // minimize f(x) = ||x - target||^2 with Adam.
        let target = [3.0f32, -1.5, 0.25];
        let mut p = Matrix::zeros(1, 3);
        let mut adam = Adam::new(1, 3);
        for _ in 0..2000 {
            let g = Matrix::from_vec(
                1,
                3,
                p.as_slice().iter().zip(target.iter()).map(|(&x, &t)| 2.0 * (x - t)).collect(),
            );
            adam.step_dense(&mut p, &g, 0.05);
        }
        for (x, t) in p.as_slice().iter().zip(target.iter()) {
            assert!((x - t).abs() < 1e-2, "{x} vs {t}");
        }
    }

    #[test]
    fn lazy_rows_only_touch_listed_rows() {
        let mut p = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let before = p.clone();
        let mut grad = Matrix::zeros(4, 2);
        grad.row_mut(1).copy_from_slice(&[1.0, 1.0]);
        grad.row_mut(3).copy_from_slice(&[-1.0, 2.0]);
        let mut adam = Adam::new(4, 2);
        adam.step_rows(&mut p, &grad, &[1, 3, 1], 0.1);
        assert_eq!(p.row(0), before.row(0));
        assert_eq!(p.row(2), before.row(2));
        assert_ne!(p.row(1), before.row(1));
        assert_ne!(p.row(3), before.row(3));
    }

    #[test]
    fn duplicate_rows_update_once() {
        let mut p1 = Matrix::zeros(2, 2);
        let mut p2 = Matrix::zeros(2, 2);
        let mut grad = Matrix::zeros(2, 2);
        grad.row_mut(0).copy_from_slice(&[1.0, -1.0]);
        let mut a1 = Adam::new(2, 2);
        let mut a2 = Adam::new(2, 2);
        a1.step_rows(&mut p1, &grad, &[0, 0, 0], 0.1);
        a2.step_rows(&mut p2, &grad, &[0], 0.1);
        assert_eq!(p1.as_slice(), p2.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dense_step_rejects_shape_mismatch() {
        let mut p = Matrix::zeros(2, 2);
        let g = Matrix::zeros(2, 3);
        Adam::new(2, 2).step_dense(&mut p, &g, 0.1);
    }

    /// Every row update reads the corrections cached once per step; each
    /// path must give the bits of the per-row formula the cache replaced.
    #[test]
    fn cached_bias_corrections_match_the_per_row_formula() {
        let per_row = |t: u64| {
            let t = t.max(1) as i32;
            (1.0 - 0.9f32.powi(t), 1.0 - 0.999f32.powi(t))
        };
        let (rows, cols, lr) = (3, 5, 0.01);
        let param = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 * 0.1 - 0.7);
        let grad = Matrix::from_fn(rows, cols, |r, c| ((r + 2 * c) % 7) as f32 - 3.2);
        // One update of every row from zero moments with the given
        // corrections: what each path must reproduce bit for bit.
        let expect = |(bc1, bc2): (f32, f32)| {
            let mut p = param.clone();
            let (mut m, mut v) = (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols));
            for r in 0..rows {
                simd::adam_update(
                    p.row_mut(r),
                    m.row_mut(r),
                    v.row_mut(r),
                    grad.row(r),
                    lr,
                    0.9,
                    0.999,
                    bc1,
                    bc2,
                    1e-8,
                );
            }
            p
        };
        // `steps` calls to `begin_step`.
        let advanced = |steps: u64| {
            let mut adam = Adam::new(rows, cols);
            for _ in 0..steps {
                adam.begin_step();
            }
            adam
        };
        let bits = |p: &Matrix| p.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for t in [0u64, 1, 2, 1000, 1_000_000] {
            let want = bits(&expect(per_row(t)));
            let mut adam = advanced(t);
            let mut p = param.clone();
            for r in 0..rows {
                adam.update_row(p.row_mut(r), r, grad.row(r), lr);
            }
            assert_eq!(bits(&p), want, "update_row at t = {t}");
            if t == 0 {
                continue; // the step paths advance t themselves
            }
            let mut p = param.clone();
            advanced(t - 1).step_rows(&mut p, &grad, &[2, 0, 1, 0], lr);
            assert_eq!(bits(&p), want, "step_rows at t = {t}");
            let mut p = param.clone();
            advanced(t - 1).step_dense(&mut p, &grad, lr);
            assert_eq!(bits(&p), want, "step_dense at t = {t}");
        }
    }

    /// Past 2³¹ steps the exponent saturates: `as i32` used to wrap it to
    /// 0 or a negative power (a zero or infinite correction).
    #[test]
    fn bias_corrections_saturate_past_i32_steps() {
        let top = bias_corrections(i32::MAX as u64);
        assert_eq!(top, (1.0, 1.0));
        for t in [1u64 << 31, 1 << 32, u64::MAX] {
            assert_eq!(bias_corrections(t), top, "t = {t}");
        }
    }

    proptest! {
        /// Adam step magnitude is bounded by ~lr regardless of gradient
        /// scale (scale invariance of the update).
        #[test]
        fn prop_step_bounded_by_lr(g0 in -1e4f32..1e4, g1 in -1e4f32..1e4) {
            let mut p = Matrix::zeros(1, 2);
            let g = Matrix::from_vec(1, 2, vec![g0, g1]);
            let mut adam = Adam::new(1, 2);
            adam.step_dense(&mut p, &g, 0.01);
            for &x in p.as_slice() {
                prop_assert!(x.abs() <= 0.0101);
            }
        }

        #[test]
        fn prop_descends_opposite_gradient_sign(g in 0.01f32..100.0) {
            let mut p = Matrix::zeros(1, 1);
            let grad = Matrix::from_vec(1, 1, vec![g]);
            let mut adam = Adam::new(1, 1);
            adam.step_dense(&mut p, &grad, 0.05);
            prop_assert!(p.get(0, 0) < 0.0);
        }
    }
}
