//! Plain (optionally momentum) SGD — used by the ENMF baseline and as a
//! reference optimizer in tests. The plain step is one dispatched `axpy`;
//! the momentum step runs the fused single-pass
//! [`bsl_linalg::simd::sgd_momentum_update`] kernel.

use bsl_linalg::kernels::axpy;
use bsl_linalg::simd::sgd_momentum_update;
use bsl_linalg::Matrix;

/// SGD with optional classical momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    velocity: Option<Matrix>,
    momentum: f32,
}

impl Sgd {
    /// Momentum-free SGD.
    pub fn new() -> Self {
        Self { velocity: None, momentum: 0.0 }
    }

    /// SGD with classical momentum `mu` for a `rows × cols` parameter.
    ///
    /// # Panics
    /// Panics unless `0 <= mu < 1`.
    pub fn with_momentum(rows: usize, cols: usize, mu: f32) -> Self {
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0,1), got {mu}");
        Self { velocity: Some(Matrix::zeros(rows, cols)), momentum: mu }
    }

    /// One dense step: `p ← p − lr·(v ← μ·v + g)`.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn step_dense(&mut self, param: &mut Matrix, grad: &Matrix, lr: f32) {
        assert_eq!(param.shape(), grad.shape(), "sgd gradient shape mismatch");
        match &mut self.velocity {
            Some(v) => {
                assert_eq!(v.shape(), param.shape(), "sgd state shape mismatch");
                sgd_momentum_update(
                    param.as_mut_slice(),
                    v.as_mut_slice(),
                    grad.as_slice(),
                    lr,
                    self.momentum,
                );
            }
            None => {
                axpy(-lr, grad.as_slice(), param.as_mut_slice());
            }
        }
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_step_is_axpy() {
        let mut p = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        Sgd::new().step_dense(&mut p, &g, 0.1);
        // FMA dispatch keeps the exact product −0.1·10, so 1 − 1 lands a
        // rounding away from zero — compare within float tolerance.
        for (got, want) in p.as_slice().iter().zip([0.0f32, 3.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = Matrix::zeros(1, 1);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        let mut opt = Sgd::with_momentum(1, 1, 0.9);
        opt.step_dense(&mut p, &g, 1.0); // v=1, p=-1
        opt.step_dense(&mut p, &g, 1.0); // v=1.9, p=-2.9
        assert!((p.get(0, 0) + 2.9).abs() < 1e-6);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut p = Matrix::zeros(1, 1);
        let mut opt = Sgd::with_momentum(1, 1, 0.5);
        for _ in 0..500 {
            let g = Matrix::from_vec(1, 1, vec![2.0 * (p.get(0, 0) - 4.0)]);
            opt.step_dense(&mut p, &g, 0.05);
        }
        assert!((p.get(0, 0) - 4.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_bad_momentum() {
        let _ = Sgd::with_momentum(1, 1, 1.0);
    }
}
