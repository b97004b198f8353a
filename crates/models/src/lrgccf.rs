//! LR-GCCF (Chen et al., AAAI'20): GCN-based CF with the non-linearities
//! removed and residual connections added, which the paper lists among the
//! Table-II baselines. Propagation:
//!
//! ```text
//! e^k = Â·e^{k-1} + e^{k-1},    final = (1/(K+1)) Σ_k e^k
//! ```
//!
//! The operator `(Â+I)` is symmetric, so — exactly as for LightGCN — the
//! backward pass is the forward map applied to the output gradient.

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use bsl_data::Dataset;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Linear residual graph CF.
pub struct LrGccf {
    user_base: Matrix,
    item_base: Matrix,
    adj: NormAdj,
    layers: usize,
    fin_u: Matrix,
    fin_i: Matrix,
    adam_u: Adam,
    adam_i: Adam,
}

impl LrGccf {
    /// Builds LR-GCCF on `ds`'s training graph.
    ///
    /// # Panics
    /// Panics if `layers == 0`.
    pub fn new(ds: &Arc<Dataset>, dim: usize, layers: usize, seed: u64) -> Self {
        assert!(layers > 0, "need at least one layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        Self {
            user_base: Matrix::xavier_uniform(ds.n_users, dim, &mut rng),
            item_base: Matrix::xavier_uniform(ds.n_items, dim, &mut rng),
            adj,
            layers,
            fin_u: Matrix::zeros(ds.n_users, dim),
            fin_i: Matrix::zeros(ds.n_items, dim),
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
        }
    }

    /// `final = (1/(K+1)) Σ_k (Â+I)^k x` — symmetric, hence also the
    /// backward map.
    fn residual_mean(&self, u0: &Matrix, i0: &Matrix) -> (Matrix, Matrix) {
        let coef = 1.0 / (self.layers + 1) as f32;
        let mut cur_u = u0.clone();
        let mut cur_i = i0.clone();
        let mut out_u = u0.clone();
        let mut out_i = i0.clone();
        for _ in 0..self.layers {
            let (pu, pi) = self.adj.propagate(&cur_u, &cur_i);
            cur_u.add_assign(&pu); // residual: e ← Âe + e
            cur_i.add_assign(&pi);
            out_u.add_assign(&cur_u);
            out_i.add_assign(&cur_i);
        }
        out_u.scale(coef);
        out_i.scale(coef);
        (out_u, out_i)
    }

    /// Exact base-embedding gradients (test hook).
    pub fn backward_base(&self, grads: &GradBuffer) -> (Matrix, Matrix) {
        self.residual_mean(grads.users(), grads.items())
    }
}

impl Backbone for LrGccf {
    fn name(&self) -> &'static str {
        "LR-GCCF"
    }

    fn n_users(&self) -> usize {
        self.user_base.rows()
    }

    fn n_items(&self) -> usize {
        self.item_base.rows()
    }

    fn out_dim(&self) -> usize {
        self.user_base.cols()
    }

    fn forward(&mut self, _rng: &mut StdRng) {
        let (u, i) = self.residual_mean(&self.user_base, &self.item_base);
        self.fin_u = u;
        self.fin_i = i;
    }

    fn user_factors(&self) -> &Matrix {
        &self.fin_u
    }

    fn item_factors(&self) -> &Matrix {
        &self.fin_i
    }

    fn step(
        &mut self,
        grads: &GradBuffer,
        batch_users: &[u32],
        batch_items: &[u32],
        hp: Hyper,
        rng: &mut StdRng,
    ) -> f64 {
        self.step_on(grads, batch_users, batch_items, hp, rng, None)
    }

    fn step_on(
        &mut self,
        grads: &GradBuffer,
        _batch_users: &[u32],
        _batch_items: &[u32],
        hp: Hyper,
        _rng: &mut StdRng,
        pool: Option<&WorkerPool>,
    ) -> f64 {
        let (mut gu, mut gi) = self.backward_base(grads);
        LightGcn::apply_base_update(
            &mut self.user_base,
            &mut self.item_base,
            &mut self.adam_u,
            &mut self.adam_i,
            &mut gu,
            &mut gi,
            grads,
            hp,
            pool,
        );
        0.0
    }

    fn eval_score(&self) -> EvalScore {
        EvalScore::Dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};

    #[test]
    fn residual_amplifies_relative_to_lightgcn_mean() {
        // With residual connections, e^k ≥ contributions of plain Â^k; on
        // an all-ones embedding over a connected graph the residual mean
        // has strictly larger norm than the base.
        let ds = Arc::new(generate(&SynthConfig::tiny(3)));
        let mut m = LrGccf::new(&ds, 4, 2, 1);
        for x in m.user_base.as_mut_slice().iter_mut() {
            *x = 1.0;
        }
        for x in m.item_base.as_mut_slice().iter_mut() {
            *x = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(0);
        m.forward(&mut rng);
        assert!(m.user_factors().frob_norm() > m.user_base.frob_norm());
    }

    /// Self-adjointness of the residual-mean operator: the backward pass
    /// is exact iff `<F(x), y> = <x, F(y)>`.
    #[test]
    fn residual_mean_is_self_adjoint() {
        let ds = Arc::new(generate(&SynthConfig::tiny(5)));
        let m = LrGccf::new(&ds, 5, 3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let xu = Matrix::gaussian(ds.n_users, 5, 1.0, &mut rng);
        let xi = Matrix::gaussian(ds.n_items, 5, 1.0, &mut rng);
        let yu = Matrix::gaussian(ds.n_users, 5, 1.0, &mut rng);
        let yi = Matrix::gaussian(ds.n_items, 5, 1.0, &mut rng);
        let (fxu, fxi) = m.residual_mean(&xu, &xi);
        let (fyu, fyi) = m.residual_mean(&yu, &yi);
        let inner = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        let lhs = inner(&fxu, &yu) + inner(&fxi, &yi);
        let rhs = inner(&xu, &fyu) + inner(&xi, &fyi);
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn step_descends_linear_objective() {
        let ds = Arc::new(generate(&SynthConfig::tiny(7)));
        let mut m = LrGccf::new(&ds, 4, 2, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let c = [1.0f32, -1.0, 0.5, -0.5];
        let l = |m: &mut LrGccf, rng: &mut StdRng| -> f64 {
            m.forward(rng);
            bsl_linalg::kernels::dot(m.item_factors().row(2), &c) as f64
        };
        let before = l(&mut m, &mut rng);
        for _ in 0..15 {
            m.forward(&mut rng);
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 4);
            grads.item_row_mut(2).copy_from_slice(&c);
            m.step(&grads, &[], &[2], Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        assert!(l(&mut m, &mut rng) < before);
    }
}
