//! LightGCL-lite (Cai et al., ICLR'23): LightGCN plus an InfoNCE auxiliary
//! against an *SVD-reconstructed* graph view.
//!
//! The paper's LightGCL contrasts node embeddings propagated through the
//! observed graph with embeddings propagated through a low-rank
//! reconstruction `R̂ ≈ U·S·Vᵀ` of the normalized adjacency. We compute the
//! truncated factorization with the workspace's randomized SVD (itself
//! validated against dense reference SVDs) and keep a single SVD hop —
//! DESIGN.md documents this "lite" substitution.

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use crate::propagation::{dedup_cap, info_nce_grad, Propagator};
use bsl_data::Dataset;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::svd::randomized_svd;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::sgl::AUX_NODE_CAP;

/// LightGCL-lite backbone.
pub struct LightGcl {
    user_base: Matrix,
    item_base: Matrix,
    prop: Propagator,
    /// `U·diag(s)` (users × rank) of the normalized user–item block.
    us: Matrix,
    /// `V` (items × rank).
    v: Matrix,
    fin_u: Matrix,
    fin_i: Matrix,
    /// SVD-view finals, refreshed per forward.
    svd_u: Matrix,
    svd_i: Matrix,
    ssl_reg: f32,
    ssl_tau: f32,
    adam_u: Adam,
    adam_i: Adam,
}

impl LightGcl {
    /// Builds LightGCL-lite on `ds`'s training graph with an SVD view of
    /// rank `rank`.
    ///
    /// # Panics
    /// Panics unless `rank > 0`, `ssl_reg >= 0` and `ssl_tau > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Arc<Dataset>,
        dim: usize,
        layers: usize,
        rank: usize,
        ssl_reg: f32,
        ssl_tau: f32,
        seed: u64,
    ) -> Self {
        assert!(rank > 0, "SVD rank must be positive");
        assert!(ssl_reg >= 0.0, "ssl_reg must be non-negative");
        assert!(ssl_tau > 0.0, "ssl_tau must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        let svd = randomized_svd(&adj.user_item, rank, 4, 8, &mut rng);
        // Fold the singular values into U once: view hops become two dense
        // (thin) matmuls.
        let mut us = svd.u.clone();
        for r in 0..us.rows() {
            for (c, &sv) in svd.s.iter().enumerate() {
                us.set(r, c, us.get(r, c) * sv);
            }
        }
        Self {
            user_base: Matrix::xavier_uniform(ds.n_users, dim, &mut rng),
            item_base: Matrix::xavier_uniform(ds.n_items, dim, &mut rng),
            prop: Propagator::new(adj, layers),
            us,
            v: svd.v,
            fin_u: Matrix::zeros(ds.n_users, dim),
            fin_i: Matrix::zeros(ds.n_items, dim),
            svd_u: Matrix::zeros(ds.n_users, dim),
            svd_i: Matrix::zeros(ds.n_items, dim),
            ssl_reg,
            ssl_tau,
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
        }
    }

    /// SVD-view forward: `u_view = U·S·Vᵀ·item_base`,
    /// `i_view = V·S·Uᵀ·user_base`.
    fn svd_view(&self) -> (Matrix, Matrix) {
        let u_view = self.us.matmul(&self.v.matmul_tn(&self.item_base));
        let i_view = self.v.matmul(&self.us.matmul_tn(&self.user_base));
        (u_view, i_view)
    }

    /// Backward of [`Self::svd_view`]: the maps are linear, so
    /// `g_item += V·S·Uᵀ·g_u_view` and `g_user += U·S·Vᵀ·g_i_view`.
    fn svd_view_backward(&self, g_u_view: &Matrix, g_i_view: &Matrix) -> (Matrix, Matrix) {
        let g_user = self.us.matmul(&self.v.matmul_tn(g_i_view));
        let g_item = self.v.matmul(&self.us.matmul_tn(g_u_view));
        (g_user, g_item)
    }
}

impl Backbone for LightGcl {
    fn name(&self) -> &'static str {
        "LightGCL"
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

    fn forward(&mut self, rng: &mut StdRng) {
        self.forward_on(rng, None);
    }

    fn forward_on(&mut self, _rng: &mut StdRng, pool: Option<&WorkerPool>) {
        let (u, i) = self.prop.forward(&self.user_base, &self.item_base, pool);
        self.fin_u = u;
        self.fin_i = i;
        let (su, si) = self.svd_view();
        self.svd_u = su;
        self.svd_i = si;
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
        batch_users: &[u32],
        batch_items: &[u32],
        hp: Hyper,
        _rng: &mut StdRng,
        pool: Option<&WorkerPool>,
    ) -> f64 {
        let (mut gu, mut gi) = self.prop.backward(grads.users(), grads.items(), pool);
        let mut aux = 0.0f64;
        if self.ssl_reg > 0.0 {
            let (nu, d) = (self.user_base.rows(), self.user_base.cols());
            let ni = self.item_base.rows();
            // Main view vs SVD view.
            let mut g_main_u = Matrix::zeros(nu, d);
            let mut g_svd_u = Matrix::zeros(nu, d);
            let mut g_main_i = Matrix::zeros(ni, d);
            let mut g_svd_i = Matrix::zeros(ni, d);
            let users = dedup_cap(batch_users, AUX_NODE_CAP);
            if !users.is_empty() {
                aux += info_nce_grad(
                    &self.fin_u,
                    &self.svd_u,
                    &users,
                    self.ssl_tau,
                    self.ssl_reg,
                    &mut g_main_u,
                    &mut g_svd_u,
                );
            }
            let items = dedup_cap(batch_items, AUX_NODE_CAP);
            if !items.is_empty() {
                aux += info_nce_grad(
                    &self.fin_i,
                    &self.svd_i,
                    &items,
                    self.ssl_tau,
                    self.ssl_reg,
                    &mut g_main_i,
                    &mut g_svd_i,
                );
            }
            // Main-view gradients flow through the graph propagation…
            let (bu, bi) = self.prop.backward(&g_main_u, &g_main_i, pool);
            gu.add_assign(&bu);
            gi.add_assign(&bi);
            // …SVD-view gradients through the low-rank reconstruction.
            let (bu, bi) = self.svd_view_backward(&g_svd_u, &g_svd_i);
            gu.add_assign(&bu);
            gi.add_assign(&bi);
        }
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
        aux
    }

    fn eval_score(&self) -> EvalScore {
        EvalScore::Dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};

    fn setup() -> (Arc<Dataset>, LightGcl, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = LightGcl::new(&ds, 6, 2, 4, 0.5, 0.2, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    /// The SVD view maps are adjoint: `<svd_view(x), y> = <x, backward(y)>`
    /// with the pairing taken per block.
    #[test]
    fn svd_view_backward_is_adjoint() {
        let (ds, mut m, mut rng) = setup();
        let inner = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        let yu = Matrix::gaussian(ds.n_users, 6, 1.0, &mut rng);
        let yi = Matrix::gaussian(ds.n_items, 6, 1.0, &mut rng);
        let (vu, vi) = m.svd_view();
        let (gu, gi) = m.svd_view_backward(&yu, &yi);
        // <u_view, yu> + <i_view, yi> must equal <user_base, g_user> +
        // <item_base, g_item>.
        let lhs = inner(&vu, &yu) + inner(&vi, &yi);
        let rhs = inner(&m.user_base, &gu) + inner(&m.item_base, &gi);
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
        m.forward(&mut rng);
    }

    #[test]
    fn svd_view_fidelity_grows_with_rank() {
        // The low-rank view approximates one propagation hop R̂·item_base;
        // the approximation must be positively correlated and sharpen as
        // the rank grows.
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let corr_at = |rank: usize| -> f64 {
            let mut m = LightGcl::new(&ds, 6, 2, rank, 0.5, 0.2, 3);
            let mut rng = StdRng::seed_from_u64(0);
            m.forward(&mut rng);
            let hop = m.prop.adj().user_item.spmm(&m.item_base);
            let mut num = 0.0f64;
            let mut na = 0.0f64;
            let mut nb = 0.0f64;
            for (&a, &b) in m.svd_u.as_slice().iter().zip(hop.as_slice()) {
                num += a as f64 * b as f64;
                na += (a as f64).powi(2);
                nb += (b as f64).powi(2);
            }
            num / (na.sqrt() * nb.sqrt()).max(1e-12)
        };
        let low = corr_at(4);
        let high = corr_at(24);
        assert!(low > 0.3, "rank-4 view uncorrelated with one-hop: {low}");
        assert!(high > low, "fidelity did not grow with rank: {low} vs {high}");
        assert!(high > 0.9, "rank-24 view should be near-exact: {high}");
    }

    #[test]
    fn step_returns_positive_aux_and_stays_finite() {
        let (ds, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 6);
        grads.user_row_mut(0)[0] = 0.4;
        let aux = m.step(&grads, &[0, 5, 9], &[2, 4], Hyper { lr: 0.01, l2: 1e-4 }, &mut rng);
        assert!(aux > 0.0 && aux.is_finite());
        assert!(m.user_base.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aux_only_training_reduces_contrastive_loss() {
        let (ds, mut m, mut rng) = setup();
        let empty = GradBuffer::new(ds.n_users, ds.n_items, 6);
        let users: Vec<u32> = (0..16).collect();
        let items: Vec<u32> = (0..16).collect();
        m.forward(&mut rng);
        let first = m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        for _ in 0..25 {
            m.forward(&mut rng);
            m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        m.forward(&mut rng);
        let last = m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        assert!(last < first, "aux loss did not improve: {first} -> {last}");
    }
}
