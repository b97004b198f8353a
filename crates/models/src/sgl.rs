//! SGL (Wu et al., SIGIR'21): LightGCN plus a self-supervised InfoNCE
//! auxiliary between two *edge-dropout* views of the graph.
//!
//! Each forward pass resamples two subgraphs (edges kept with probability
//! `1 − dropout`, re-normalized) and propagates the shared base embeddings
//! through both. The step adds `ssl_reg ·` InfoNCE gradients (computed on a
//! bounded subset of the batch's nodes) backpropagated through each view's
//! own propagation — which is linear, so its exact backward is the same
//! operator.

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use crate::propagation::{dedup_cap, info_nce_grad, Propagator};
use bsl_data::Dataset;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Maximum nodes per side used by the InfoNCE auxiliary per step.
pub(crate) const AUX_NODE_CAP: usize = 128;

/// One propagated contrastive view.
pub(crate) struct View {
    pub prop: Propagator,
    pub fin_u: Matrix,
    pub fin_i: Matrix,
}

/// SGL backbone.
pub struct Sgl {
    user_base: Matrix,
    item_base: Matrix,
    prop: Propagator,
    fin_u: Matrix,
    fin_i: Matrix,
    views: Option<(View, View)>,
    dropout: f32,
    ssl_reg: f32,
    ssl_tau: f32,
    adam_u: Adam,
    adam_i: Adam,
}

impl Sgl {
    /// Builds SGL on `ds`'s training graph.
    ///
    /// # Panics
    /// Panics unless `0 <= dropout < 1`, `ssl_reg >= 0` and `ssl_tau > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Arc<Dataset>,
        dim: usize,
        layers: usize,
        dropout: f32,
        ssl_reg: f32,
        ssl_tau: f32,
        seed: u64,
    ) -> Self {
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1), got {dropout}");
        assert!(ssl_reg >= 0.0, "ssl_reg must be non-negative");
        assert!(ssl_tau > 0.0, "ssl_tau must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        Self {
            user_base: Matrix::xavier_uniform(ds.n_users, dim, &mut rng),
            item_base: Matrix::xavier_uniform(ds.n_items, dim, &mut rng),
            prop: Propagator::new(adj, layers),
            fin_u: Matrix::zeros(ds.n_users, dim),
            fin_i: Matrix::zeros(ds.n_items, dim),
            views: None,
            dropout,
            ssl_reg,
            ssl_tau,
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
        }
    }

    fn make_view(&self, rng: &mut StdRng, pool: Option<&WorkerPool>) -> View {
        let dropped = self.prop.adj().edge_dropout(self.dropout, rng);
        let prop = Propagator::new(dropped, self.prop.layers());
        let (fin_u, fin_i) = prop.forward(&self.user_base, &self.item_base, pool);
        View { prop, fin_u, fin_i }
    }
}

/// Shared auxiliary step for the two-view contrastive models: computes the
/// InfoNCE loss/gradients on capped batch nodes, backpropagates each view's
/// gradients through its own propagator, and accumulates into `(gu, gi)`.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the math's natural arity
pub(crate) fn two_view_aux_step(
    v1: &View,
    v2: &View,
    batch_users: &[u32],
    batch_items: &[u32],
    ssl_reg: f32,
    ssl_tau: f32,
    gu: &mut Matrix,
    gi: &mut Matrix,
    pool: Option<&WorkerPool>,
) -> f64 {
    if ssl_reg == 0.0 {
        return 0.0;
    }
    let (nu, d) = v1.fin_u.shape();
    let ni = v1.fin_i.rows();
    let mut g1u = Matrix::zeros(nu, d);
    let mut g2u = Matrix::zeros(nu, d);
    let mut g1i = Matrix::zeros(ni, d);
    let mut g2i = Matrix::zeros(ni, d);
    let mut aux = 0.0f64;
    let users = dedup_cap(batch_users, AUX_NODE_CAP);
    if !users.is_empty() {
        aux += info_nce_grad(&v1.fin_u, &v2.fin_u, &users, ssl_tau, ssl_reg, &mut g1u, &mut g2u);
    }
    let items = dedup_cap(batch_items, AUX_NODE_CAP);
    if !items.is_empty() {
        aux += info_nce_grad(&v1.fin_i, &v2.fin_i, &items, ssl_tau, ssl_reg, &mut g1i, &mut g2i);
    }
    let (bu, bi) = v1.prop.backward(&g1u, &g1i, pool);
    gu.add_assign(&bu);
    gi.add_assign(&bi);
    let (bu, bi) = v2.prop.backward(&g2u, &g2i, pool);
    gu.add_assign(&bu);
    gi.add_assign(&bi);
    aux
}

impl Backbone for Sgl {
    fn name(&self) -> &'static str {
        "SGL"
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

    fn forward_on(&mut self, rng: &mut StdRng, pool: Option<&WorkerPool>) {
        let (u, i) = self.prop.forward(&self.user_base, &self.item_base, pool);
        self.fin_u = u;
        self.fin_i = i;
        self.views = Some((self.make_view(rng, pool), self.make_view(rng, pool)));
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
        let aux = match &self.views {
            Some((v1, v2)) => two_view_aux_step(
                v1,
                v2,
                batch_users,
                batch_items,
                self.ssl_reg,
                self.ssl_tau,
                &mut gu,
                &mut gi,
                pool,
            ),
            None => 0.0,
        };
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

    fn setup() -> (Arc<Dataset>, Sgl, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = Sgl::new(&ds, 6, 2, 0.2, 0.5, 0.2, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    #[test]
    fn forward_creates_fresh_views() {
        let (_, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let v1_edges = m.views.as_ref().map(|(a, _)| a.prop.adj().user_item.nnz());
        m.forward(&mut rng);
        let v1_edges_again = m.views.as_ref().map(|(a, _)| a.prop.adj().user_item.nnz());
        // Edge dropout resamples; with 20% dropout two draws almost surely
        // keep different edge counts or at least different graphs.
        let full = m.prop.adj().user_item.nnz();
        assert!(v1_edges.expect("views exist") < full);
        let _ = v1_edges_again;
    }

    #[test]
    fn aux_loss_reported_and_finite() {
        let (ds, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 6);
        grads.user_row_mut(0)[0] = 1.0;
        grads.item_row_mut(0)[0] = -1.0;
        let aux = m.step(&grads, &[0, 1, 2], &[0, 1], Hyper { lr: 0.01, l2: 1e-4 }, &mut rng);
        assert!(aux.is_finite());
        assert!(aux > 0.0, "InfoNCE between distinct dropout views should be positive");
        assert!(m.user_base.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ssl_training_aligns_views() {
        // Repeated aux-only steps should reduce the contrastive loss.
        let (ds, mut m, mut rng) = setup();
        let empty = GradBuffer::new(ds.n_users, ds.n_items, 6);
        let users: Vec<u32> = (0..20).collect();
        let items: Vec<u32> = (0..20).collect();
        m.forward(&mut rng);
        let first = m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        for _ in 0..30 {
            m.forward(&mut rng);
            m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        m.forward(&mut rng);
        let last = m.step(&empty, &users, &items, Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        assert!(last < first, "aux loss did not improve: {first} -> {last}");
    }

    #[test]
    fn zero_ssl_reg_matches_lightgcn_gradients() {
        let ds = Arc::new(generate(&SynthConfig::tiny(2)));
        let mut sgl = Sgl::new(&ds, 4, 2, 0.2, 0.0, 0.2, 7);
        let mut lgn = crate::lightgcn::LightGcn::new(&ds, 4, 2, 7);
        let mut rng = StdRng::seed_from_u64(1);
        sgl.forward(&mut rng);
        lgn.forward(&mut rng);
        // Same seed → same init; same grads → same update when ssl_reg = 0.
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 4);
        grads.user_row_mut(3).iter_mut().for_each(|g| *g = 0.3);
        let hp = Hyper { lr: 0.01, l2: 0.0 };
        let aux = sgl.step(&grads, &[3], &[], hp, &mut rng);
        lgn.step(&grads, &[3], &[], hp, &mut rng);
        assert_eq!(aux, 0.0);
        for (a, b) in sgl.user_base.as_slice().iter().zip(lgn.user_factors().as_slice()) {
            // Compare base tables: forward caches differ, so look at raw
            // parameters via factors after a fresh forward.
            let _ = (a, b);
        }
        sgl.forward(&mut rng);
        lgn.forward(&mut rng);
        for (a, b) in sgl.user_factors().as_slice().iter().zip(lgn.user_factors().as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
