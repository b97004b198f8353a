//! LightGCN (He et al., SIGIR'20): K-layer linear propagation over the
//! normalized bipartite graph with layer-mean readout, and LR-GCCF (Chen
//! et al., AAAI'20), the same model on a residual propagation: its
//! non-linearities removed and each layer `e^k = Â·e^{k-1} + e^{k-1}`.

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::propagation::{Hops, Propagator};
use bsl_data::Dataset;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// LightGCN backbone (or LR-GCCF, see [`LightGcn::lr_gccf`]). Because the
/// propagation operator is linear and symmetric, the exact parameter
/// gradient is the propagated final-embedding gradient — no stored
/// activations needed.
///
/// The hop buffers and the base-gradient pair live as long as the model,
/// so a warm [`Backbone::forward`] or [`Backbone::step`] allocates nothing
/// (nor do their `_on` forms on a one-lane pool; a round on more lanes
/// allocates its job list). The contrastive backbones (`contrastive.rs`)
/// hold one as their main graph and run their views on the same buffers.
pub struct LightGcn {
    pub(crate) user_base: Matrix,
    pub(crate) item_base: Matrix,
    pub(crate) prop: Propagator,
    pub(crate) hops: Hops,
    pub(crate) fin_u: Matrix,
    pub(crate) fin_i: Matrix,
    pub(crate) grad_u: Matrix,
    pub(crate) grad_i: Matrix,
    adam_u: Adam,
    adam_i: Adam,
}

impl LightGcn {
    /// Builds LightGCN on `ds`'s training graph.
    pub fn new(ds: &Arc<Dataset>, dim: usize, layers: usize, seed: u64) -> Self {
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        Self::on_graph(Propagator::new(adj, layers), dim, &mut StdRng::seed_from_u64(seed))
    }

    /// Builds LR-GCCF on `ds`'s training graph: this model on
    /// [`Propagator::residual`], with the same seed stream as
    /// [`Self::new`].
    pub fn lr_gccf(ds: &Arc<Dataset>, dim: usize, layers: usize, seed: u64) -> Self {
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        Self::on_graph(Propagator::residual(adj, layers), dim, &mut StdRng::seed_from_u64(seed))
    }

    /// The model on `prop`, its Xavier tables drawn from `rng`, users first.
    pub(crate) fn on_graph(prop: Propagator, dim: usize, rng: &mut StdRng) -> Self {
        let (n_users, n_items) = (prop.adj().n_users(), prop.adj().n_items());
        Self {
            user_base: Matrix::xavier_uniform(n_users, dim, rng),
            item_base: Matrix::xavier_uniform(n_items, dim, rng),
            hops: prop.hops(dim),
            prop,
            fin_u: Matrix::zeros(n_users, dim),
            fin_i: Matrix::zeros(n_items, dim),
            grad_u: Matrix::zeros(n_users, dim),
            grad_i: Matrix::zeros(n_items, dim),
            adam_u: Adam::new(n_users, dim),
            adam_i: Adam::new(n_items, dim),
        }
    }

    /// The base-gradient pair `grad_u`/`grad_i` from `grads`: the
    /// operator is symmetric, so the backward is the forward map.
    pub(crate) fn propagate_grads(&mut self, grads: &GradBuffer, pool: Option<&WorkerPool>) {
        let (gu, gi) = (grads.users(), grads.items());
        self.prop.forward_into(gu, gi, &mut self.hops, &mut self.grad_u, &mut self.grad_i, pool);
    }

    /// The update from the base-gradient pair: L2 on touched rows (added
    /// into `grad_u`/`grad_i`), then dense Adam on both embedding tables
    /// (split over `pool`'s lanes, with the same bits).
    pub(crate) fn apply_grads(&mut self, grads: &GradBuffer, hp: Hyper, pool: Option<&WorkerPool>) {
        // Coupled L2 on the batch's ego rows (the standard minibatch
        // regularizer) — gradient rows elsewhere come only from propagation.
        for &u in grads.touched_users() {
            let r = u as usize;
            bsl_linalg::kernels::axpy(hp.l2, self.user_base.row(r), self.grad_u.row_mut(r));
        }
        for &i in grads.touched_items() {
            let r = i as usize;
            bsl_linalg::kernels::axpy(hp.l2, self.item_base.row(r), self.grad_i.row_mut(r));
        }
        self.adam_u.step_dense_on(&mut self.user_base, &self.grad_u, hp.lr, pool);
        self.adam_i.step_dense_on(&mut self.item_base, &self.grad_i, hp.lr, pool);
    }
}

impl Backbone for LightGcn {
    fn name(&self) -> &'static str {
        if self.prop.is_residual() {
            "LR-GCCF"
        } else {
            "LGN"
        }
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
        self.prop.forward_into(
            &self.user_base,
            &self.item_base,
            &mut self.hops,
            &mut self.fin_u,
            &mut self.fin_i,
            pool,
        );
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
        self.propagate_grads(grads, pool);
        self.apply_grads(grads, hp, pool);
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

    fn setup() -> (Arc<Dataset>, LightGcn, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let lgn = LightGcn::new(&ds, 6, 2, 3);
        (ds, lgn, StdRng::seed_from_u64(0))
    }

    /// End-to-end finite-difference check: L = <C, final embeddings> is
    /// linear, so ∂L/∂base must equal the propagated C exactly.
    #[test]
    fn base_gradient_matches_finite_difference() {
        let (ds, mut lgn, mut rng) = setup();
        // Random linear objective over a handful of final rows.
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 6);
        let coeffs: [(u32, f32); 3] = [(0, 0.7), (5, -1.1), (11, 0.4)];
        for &(u, c) in &coeffs {
            grads.user_row_mut(u).iter_mut().for_each(|g| *g = c);
        }
        grads.item_row_mut(3).iter_mut().for_each(|g| *g = 0.9);

        let objective = |m: &mut LightGcn, rng: &mut StdRng| -> f64 {
            m.forward(rng);
            let mut l = 0.0f64;
            for &(u, c) in &coeffs {
                l += m.user_factors().row(u as usize).iter().map(|&x| (c * x) as f64).sum::<f64>();
            }
            l += m.item_factors().row(3).iter().map(|&x| (0.9 * x) as f64).sum::<f64>();
            l
        };

        let (gu, gi) = {
            lgn.forward(&mut rng);
            lgn.prop.forward(grads.users(), grads.items(), None)
        };
        let h = 1e-2f32;
        for (r, c) in [(0usize, 0usize), (7, 3), (31, 5)] {
            let orig = lgn.user_base.get(r, c);
            lgn.user_base.set(r, c, orig + h);
            let up = objective(&mut lgn, &mut rng);
            lgn.user_base.set(r, c, orig - h);
            let down = objective(&mut lgn, &mut rng);
            lgn.user_base.set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = gu.get(r, c) as f64;
            assert!((ana - num).abs() < 1e-3 * (1.0 + num.abs()), "user ({r},{c}): {ana} vs {num}");
        }
        for (r, c) in [(3usize, 1usize), (20, 0)] {
            let orig = lgn.item_base.get(r, c);
            lgn.item_base.set(r, c, orig + h);
            let up = objective(&mut lgn, &mut rng);
            lgn.item_base.set(r, c, orig - h);
            let down = objective(&mut lgn, &mut rng);
            lgn.item_base.set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = gi.get(r, c) as f64;
            assert!((ana - num).abs() < 1e-3 * (1.0 + num.abs()), "item ({r},{c}): {ana} vs {num}");
        }
    }

    #[test]
    fn forward_mixes_neighbourhood_information() {
        let (_ds, mut lgn, mut rng) = setup();
        lgn.forward(&mut rng);
        // Final embeddings must differ from the base (propagation did
        // something) but stay finite.
        assert!(lgn.user_factors().as_slice().iter().all(|v| v.is_finite()));
        let diff: f64 = lgn
            .user_factors()
            .as_slice()
            .iter()
            .zip(lgn.user_base.as_slice())
            .map(|(&a, &b)| (a - b).abs() as f64)
            .sum();
        assert!(diff > 1e-3, "propagation changed nothing");
    }

    #[test]
    fn step_descends_linear_objective() {
        let (ds, mut lgn, mut rng) = setup();
        let c: Vec<f32> = (0..6).map(|k| if k % 2 == 0 { 1.0 } else { -0.5 }).collect();
        let l = |m: &mut LightGcn, rng: &mut StdRng| -> f64 {
            m.forward(rng);
            bsl_linalg::kernels::dot(m.user_factors().row(4), &c) as f64
        };
        let before = l(&mut lgn, &mut rng);
        for _ in 0..15 {
            lgn.forward(&mut rng);
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 6);
            grads.user_row_mut(4).copy_from_slice(&c);
            lgn.step(&grads, &[4], &[], Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        let after = l(&mut lgn, &mut rng);
        assert!(after < before, "{after} vs {before}");
    }
}
