//! SimGCL (Yu et al., SIGIR'22 — the paper's "SimSGL"): graph augmentation
//! replaced by *uniform noise in embedding space*. Each contrastive view
//! propagates through the full graph but adds a random signed perturbation
//! of magnitude `eps` after every hop. The noise is constant w.r.t. the
//! parameters, so each view's exact backward pass is plain propagation.

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use crate::propagation::{dedup_cap, info_nce_grad, Propagator};
use bsl_data::Dataset;
use bsl_linalg::kernels::normalize_into;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::sgl::AUX_NODE_CAP;

/// SimGCL backbone.
pub struct SimGcl {
    user_base: Matrix,
    item_base: Matrix,
    prop: Propagator,
    fin_u: Matrix,
    fin_i: Matrix,
    /// Noise-view finals (two views), refreshed per forward.
    views: Option<[(Matrix, Matrix); 2]>,
    eps: f32,
    ssl_reg: f32,
    ssl_tau: f32,
    adam_u: Adam,
    adam_i: Adam,
}

impl SimGcl {
    /// Builds SimGCL on `ds`'s training graph.
    ///
    /// # Panics
    /// Panics unless `eps >= 0`, `ssl_reg >= 0` and `ssl_tau > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Arc<Dataset>,
        dim: usize,
        layers: usize,
        eps: f32,
        ssl_reg: f32,
        ssl_tau: f32,
        seed: u64,
    ) -> Self {
        assert!(eps >= 0.0, "eps must be non-negative");
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
            eps,
            ssl_reg,
            ssl_tau,
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
        }
    }

    /// Adds `eps · sign(e) ⊙ û` rowwise, with `û` a fresh random unit
    /// direction per row (the SimGCL perturbation).
    fn perturb(m: &mut Matrix, eps: f32, rng: &mut StdRng) {
        let d = m.cols();
        let mut noise = vec![0.0f32; d];
        let mut unit = vec![0.0f32; d];
        for r in 0..m.rows() {
            for n in noise.iter_mut() {
                *n = rng.gen_range(0.0..1.0);
            }
            normalize_into(&noise, &mut unit);
            let row = m.row_mut(r);
            for (x, &u) in row.iter_mut().zip(unit.iter()) {
                *x += eps * u * x.signum();
            }
        }
    }

    /// One noise view: layer-mean propagation with per-hop perturbation.
    fn noise_view(&self, rng: &mut StdRng) -> (Matrix, Matrix) {
        let k = self.prop.layers();
        let coef = 1.0 / (k + 1) as f32;
        let mut cur_u = self.user_base.clone();
        let mut cur_i = self.item_base.clone();
        let mut out_u = cur_u.clone();
        let mut out_i = cur_i.clone();
        for _ in 0..k {
            let (mut nu, mut ni) = self.prop.hop(&cur_u, &cur_i);
            Self::perturb(&mut nu, self.eps, rng);
            Self::perturb(&mut ni, self.eps, rng);
            cur_u = nu;
            cur_i = ni;
            out_u.add_assign(&cur_u);
            out_i.add_assign(&cur_i);
        }
        out_u.scale(coef);
        out_i.scale(coef);
        (out_u, out_i)
    }
}

impl Backbone for SimGcl {
    fn name(&self) -> &'static str {
        "SimGCL"
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
        self.views = Some([self.noise_view(rng), self.noise_view(rng)]);
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
            if let Some([(v1u, v1i), (v2u, v2i)]) = &self.views {
                let (nu, d) = (self.user_base.rows(), self.user_base.cols());
                let ni = self.item_base.rows();
                let mut g1u = Matrix::zeros(nu, d);
                let mut g2u = Matrix::zeros(nu, d);
                let mut g1i = Matrix::zeros(ni, d);
                let mut g2i = Matrix::zeros(ni, d);
                let users = dedup_cap(batch_users, AUX_NODE_CAP);
                if !users.is_empty() {
                    aux += info_nce_grad(
                        v1u,
                        v2u,
                        &users,
                        self.ssl_tau,
                        self.ssl_reg,
                        &mut g1u,
                        &mut g2u,
                    );
                }
                let items = dedup_cap(batch_items, AUX_NODE_CAP);
                if !items.is_empty() {
                    aux += info_nce_grad(
                        v1i,
                        v2i,
                        &items,
                        self.ssl_tau,
                        self.ssl_reg,
                        &mut g1i,
                        &mut g2i,
                    );
                }
                // Both noise views share the full-graph propagation; the
                // noise is constant, so backward is plain propagation of
                // the summed view gradients.
                g1u.add_assign(&g2u);
                g1i.add_assign(&g2i);
                let (bu, bi) = self.prop.backward(&g1u, &g1i, pool);
                gu.add_assign(&bu);
                gi.add_assign(&bi);
            }
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

    fn setup() -> (Arc<Dataset>, SimGcl, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = SimGcl::new(&ds, 6, 2, 0.1, 0.5, 0.2, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    #[test]
    fn perturbation_has_bounded_magnitude() {
        let mut m = Matrix::from_fn(10, 4, |r, c| ((r + c) as f32 - 5.0) * 0.3);
        let before = m.clone();
        let mut rng = StdRng::seed_from_u64(1);
        SimGcl::perturb(&mut m, 0.1, &mut rng);
        let mut max_shift = 0.0f32;
        for (a, b) in m.as_slice().iter().zip(before.as_slice()) {
            max_shift = max_shift.max((a - b).abs());
        }
        assert!(max_shift > 0.0, "perturbation did nothing");
        assert!(max_shift <= 0.1 + 1e-6, "row-unit noise exceeds eps: {max_shift}");
    }

    #[test]
    fn views_differ_from_main_and_each_other() {
        let (_, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let [(v1u, _), (v2u, _)] = m.views.as_ref().expect("views exist");
        let diff_main: f64 = v1u
            .as_slice()
            .iter()
            .zip(m.fin_u.as_slice())
            .map(|(&a, &b)| (a - b).abs() as f64)
            .sum();
        let diff_views: f64 =
            v1u.as_slice().iter().zip(v2u.as_slice()).map(|(&a, &b)| (a - b).abs() as f64).sum();
        assert!(diff_main > 1e-3);
        assert!(diff_views > 1e-3);
    }

    #[test]
    fn zero_eps_views_coincide_with_main() {
        let ds = Arc::new(generate(&SynthConfig::tiny(2)));
        let mut m = SimGcl::new(&ds, 4, 2, 0.0, 0.5, 0.2, 5);
        let mut rng = StdRng::seed_from_u64(2);
        m.forward(&mut rng);
        let [(v1u, _), _] = m.views.as_ref().expect("views exist");
        for (a, b) in v1u.as_slice().iter().zip(m.fin_u.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn step_returns_positive_aux_and_stays_finite() {
        let (ds, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 6);
        grads.user_row_mut(1)[2] = 0.7;
        let aux = m.step(&grads, &[1, 2], &[3, 4], Hyper { lr: 0.01, l2: 1e-4 }, &mut rng);
        assert!(aux > 0.0 && aux.is_finite());
        assert!(m.user_base.as_slice().iter().all(|v| v.is_finite()));
    }
}
