//! Matrix factorization — the simplest backbone (Koren et al.), and the
//! body of CML when configured with unit-ball projection and distance
//! scores.

use crate::backbone::{Backbone, EvalScore, Hyper, TrainScore};
use crate::grad::GradBuffer;
use bsl_data::Dataset;
use bsl_linalg::kernels::norm;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Matrix factorization: final embeddings *are* the parameters, so the
/// backward pass is the identity and updates touch only the batch's rows
/// (lazy Adam).
pub struct Mf {
    user_emb: Matrix,
    item_emb: Matrix,
    adam_u: Adam,
    adam_i: Adam,
    /// CML mode: squared-distance scores + unit-ball projection.
    cml: bool,
    /// One gradient row plus its L2 term, reused by every step.
    row_buf: Vec<f32>,
}

impl Mf {
    /// Xavier-initialized MF with embedding size `dim`.
    pub fn new(ds: &Arc<Dataset>, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            user_emb: Matrix::xavier_uniform(ds.n_users, dim, &mut rng),
            item_emb: Matrix::xavier_uniform(ds.n_items, dim, &mut rng),
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
            cml: false,
            row_buf: vec![0.0; dim],
        }
    }

    /// CML (Hsieh et al., WWW'17): the same factorization body, but scores
    /// are negated squared Euclidean distances and embeddings are projected
    /// back into the unit ball after every step.
    pub fn new_cml(ds: &Arc<Dataset>, dim: usize, seed: u64) -> Self {
        let mut mf = Self::new(ds, dim, seed);
        mf.cml = true;
        mf
    }

    fn project_unit_ball(m: &mut Matrix, rows: &[u32]) {
        for &r in rows {
            let row = m.row_mut(r as usize);
            let n = norm(row);
            if n > 1.0 {
                let inv = 1.0 / n;
                for x in row.iter_mut() {
                    *x *= inv;
                }
            }
        }
    }
}

impl Backbone for Mf {
    fn name(&self) -> &'static str {
        if self.cml {
            "CML"
        } else {
            "MF"
        }
    }

    fn n_users(&self) -> usize {
        self.user_emb.rows()
    }

    fn n_items(&self) -> usize {
        self.item_emb.rows()
    }

    fn out_dim(&self) -> usize {
        self.user_emb.cols()
    }

    fn forward(&mut self, _rng: &mut StdRng) {
        // Final embeddings are the parameters; nothing to recompute.
    }

    fn user_factors(&self) -> &Matrix {
        &self.user_emb
    }

    fn item_factors(&self) -> &Matrix {
        &self.item_emb
    }

    fn step(
        &mut self,
        grads: &GradBuffer,
        _batch_users: &[u32],
        _batch_items: &[u32],
        hp: Hyper,
        _rng: &mut StdRng,
    ) -> f64 {
        self.adam_u.begin_step();
        let row_buf = &mut self.row_buf[..];
        for &u in grads.touched_users() {
            let ui = u as usize;
            row_buf.copy_from_slice(grads.users().row(ui));
            // Coupled L2 on the touched row.
            bsl_linalg::kernels::axpy(hp.l2, self.user_emb.row(ui), row_buf);
            self.adam_u.update_row(self.user_emb.row_mut(ui), ui, row_buf, hp.lr);
        }
        self.adam_i.begin_step();
        for &i in grads.touched_items() {
            let ii = i as usize;
            row_buf.copy_from_slice(grads.items().row(ii));
            bsl_linalg::kernels::axpy(hp.l2, self.item_emb.row(ii), row_buf);
            self.adam_i.update_row(self.item_emb.row_mut(ii), ii, row_buf, hp.lr);
        }
        if self.cml {
            Self::project_unit_ball(&mut self.user_emb, grads.touched_users());
            Self::project_unit_ball(&mut self.item_emb, grads.touched_items());
        }
        0.0
    }

    fn train_score(&self) -> TrainScore {
        if self.cml {
            TrainScore::NegSqDist
        } else {
            TrainScore::Cosine
        }
    }

    fn eval_score(&self) -> EvalScore {
        if self.cml {
            EvalScore::NegSqDist
        } else {
            EvalScore::Cosine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};

    fn setup() -> (Arc<Dataset>, Mf, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let mf = Mf::new(&ds, 8, 3);
        (ds, mf, StdRng::seed_from_u64(0))
    }

    #[test]
    fn step_moves_only_touched_rows() {
        let (ds, mut mf, mut rng) = setup();
        let before_u = mf.user_emb.clone();
        let before_i = mf.item_emb.clone();
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 8);
        grads.user_row_mut(2).iter_mut().for_each(|g| *g = 0.5);
        grads.item_row_mut(7).iter_mut().for_each(|g| *g = -0.5);
        mf.forward(&mut rng);
        mf.step(&grads, &[2], &[7], Hyper { lr: 0.01, l2: 0.0 }, &mut rng);
        assert_ne!(mf.user_emb.row(2), before_u.row(2));
        assert_ne!(mf.item_emb.row(7), before_i.row(7));
        assert_eq!(mf.user_emb.row(0), before_u.row(0));
        assert_eq!(mf.item_emb.row(0), before_i.row(0));
    }

    #[test]
    fn l2_shrinks_parameters_without_gradient_signal() {
        let (ds, mut mf, mut rng) = setup();
        // Touch a row with zero task gradient but non-zero L2.
        let norm_before = norm(mf.user_emb.row(1));
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 8);
        let _ = grads.user_row_mut(1); // mark touched, leave zero
        for _ in 0..50 {
            mf.step(&grads, &[1], &[], Hyper { lr: 0.01, l2: 1.0 }, &mut rng);
        }
        assert!(norm(mf.user_emb.row(1)) < norm_before);
    }

    #[test]
    fn cml_projects_into_unit_ball() {
        let ds = Arc::new(generate(&SynthConfig::tiny(2)));
        let mut cml = Mf::new_cml(&ds, 8, 3);
        let mut rng = StdRng::seed_from_u64(1);
        // Blow a row up past the ball, then take a step touching it.
        for x in cml.user_emb.row_mut(0) {
            *x = 10.0;
        }
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 8);
        let _ = grads.user_row_mut(0);
        cml.step(&grads, &[0], &[], Hyper { lr: 1e-6, l2: 0.0 }, &mut rng);
        assert!(norm(cml.user_emb.row(0)) <= 1.0 + 1e-5);
        assert_eq!(cml.name(), "CML");
        assert_eq!(cml.eval_score(), EvalScore::NegSqDist);
        assert_eq!(cml.train_score(), TrainScore::NegSqDist);
    }

    #[test]
    fn identity_backward_descends_a_linear_objective() {
        // L = <c, user_emb[0]>; grad on final = c; repeated steps must
        // decrease L — MF's backward pass is the identity, so this checks
        // the full step plumbing.
        let (ds, mut mf, mut rng) = setup();
        let c: Vec<f32> = (0..8).map(|k| if k % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let l = |m: &Mf| bsl_linalg::kernels::dot(m.user_emb.row(0), &c) as f64;
        let before = l(&mf);
        for _ in 0..20 {
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 8);
            grads.user_row_mut(0).copy_from_slice(&c);
            mf.step(&grads, &[0], &[], Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        assert!(l(&mf) < before, "{} vs {before}", l(&mf));
    }
}
