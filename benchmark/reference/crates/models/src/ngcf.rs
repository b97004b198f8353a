//! NGCF (Wang et al., SIGIR'19): nonlinear graph propagation with
//! per-layer weight matrices and the neighbour-interaction Hadamard term.
//!
//! Layer update (Eq. 7 of the NGCF paper, message/node dropout omitted —
//! the paper tunes them off for the BSL experiments):
//!
//! ```text
//! s^k   = Â·e^{k-1}                     (neighbour aggregate)
//! z^k   = (s^k + e^{k-1})·W1_k + (s^k ⊙ e^{k-1})·W2_k
//! e^k   = LeakyReLU(z^k)                (slope 0.2)
//! final = [e^0 ‖ e^1 ‖ … ‖ e^K]         (column concat)
//! ```
//!
//! The backward pass is written out by hand; the finite-difference tests
//! below check every gradient path (base embeddings, `W1`, `W2`).

use crate::backbone::{Backbone, EvalScore, Hyper};
use crate::grad::GradBuffer;
use bsl_data::Dataset;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const LEAKY_SLOPE: f32 = 0.2;

fn leaky(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

fn leaky_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

fn map(m: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = m.clone();
    out.as_mut_slice().iter_mut().for_each(|x| *x = f(*x));
    out
}

fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o *= x;
    }
    out
}

fn added(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = a.clone();
    out.add_assign(b);
    out
}

/// Concatenates matrices column-wise.
fn concat_cols(parts: &[&Matrix]) -> Matrix {
    let rows = parts[0].rows();
    let total: usize = parts.iter().map(|m| m.cols()).sum();
    let mut out = Matrix::zeros(rows, total);
    for r in 0..rows {
        let dst = out.row_mut(r);
        let mut off = 0;
        for m in parts {
            dst[off..off + m.cols()].copy_from_slice(m.row(r));
            off += m.cols();
        }
    }
    out
}

/// Extracts the `k`-th `d`-wide column chunk.
fn col_chunk(m: &Matrix, k: usize, d: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), d);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[k * d..(k + 1) * d]);
    }
    out
}

/// Per-layer forward cache.
struct LayerCache {
    /// Neighbour aggregates `s^k` for both blocks.
    s_u: Matrix,
    s_i: Matrix,
    /// Pre-activations `z^k`.
    z_u: Matrix,
    z_i: Matrix,
}

/// Gradients of all NGCF parameters (test hook return type).
pub struct NgcfGrads {
    /// Gradient w.r.t. the user base embeddings.
    pub user_base: Matrix,
    /// Gradient w.r.t. the item base embeddings.
    pub item_base: Matrix,
    /// Per-layer gradients of `W1`.
    pub w1: Vec<Matrix>,
    /// Per-layer gradients of `W2`.
    pub w2: Vec<Matrix>,
}

/// The NGCF backbone.
pub struct Ngcf {
    user_base: Matrix,
    item_base: Matrix,
    w1: Vec<Matrix>,
    w2: Vec<Matrix>,
    adj: NormAdj,
    layers: usize,
    dim: usize,
    // Forward cache (refreshed by `forward`).
    e_u: Vec<Matrix>,
    e_i: Vec<Matrix>,
    cache: Vec<LayerCache>,
    fin_u: Matrix,
    fin_i: Matrix,
    adam_u: Adam,
    adam_i: Adam,
    adam_w1: Vec<Adam>,
    adam_w2: Vec<Adam>,
}

impl Ngcf {
    /// Builds NGCF on `ds`'s training graph.
    ///
    /// # Panics
    /// Panics if `layers == 0`.
    pub fn new(ds: &Arc<Dataset>, dim: usize, layers: usize, seed: u64) -> Self {
        assert!(layers > 0, "need at least one layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        let w1: Vec<Matrix> =
            (0..layers).map(|_| Matrix::xavier_uniform(dim, dim, &mut rng)).collect();
        let w2: Vec<Matrix> =
            (0..layers).map(|_| Matrix::xavier_uniform(dim, dim, &mut rng)).collect();
        Self {
            user_base: Matrix::xavier_uniform(ds.n_users, dim, &mut rng),
            item_base: Matrix::xavier_uniform(ds.n_items, dim, &mut rng),
            adam_w1: (0..layers).map(|_| Adam::new(dim, dim)).collect(),
            adam_w2: (0..layers).map(|_| Adam::new(dim, dim)).collect(),
            w1,
            w2,
            adj,
            layers,
            dim,
            e_u: Vec::new(),
            e_i: Vec::new(),
            cache: Vec::new(),
            fin_u: Matrix::zeros(ds.n_users, dim * (layers + 1)),
            fin_i: Matrix::zeros(ds.n_items, dim * (layers + 1)),
            adam_u: Adam::new(ds.n_users, dim),
            adam_i: Adam::new(ds.n_items, dim),
        }
    }

    /// Exact gradients of all parameters for the given final-embedding
    /// gradients (valid after [`Backbone::forward`]). Test hook;
    /// [`Backbone::step`] chains this into Adam.
    pub fn backward(&self, grads: &GradBuffer) -> NgcfGrads {
        let d = self.dim;
        // Start from the top layer's chunk.
        let mut g_eu = col_chunk(grads.users(), self.layers, d);
        let mut g_ei = col_chunk(grads.items(), self.layers, d);
        let mut g_w1: Vec<Matrix> = (0..self.layers).map(|_| Matrix::zeros(d, d)).collect();
        let mut g_w2: Vec<Matrix> = (0..self.layers).map(|_| Matrix::zeros(d, d)).collect();

        for k in (0..self.layers).rev() {
            let cache = &self.cache[k];
            let (eu_prev, ei_prev) = (&self.e_u[k], &self.e_i[k]);
            // g_z = g_e ⊙ LeakyReLU'(z)
            let gz_u = hadamard(&g_eu, &map(&cache.z_u, leaky_grad));
            let gz_i = hadamard(&g_ei, &map(&cache.z_i, leaky_grad));
            // Weight gradients accumulate over both blocks.
            let sum_u = added(&cache.s_u, eu_prev);
            let sum_i = added(&cache.s_i, ei_prev);
            let had_u = hadamard(&cache.s_u, eu_prev);
            let had_i = hadamard(&cache.s_i, ei_prev);
            g_w1[k].add_assign(&sum_u.matmul_tn(&gz_u));
            g_w1[k].add_assign(&sum_i.matmul_tn(&gz_i));
            g_w2[k].add_assign(&had_u.matmul_tn(&gz_u));
            g_w2[k].add_assign(&had_i.matmul_tn(&gz_i));
            // Propagate to inputs.
            let w1t = self.w1[k].transpose();
            let w2t = self.w2[k].transpose();
            let p_u = gz_u.matmul(&w1t);
            let p_i = gz_i.matmul(&w1t);
            let q_u = gz_u.matmul(&w2t);
            let q_i = gz_i.matmul(&w2t);
            // g_s = p + q ⊙ e_prev; then its graph-propagated image feeds
            // g_e_prev along with the two direct paths.
            let gs_u = added(&p_u, &hadamard(&q_u, eu_prev));
            let gs_i = added(&p_i, &hadamard(&q_i, ei_prev));
            let (prop_u, prop_i) = self.adj.propagate(&gs_u, &gs_i);
            let mut prev_u = added(&p_u, &hadamard(&q_u, &cache.s_u));
            prev_u.add_assign(&prop_u);
            let mut prev_i = added(&p_i, &hadamard(&q_i, &cache.s_i));
            prev_i.add_assign(&prop_i);
            // Add the concat chunk that feeds e^{k-1} directly.
            prev_u.add_assign(&col_chunk(grads.users(), k, d));
            prev_i.add_assign(&col_chunk(grads.items(), k, d));
            g_eu = prev_u;
            g_ei = prev_i;
        }
        NgcfGrads { user_base: g_eu, item_base: g_ei, w1: g_w1, w2: g_w2 }
    }
}

impl Backbone for Ngcf {
    fn name(&self) -> &'static str {
        "NGCF"
    }

    fn n_users(&self) -> usize {
        self.user_base.rows()
    }

    fn n_items(&self) -> usize {
        self.item_base.rows()
    }

    fn out_dim(&self) -> usize {
        self.dim * (self.layers + 1)
    }

    fn forward(&mut self, _rng: &mut StdRng) {
        self.e_u = vec![self.user_base.clone()];
        self.e_i = vec![self.item_base.clone()];
        self.cache.clear();
        for k in 0..self.layers {
            let (s_u, s_i) = self.adj.propagate(&self.e_u[k], &self.e_i[k]);
            let z_u = {
                let mut z = added(&s_u, &self.e_u[k]).matmul(&self.w1[k]);
                z.add_assign(&hadamard(&s_u, &self.e_u[k]).matmul(&self.w2[k]));
                z
            };
            let z_i = {
                let mut z = added(&s_i, &self.e_i[k]).matmul(&self.w1[k]);
                z.add_assign(&hadamard(&s_i, &self.e_i[k]).matmul(&self.w2[k]));
                z
            };
            self.e_u.push(map(&z_u, leaky));
            self.e_i.push(map(&z_i, leaky));
            self.cache.push(LayerCache { s_u, s_i, z_u, z_i });
        }
        let parts_u: Vec<&Matrix> = self.e_u.iter().collect();
        let parts_i: Vec<&Matrix> = self.e_i.iter().collect();
        self.fin_u = concat_cols(&parts_u);
        self.fin_i = concat_cols(&parts_i);
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
        _batch_users: &[u32],
        _batch_items: &[u32],
        hp: Hyper,
        _rng: &mut StdRng,
    ) -> f64 {
        let mut g = self.backward(grads);
        // L2 on the batch's ego rows of the base tables.
        for &u in grads.touched_users() {
            let r = u as usize;
            bsl_linalg::kernels::axpy(hp.l2, self.user_base.row(r), g.user_base.row_mut(r));
        }
        for &i in grads.touched_items() {
            let r = i as usize;
            bsl_linalg::kernels::axpy(hp.l2, self.item_base.row(r), g.item_base.row_mut(r));
        }
        self.adam_u.step_dense(&mut self.user_base, &g.user_base, hp.lr);
        self.adam_i.step_dense(&mut self.item_base, &g.item_base, hp.lr);
        for k in 0..self.layers {
            self.adam_w1[k].step_dense(&mut self.w1[k], &g.w1[k], hp.lr);
            self.adam_w2[k].step_dense(&mut self.w2[k], &g.w2[k], hp.lr);
        }
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

    fn setup() -> (Arc<Dataset>, Ngcf, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = Ngcf::new(&ds, 5, 2, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    /// Shared FD harness: objective = <C, final user row 4> + <C', final
    /// item row 2> with fixed coefficient vectors.
    fn fd_objective(m: &mut Ngcf, rng: &mut StdRng) -> f64 {
        m.forward(rng);
        let mut l = 0.0f64;
        for (j, &x) in m.user_factors().row(4).iter().enumerate() {
            l += (0.1 * (j as f32 + 1.0) * x) as f64;
        }
        for (j, &x) in m.item_factors().row(2).iter().enumerate() {
            l += (-0.07 * (j as f32 + 1.0) * x) as f64;
        }
        l
    }

    fn fd_gradbuffer(ds: &Arc<Dataset>, out_dim: usize) -> GradBuffer {
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, out_dim);
        for (j, g) in grads.user_row_mut(4).iter_mut().enumerate() {
            *g = 0.1 * (j as f32 + 1.0);
        }
        for (j, g) in grads.item_row_mut(2).iter_mut().enumerate() {
            *g = -0.07 * (j as f32 + 1.0);
        }
        grads
    }

    #[test]
    fn base_gradients_match_finite_difference() {
        let (ds, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let grads = fd_gradbuffer(&ds, m.out_dim());
        let g = m.backward(&grads);
        let h = 5e-3f32;
        for (r, c) in [(4usize, 0usize), (0, 2), (17, 4)] {
            let orig = m.user_base.get(r, c);
            m.user_base.set(r, c, orig + h);
            let up = fd_objective(&mut m, &mut rng);
            m.user_base.set(r, c, orig - h);
            let down = fd_objective(&mut m, &mut rng);
            m.user_base.set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = g.user_base.get(r, c) as f64;
            assert!(
                (ana - num).abs() < 3e-2 * (1.0 + num.abs()),
                "user base ({r},{c}): analytic {ana} vs numeric {num}"
            );
        }
        for (r, c) in [(2usize, 1usize), (9, 3)] {
            let orig = m.item_base.get(r, c);
            m.item_base.set(r, c, orig + h);
            let up = fd_objective(&mut m, &mut rng);
            m.item_base.set(r, c, orig - h);
            let down = fd_objective(&mut m, &mut rng);
            m.item_base.set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = g.item_base.get(r, c) as f64;
            assert!(
                (ana - num).abs() < 3e-2 * (1.0 + num.abs()),
                "item base ({r},{c}): analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let (ds, mut m, mut rng) = setup();
        m.forward(&mut rng);
        let grads = fd_gradbuffer(&ds, m.out_dim());
        let g = m.backward(&grads);
        let h = 5e-3f32;
        for (layer, r, c) in [(0usize, 0usize, 0usize), (1, 2, 3), (0, 4, 1)] {
            let orig = m.w1[layer].get(r, c);
            m.w1[layer].set(r, c, orig + h);
            let up = fd_objective(&mut m, &mut rng);
            m.w1[layer].set(r, c, orig - h);
            let down = fd_objective(&mut m, &mut rng);
            m.w1[layer].set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = g.w1[layer].get(r, c) as f64;
            assert!(
                (ana - num).abs() < 3e-2 * (1.0 + num.abs()),
                "W1[{layer}] ({r},{c}): analytic {ana} vs numeric {num}"
            );
            let orig = m.w2[layer].get(r, c);
            m.w2[layer].set(r, c, orig + h);
            let up = fd_objective(&mut m, &mut rng);
            m.w2[layer].set(r, c, orig - h);
            let down = fd_objective(&mut m, &mut rng);
            m.w2[layer].set(r, c, orig);
            let num = (up - down) / (2.0 * h as f64);
            let ana = g.w2[layer].get(r, c) as f64;
            assert!(
                (ana - num).abs() < 3e-2 * (1.0 + num.abs()),
                "W2[{layer}] ({r},{c}): analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn out_dim_is_concat_of_layers() {
        let (_, m, _) = setup();
        assert_eq!(m.out_dim(), 5 * 3);
    }

    #[test]
    fn concat_and_chunk_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| 10.0 + (r * 3 + c) as f32);
        let cat = concat_cols(&[&a, &b]);
        assert_eq!(cat.cols(), 6);
        assert_eq!(cat.row(1), &[3.0, 4.0, 5.0, 13.0, 14.0, 15.0]);
        assert_eq!(col_chunk(&cat, 0, 3), a);
        assert_eq!(col_chunk(&cat, 1, 3), b);
    }

    #[test]
    fn step_descends_linear_objective() {
        let (ds, mut m, mut rng) = setup();
        let before = fd_objective(&mut m, &mut rng);
        for _ in 0..10 {
            m.forward(&mut rng);
            let grads = fd_gradbuffer(&ds, m.out_dim());
            m.step(&grads, &[4], &[2], Hyper { lr: 0.02, l2: 0.0 }, &mut rng);
        }
        let after = fd_objective(&mut m, &mut rng);
        assert!(after < before, "{after} vs {before}");
    }
}
