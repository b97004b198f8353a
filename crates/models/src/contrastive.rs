//! The contrastive GCNs: LightGCN plus a self-supervised InfoNCE
//! auxiliary between two views of the nodes, one type for three models.
//!
//! * SGL (Wu et al., SIGIR'21) contrasts two *edge-dropout* views: each
//!   forward resamples two subgraphs (edges kept with probability
//!   `1 − dropout`, re-normalized) and propagates the base embeddings
//!   through both.
//! * SimGCL (Yu et al., SIGIR'22 — the paper's "SimSGL") contrasts two
//!   *noise* views: each propagates through the full graph and adds a
//!   random signed perturbation of magnitude `eps` after every hop.
//! * LightGCL-lite (Cai et al., ICLR'23) contrasts the main view with an
//!   *SVD* view: one hop through a low-rank reconstruction
//!   `R̂ ≈ U·S·Vᵀ` of the normalized user–item block, computed once with
//!   the workspace's randomized SVD (itself validated against dense
//!   reference SVDs). The paper's LightGCL propagates the reconstruction
//!   over every layer; README's "Reproducing the paper's figures and
//!   tables" lists this single-hop substitution.
//!
//! The main graph is a [`LightGcn`], whose forward, kept hop buffers and
//! base-gradient pair the views reuse. Each step adds `ssl_reg ·` InfoNCE
//! gradients, computed on a capped subset of the batch's nodes, through
//! the view's backward: every view map is linear in the base embeddings
//! (the noise and the dropped graphs are constants), so its exact
//! backward is its transpose.

use crate::backbone::{Backbone, BackboneConfig, EvalScore, Hyper};
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use crate::propagation::{dedup_cap, info_nce_grad, InfoNceScratch, Propagator};
use bsl_data::Dataset;
use bsl_linalg::kernels::normalize_into;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::svd::randomized_svd;
use bsl_linalg::Matrix;
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Maximum nodes per side used by the InfoNCE auxiliary per step.
const AUX_NODE_CAP: usize = 128;

/// How the contrasted views are made.
pub(crate) enum View {
    /// SGL: two edge-dropout graphs, redrawn by every forward (none
    /// before the first).
    EdgeDropout { dropout: f32, graphs: Vec<Propagator> },
    /// SimGCL: two noise-perturbed propagations of the full graph.
    Noise { eps: f32 },
    /// LightGCL: the main finals against `U·S·Vᵀ` applied to the base.
    Svd {
        /// `U·diag(s)` (users × rank) of the normalized user–item block.
        us: Matrix,
        /// `V` (items × rank).
        v: Matrix,
    },
}

/// SGL, SimGCL or LightGCL: a [`LightGcn`] and an InfoNCE auxiliary
/// between two views.
pub(crate) struct Contrastive {
    pub(crate) lgn: LightGcn,
    pub(crate) view: View,
    ssl_reg: f32,
    ssl_tau: f32,
    /// `[users, items]` finals of the two views, overwritten by every
    /// forward. LightGCL's first view is the main finals, so its
    /// `views[0]` holds no rows.
    pub(crate) views: [[Matrix; 2]; 2],
    /// InfoNCE gradients w.r.t. `views`. A step fills the capped rows,
    /// propagates them and zeroes those rows again.
    grads: [[Matrix; 2]; 2],
    /// One view's propagated gradients, before they join the main pair.
    back: [Matrix; 2],
    /// A step's capped `[users, items]`, deduplicated through `seen`
    /// (all `false` between steps, one flag per user or item).
    nodes: [Vec<u32>; 2],
    seen: Vec<bool>,
    /// InfoNCE's gathers, norms and similarities.
    scratch: InfoNceScratch,
    /// Whether a forward has drawn the views (a step before one adds no
    /// auxiliary).
    drawn: bool,
}

impl Contrastive {
    /// Builds the contrastive backbone `cfg` names on `ds`'s training
    /// graph. LightGCL draws its SVD from the seed's stream before the
    /// two Xavier tables.
    ///
    /// # Panics
    /// Panics if `cfg` is not SGL, SimGCL or LightGCL, and unless
    /// `ssl_reg >= 0`, `ssl_tau > 0` and `0 <= dropout < 1`, `eps >= 0`
    /// or `rank > 0`.
    pub(crate) fn new(cfg: BackboneConfig, ds: &Arc<Dataset>, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        let (layers, view, ssl_reg, ssl_tau) = match cfg {
            BackboneConfig::Sgl { layers, dropout, ssl_reg, ssl_tau } => {
                assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1), got {dropout}");
                (layers, View::EdgeDropout { dropout, graphs: Vec::new() }, ssl_reg, ssl_tau)
            }
            BackboneConfig::SimGcl { layers, eps, ssl_reg, ssl_tau } => {
                assert!(eps >= 0.0, "eps must be non-negative");
                (layers, View::Noise { eps }, ssl_reg, ssl_tau)
            }
            BackboneConfig::LightGcl { layers, rank, ssl_reg, ssl_tau } => {
                assert!(rank > 0, "SVD rank must be positive");
                let svd = randomized_svd(&adj.user_item, rank, 4, 8, &mut rng);
                // Fold the singular values into U once: view hops become
                // two dense (thin) matmuls.
                let us =
                    Matrix::from_fn(svd.u.rows(), svd.s.len(), |r, c| svd.u.get(r, c) * svd.s[c]);
                (layers, View::Svd { us, v: svd.v }, ssl_reg, ssl_tau)
            }
            other => panic!("{} is not a contrastive backbone", other.label()),
        };
        assert!(ssl_reg >= 0.0, "ssl_reg must be non-negative");
        assert!(ssl_tau > 0.0, "ssl_tau must be positive");
        let pair = || [Matrix::zeros(ds.n_users, dim), Matrix::zeros(ds.n_items, dim)];
        let first = match view {
            View::Svd { .. } => [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
            _ => pair(),
        };
        Self {
            lgn: LightGcn::on_graph(Propagator::new(adj, layers), dim, &mut rng),
            view,
            ssl_reg,
            ssl_tau,
            views: [first, pair()],
            grads: [pair(), pair()],
            back: pair(),
            nodes: [Vec::with_capacity(AUX_NODE_CAP), Vec::with_capacity(AUX_NODE_CAP)],
            seen: vec![false; ds.n_users.max(ds.n_items)],
            scratch: InfoNceScratch::default(),
            drawn: false,
        }
    }

    /// InfoNCE between the two views on the first [`AUX_NODE_CAP`]
    /// distinct batch users, then items, its gradients added into the
    /// main base-gradient pair through each view's backward. Returns the
    /// weighted loss.
    fn info_nce_step(&mut self, users: &[u32], items: &[u32], pool: Option<&WorkerPool>) -> f64 {
        let (tau, weight) = (self.ssl_tau, self.ssl_reg);
        let Self {
            lgn,
            view,
            views: [z1, z2],
            grads: [g1, g2],
            back: [bu, bi],
            nodes,
            seen,
            scratch,
            ..
        } = self;
        let z1 = match view {
            View::Svd { .. } => [&lgn.fin_u, &lgn.fin_i],
            _ => [&z1[0], &z1[1]],
        };
        let mut aux = 0.0f64;
        for (side, batch) in [users, items].into_iter().enumerate() {
            dedup_cap(batch, AUX_NODE_CAP, seen, &mut nodes[side]);
            if !nodes[side].is_empty() {
                let (g1, g2) = (&mut g1[side], &mut g2[side]);
                let (z1, z2, nodes) = (z1[side], &z2[side], &nodes[side]);
                aux += info_nce_grad(z1, z2, nodes, tau, weight, g1, g2, scratch);
            }
        }
        let LightGcn { prop, hops, grad_u, grad_i, .. } = lgn;
        let mut add_through = |graph: &Propagator, [gu, gi]: &[Matrix; 2]| {
            graph.forward_into(gu, gi, hops, bu, bi, pool);
            grad_u.add_assign(bu);
            grad_i.add_assign(bi);
        };
        match view {
            View::EdgeDropout { graphs, .. } => {
                add_through(&graphs[0], g1);
                add_through(&graphs[1], g2);
            }
            View::Noise { .. } => {
                // Both views propagate through the full graph, so their
                // gradients propagate once, summed.
                g1[0].add_assign(&g2[0]);
                g1[1].add_assign(&g2[1]);
                add_through(prop, g1);
            }
            View::Svd { us, v } => {
                add_through(prop, g1);
                let [su, si] = svd_view(us, v, &g2[0], &g2[1]);
                grad_u.add_assign(&su);
                grad_i.add_assign(&si);
            }
        }
        for [gu, gi] in [g1, g2] {
            nodes[0].iter().for_each(|&u| gu.row_mut(u as usize).fill(0.0));
            nodes[1].iter().for_each(|&i| gi.row_mut(i as usize).fill(0.0));
        }
        aux
    }
}

/// Adds `eps · sign(e) ⊙ û` rowwise, with `û` a fresh random unit
/// direction per row (the SimGCL perturbation).
pub(crate) fn perturb(m: &mut Matrix, eps: f32, rng: &mut StdRng) {
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

/// One SimGCL view into `out`: the layer mean of the base and `K` hops of
/// the full graph, each hop perturbed before the next one reads it.
fn noise_view(lgn: &LightGcn, eps: f32, rng: &mut StdRng, [out_u, out_i]: &mut [Matrix; 2]) {
    out_u.clone_from(&lgn.user_base);
    out_i.clone_from(&lgn.item_base);
    let mut hop: Option<(Matrix, Matrix)> = None;
    for _ in 0..lgn.prop.layers() {
        let (src_u, src_i) = hop.as_ref().map_or((&lgn.user_base, &lgn.item_base), |(u, i)| (u, i));
        let (mut nu, mut ni) = lgn.prop.adj().propagate(src_u, src_i);
        perturb(&mut nu, eps, rng);
        perturb(&mut ni, eps, rng);
        out_u.add_assign(&nu);
        out_i.add_assign(&ni);
        hop = Some((nu, ni));
    }
    let coef = 1.0 / (lgn.prop.layers() + 1) as f32;
    out_u.scale(coef);
    out_i.scale(coef);
}

/// LightGCL's view of `[u; i]`: `[U·S·Vᵀ·i, V·S·Uᵀ·u]`. The map is
/// symmetric, so it is also its own backward: view gradients `[g_u; g_i]`
/// reach the base as `[U·S·Vᵀ·g_i, V·S·Uᵀ·g_u]`.
pub(crate) fn svd_view(us: &Matrix, v: &Matrix, u: &Matrix, i: &Matrix) -> [Matrix; 2] {
    [us.matmul(&v.matmul_tn(i)), v.matmul(&us.matmul_tn(u))]
}

impl Backbone for Contrastive {
    fn name(&self) -> &'static str {
        match self.view {
            View::EdgeDropout { .. } => "SGL",
            View::Noise { .. } => "SimGCL",
            View::Svd { .. } => "LightGCL",
        }
    }

    fn n_users(&self) -> usize {
        self.lgn.n_users()
    }

    fn n_items(&self) -> usize {
        self.lgn.n_items()
    }

    fn out_dim(&self) -> usize {
        self.lgn.out_dim()
    }

    fn forward(&mut self, rng: &mut StdRng) {
        self.forward_on(rng, None);
    }

    fn forward_on(&mut self, rng: &mut StdRng, pool: Option<&WorkerPool>) {
        self.lgn.forward_on(rng, pool);
        let (lgn, [z1, z2]) = (&mut self.lgn, &mut self.views);
        match &mut self.view {
            View::EdgeDropout { dropout, graphs } => {
                graphs.clear();
                for [zu, zi] in [z1, z2] {
                    let dropped = lgn.prop.adj().edge_dropout(*dropout, rng);
                    let graph = Propagator::new(dropped, lgn.prop.layers());
                    graph.forward_into(&lgn.user_base, &lgn.item_base, &mut lgn.hops, zu, zi, pool);
                    graphs.push(graph);
                }
            }
            View::Noise { eps } => {
                noise_view(lgn, *eps, rng, z1);
                noise_view(lgn, *eps, rng, z2);
            }
            View::Svd { us, v } => *z2 = svd_view(us, v, &lgn.user_base, &lgn.item_base),
        }
        self.drawn = true;
    }

    fn user_factors(&self) -> &Matrix {
        self.lgn.user_factors()
    }

    fn item_factors(&self) -> &Matrix {
        self.lgn.item_factors()
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
        self.lgn.propagate_grads(grads, pool);
        let aux = if self.ssl_reg > 0.0 && self.drawn {
            self.info_nce_step(batch_users, batch_items, pool)
        } else {
            0.0
        };
        self.lgn.apply_grads(grads, hp, pool);
        aux
    }

    fn eval_score(&self) -> EvalScore {
        EvalScore::Dot
    }
}
