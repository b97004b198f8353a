//! Shared graph-propagation machinery for the GCN family.
//!
//! LightGCN's layer-mean propagation is a *symmetric* linear operator on
//! the stacked embedding vector, so its exact backward pass is the operator
//! itself — the backbones propagate gradients with [`Propagator::forward_into`],
//! and the `adjointness` test below verifies `<F(x), y> = <x, F(y)>`
//! numerically.

use bsl_linalg::kernels::{axpy, scale};
use bsl_linalg::pool::{Job, WorkerPool};
use bsl_linalg::simd::scores_block;
use bsl_linalg::stats::softmax_into;
use bsl_linalg::Matrix;
use bsl_sparse::NormAdj;
use std::ops::Range;

/// K-layer LightGCN propagation with layer-mean readout.
#[derive(Clone, Debug)]
pub struct Propagator {
    adj: NormAdj,
    layers: usize,
}

impl Propagator {
    /// Wraps a normalized adjacency with a layer count.
    ///
    /// # Panics
    /// Panics if `layers == 0` (use the embeddings directly then).
    pub fn new(adj: NormAdj, layers: usize) -> Self {
        assert!(layers > 0, "propagation needs at least one layer");
        Self { adj, layers }
    }

    /// Number of propagation layers `K`.
    #[inline]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The underlying normalized adjacency.
    #[inline]
    pub fn adj(&self) -> &NormAdj {
        &self.adj
    }

    /// One propagation hop `Â·[u; i]`.
    pub fn hop(&self, u: &Matrix, i: &Matrix) -> (Matrix, Matrix) {
        self.adj.propagate(u, i)
    }

    /// Hop buffers for [`Self::forward_into`] over embeddings `dim` wide.
    pub fn hops(&self, dim: usize) -> Hops {
        let (n_users, n_items) = (self.adj.n_users(), self.adj.n_items());
        Hops {
            users: [Matrix::zeros(n_users, dim), Matrix::zeros(n_users, dim)],
            items: [Matrix::zeros(n_items, dim), Matrix::zeros(n_items, dim)],
        }
    }

    /// Full forward: `final = (1/(K+1)) Σ_{k=0..K} Â^k [u0; i0]`, each hop
    /// split over `pool`'s lanes (see [`Self::forward_into`]); the same
    /// bits at any lane count.
    pub fn forward(&self, u0: &Matrix, i0: &Matrix, pool: Option<&WorkerPool>) -> (Matrix, Matrix) {
        let mut hops = self.hops(u0.cols());
        let mut out_u = Matrix::zeros(u0.rows(), u0.cols());
        let mut out_i = Matrix::zeros(i0.rows(), i0.cols());
        self.forward_into(u0, i0, &mut hops, &mut out_u, &mut out_i, pool);
        (out_u, out_i)
    }

    /// [`Self::forward`] into existing buffers: `out_u`/`out_i` are
    /// overwritten with the layer mean, and the hops ping-pong between the
    /// two pairs of `hops`, so a warm call allocates nothing (without a
    /// pool or on a one-lane one). Whatever the buffers held is never read.
    ///
    /// Every element sees the fresh-buffer operations in their order: copy
    /// `[u0; i0]`, add each hop, then scale by `1/(K+1)`. With a pool of
    /// `n > 1` lanes each hop is one round: lane `k` owns a contiguous run
    /// of rows of *both* blocks, cut by [`Csr::balanced_row_cut`], and
    /// fills those rows of the next hop (each row one `gather_sum` chain),
    /// then adds them into the output rows. The first hop's lanes also copy
    /// their rows of `[u0; i0]` in and the last hop's scale theirs, so the
    /// bits do not depend on the split.
    ///
    /// [`Csr::balanced_row_cut`]: bsl_sparse::Csr::balanced_row_cut
    ///
    /// # Panics
    /// Panics if a shape disagrees with the graph or with `u0`/`i0`.
    pub fn forward_into(
        &self,
        u0: &Matrix,
        i0: &Matrix,
        hops: &mut Hops,
        out_u: &mut Matrix,
        out_i: &mut Matrix,
        pool: Option<&WorkerPool>,
    ) {
        assert_eq!(out_u.shape(), u0.shape(), "forward_into user output shape mismatch");
        assert_eq!(out_i.shape(), i0.shape(), "forward_into item output shape mismatch");
        let coef = 1.0 / (self.layers + 1) as f32;
        let ([u_a, u_b], [i_a, i_b]) = (&mut hops.users, &mut hops.items);
        for k in 0..self.layers {
            // Hop k writes pair k % 2 and reads the other (or the input).
            let ((next_u, next_i), prev) = if k % 2 == 0 {
                ((&mut *u_a, &mut *i_a), (&*u_b, &*i_b))
            } else {
                ((&mut *u_b, &mut *i_b), (&*u_a, &*i_a))
            };
            let hop = Hop {
                adj: &self.adj,
                src: if k == 0 { (u0, i0) } else { prev },
                init: (k == 0).then_some((u0, i0)),
                coef: (k + 1 == self.layers).then_some(coef),
            };
            hop.run(pool, next_u, next_i, out_u, out_i);
        }
    }
}

/// One hop of [`Propagator::forward_into`]: `Â · src` into the next hop
/// buffers, added into the output, with the input copied in first on the
/// first hop and the mean's scale applied on the last.
struct Hop<'a> {
    adj: &'a NormAdj,
    /// The previous hop's users and items (the input on the first hop).
    src: (&'a Matrix, &'a Matrix),
    /// `[u0; i0]`, copied into the output before the first hop's add.
    init: Option<(&'a Matrix, &'a Matrix)>,
    /// `1/(K+1)`, applied after the last hop's add.
    coef: Option<f32>,
}

impl Hop<'_> {
    /// Runs the hop inline over every row, or as one pool round of one job
    /// per lane over its cut of both blocks.
    fn run(
        &self,
        pool: Option<&WorkerPool>,
        next_u: &mut Matrix,
        next_i: &mut Matrix,
        out_u: &mut Matrix,
        out_i: &mut Matrix,
    ) {
        let (nu, ni) = (out_u.rows(), out_i.rows());
        let (du, di) = (out_u.cols(), out_i.cols());
        let (mut next_u, mut next_i) = (next_u.as_mut_slice(), next_i.as_mut_slice());
        let (mut out_u, mut out_i) = (out_u.as_mut_slice(), out_i.as_mut_slice());
        let Some(pool) = pool.filter(|p| p.n_workers() > 1) else {
            return self.rows(0..nu, 0..ni, next_u, next_i, out_u, out_i);
        };
        let n = pool.n_workers();
        let (ui, iu) = (&self.adj.user_item, &self.adj.item_user);
        let mut jobs: Vec<Job> = Vec::with_capacity(n);
        let (mut u_lo, mut i_lo) = (0, 0);
        for lane in 1..=n {
            let (u_hi, i_hi) = (ui.balanced_row_cut(lane, n), iu.balanced_row_cut(lane, n));
            let (nu_k, ni_k, ou_k, oi_k);
            (nu_k, next_u) = std::mem::take(&mut next_u).split_at_mut((u_hi - u_lo) * du);
            (ni_k, next_i) = std::mem::take(&mut next_i).split_at_mut((i_hi - i_lo) * di);
            (ou_k, out_u) = std::mem::take(&mut out_u).split_at_mut((u_hi - u_lo) * du);
            (oi_k, out_i) = std::mem::take(&mut out_i).split_at_mut((i_hi - i_lo) * di);
            let (ur, ir) = (u_lo..u_hi, i_lo..i_hi);
            jobs.push(Box::new(move || self.rows(ur, ir, nu_k, ni_k, ou_k, oi_k)));
            (u_lo, i_lo) = (u_hi, i_hi);
        }
        pool.run(jobs);
    }

    /// The hop over user rows `ur` and item rows `ir`; the slices hold
    /// exactly those rows of the next hop and of the output.
    fn rows(
        &self,
        ur: Range<usize>,
        ir: Range<usize>,
        next_u: &mut [f32],
        next_i: &mut [f32],
        out_u: &mut [f32],
        out_i: &mut [f32],
    ) {
        let (src_u, src_i) = self.src;
        let init_u = self.init.map(|(u0, _)| rows_of(u0, &ur));
        let init_i = self.init.map(|(_, i0)| rows_of(i0, &ir));
        self.adj.user_item.spmm_rows_into(src_i, ur, next_u);
        self.adj.item_user.spmm_rows_into(src_u, ir, next_i);
        self.accumulate(out_u, next_u, init_u);
        self.accumulate(out_i, next_i, init_i);
    }

    /// `out (= init) += hop (*= coef)` for one block's rows.
    fn accumulate(&self, out: &mut [f32], hop: &[f32], init: Option<&[f32]>) {
        if let Some(init) = init {
            out.copy_from_slice(init);
        }
        axpy(1.0, hop, out);
        if let Some(coef) = self.coef {
            scale(coef, out);
        }
    }
}

/// Rows `r` of `m`, flattened.
fn rows_of<'m>(m: &'m Matrix, r: &Range<usize>) -> &'m [f32] {
    &m.as_slice()[r.start * m.cols()..r.end * m.cols()]
}

/// The two user/item buffer pairs [`Propagator::forward_into`] alternates
/// its hops between, sized by [`Propagator::hops`] and kept by the caller
/// across calls.
#[derive(Clone, Debug)]
pub struct Hops {
    users: [Matrix; 2],
    items: [Matrix; 2],
}

/// In-batch InfoNCE between two embedding views, restricted to `nodes`
/// (row indices into both views).
///
/// ```text
/// L = −(1/B) Σ_a [ s_aa/τ − log Σ_b exp(s_ab/τ) ],   s_ab = cos(z1_a, z2_b)
/// ```
///
/// Gradients w.r.t. the *raw* (unnormalized) view rows are **accumulated**
/// into `g1`/`g2` scaled by `weight`. Returns the loss value (times
/// `weight`).
///
/// Cost is `O(B²·d)` — callers subsample `nodes` (SGL caps the auxiliary
/// batch) to keep this tractable.
///
/// # Panics
/// Panics if `tau <= 0`, `nodes` is empty, or shapes disagree.
pub fn info_nce_grad(
    z1: &Matrix,
    z2: &Matrix,
    nodes: &[u32],
    tau: f32,
    weight: f32,
    g1: &mut Matrix,
    g2: &mut Matrix,
) -> f64 {
    assert!(tau > 0.0, "temperature must be positive, got {tau}");
    assert!(!nodes.is_empty(), "empty node set");
    assert_eq!(z1.shape(), z2.shape(), "view shape mismatch");
    assert_eq!(z1.shape(), g1.shape(), "gradient shape mismatch");
    assert_eq!(z2.shape(), g2.shape(), "gradient shape mismatch");
    let b = nodes.len();
    let d = z1.cols();

    // Gather normalized rows and their norms (blocked gather kernels).
    let mut h1 = Matrix::zeros(b, d);
    let mut h2 = Matrix::zeros(b, d);
    let mut n1 = vec![0.0f32; b];
    let mut n2 = vec![0.0f32; b];
    bsl_linalg::simd::normalize_gather_into(z1, nodes, h1.as_mut_slice(), &mut n1);
    bsl_linalg::simd::normalize_gather_into(z2, nodes, h2.as_mut_slice(), &mut n2);

    // Similarity matrix (one blocked matvec per row) and row softmax.
    let mut sims = Matrix::zeros(b, b);
    for a in 0..b {
        scores_block(h1.row(a), h2.as_slice(), sims.row_mut(a));
    }
    let mut loss = 0.0f64;
    let inv_b = 1.0 / b as f64;
    let mut probs = vec![0.0f32; b];
    for a in 0..b {
        let row = sims.row(a);
        let lse = softmax_into(row, tau, &mut probs);
        loss += inv_b * (lse - (row[a] / tau) as f64);
        // dL/ds_ab = (1/(Bτ))(p_ab − δ_ab), times the external weight.
        let coef = (weight as f64 * inv_b / tau as f64) as f32;
        for bb in 0..b {
            let g_ab = coef * (probs[bb] - if a == bb { 1.0 } else { 0.0 });
            if g_ab == 0.0 {
                continue;
            }
            let s_ab = row[bb];
            // Chain through both cosine normalizations.
            let (h1a, h2b) = (h1.row(a), h2.row(bb));
            bsl_linalg::kernels::cosine_backward_into(
                g_ab,
                s_ab,
                h1a,
                h2b,
                n1[a],
                g1.row_mut(nodes[a] as usize),
            );
            bsl_linalg::kernels::cosine_backward_into(
                g_ab,
                s_ab,
                h2b,
                h1a,
                n2[bb],
                g2.row_mut(nodes[bb] as usize),
            );
        }
    }
    loss * weight as f64
}

/// Deduplicates `nodes` (keeping first occurrences) and truncates to `cap`
/// — contrastive auxiliaries run on a bounded node subset because InfoNCE
/// is `O(B²·d)`.
pub fn dedup_cap(nodes: &[u32], cap: usize) -> Vec<u32> {
    let mut seen = std::collections::HashSet::with_capacity(nodes.len());
    let mut out = Vec::with_capacity(cap.min(nodes.len()));
    for &n in nodes {
        if seen.insert(n) {
            out.push(n);
            if out.len() == cap {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dedup_cap_keeps_order_and_caps() {
        assert_eq!(dedup_cap(&[3, 1, 3, 2, 1, 4], 3), vec![3, 1, 2]);
        assert_eq!(dedup_cap(&[5, 5], 10), vec![5]);
        assert!(dedup_cap(&[], 4).is_empty());
    }

    fn toy_adj() -> NormAdj {
        NormAdj::from_interactions(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 1)])
    }

    #[test]
    fn forward_layer_mean_hand_check_one_layer() {
        let adj = toy_adj();
        let prop = Propagator::new(adj.clone(), 1);
        let u0 = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let i0 = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let (fu, fi) = prop.forward(&u0, &i0, None);
        let (pu, pi) = adj.propagate(&u0, &i0);
        for r in 0..3 {
            for c in 0..2 {
                let want = 0.5 * (u0.get(r, c) + pu.get(r, c));
                assert!((fu.get(r, c) - want).abs() < 1e-6);
            }
        }
        for r in 0..2 {
            for c in 0..2 {
                let want = 0.5 * (i0.get(r, c) + pi.get(r, c));
                assert!((fi.get(r, c) - want).abs() < 1e-6);
            }
        }
    }

    /// Hop and output buffers full of garbage (NaN, huge values, stale
    /// results of another input) must not reach a single bit of the result.
    #[test]
    fn forward_into_over_garbage_buffers_matches_fresh_forward_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(5);
        for layers in 1..=3 {
            let prop = Propagator::new(toy_adj(), layers);
            let mut hops = prop.hops(9);
            for (k, m) in hops.users.iter_mut().chain(hops.items.iter_mut()).enumerate() {
                m.fill(if k % 2 == 0 { f32::NAN } else { 3.0e38 });
            }
            let (mut out_u, mut out_i) = (Matrix::zeros(3, 9), Matrix::zeros(2, 9));
            out_u.fill(f32::NAN);
            out_i.fill(-3.0e38);
            for _ in 0..2 {
                let u0 = Matrix::gaussian(3, 9, 1.0, &mut rng);
                let i0 = Matrix::gaussian(2, 9, 1.0, &mut rng);
                prop.forward_into(&u0, &i0, &mut hops, &mut out_u, &mut out_i, None);
                let (fu, fi) = prop.forward(&u0, &i0, None);
                assert_eq!(bits(&out_u), bits(&fu), "{layers} layers");
                assert_eq!(bits(&out_i), bits(&fi), "{layers} layers");
            }
        }
    }

    /// A pool of 1, 2 or 3 lanes gives the inline call's bits, whatever
    /// the buffers held: skewed degrees, empty rows, a block with fewer
    /// rows than lanes (either side), a width off the 8-float grid.
    #[test]
    fn pooled_forward_into_matches_inline_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Item 0 has six users, users 5 and 6 none; the mirrored graph
        // has two users and nine items, items 7 and 8 without users.
        let tall: Vec<(u32, u32)> = vec![(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1)];
        let wide: Vec<(u32, u32)> = tall.iter().map(|&(u, i)| (i, u)).collect();
        let graphs = [(7, 2, tall), (2, 7, wide.clone()), (2, 9, wide)];
        let pools: Vec<WorkerPool> = (1..=3).map(WorkerPool::new).collect();
        let mut rng = StdRng::seed_from_u64(11);
        for (n_users, n_items, edges) in graphs {
            let adj = NormAdj::from_interactions(n_users, n_items, &edges);
            for (layers, dim) in [(1, 13), (2, 64), (3, 13), (3, 9)] {
                let prop = Propagator::new(adj.clone(), layers);
                let u0 = Matrix::gaussian(n_users, dim, 1.0, &mut rng);
                let i0 = Matrix::gaussian(n_items, dim, 1.0, &mut rng);
                let (want_u, want_i) = prop.forward(&u0, &i0, None);
                for pool in &pools {
                    let mut hops = prop.hops(dim);
                    let (mut out_u, mut out_i) =
                        (Matrix::zeros(n_users, dim), Matrix::zeros(n_items, dim));
                    out_u.fill(f32::NAN);
                    out_i.fill(f32::NAN);
                    prop.forward_into(&u0, &i0, &mut hops, &mut out_u, &mut out_i, Some(pool));
                    let label = format!(
                        "{n_users}x{n_items}, {layers} layers, d = {dim}, {} lanes",
                        pool.n_workers()
                    );
                    assert_eq!(bits(&out_u), bits(&want_u), "{label}: users");
                    assert_eq!(bits(&out_i), bits(&want_i), "{label}: items");
                }
            }
        }
    }

    /// The backward pass is exact iff the forward map is self-adjoint:
    /// `<F(x), y> = <x, F(y)>` for random `x`, `y`.
    #[test]
    fn adjointness() {
        let prop = Propagator::new(toy_adj(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let xu = Matrix::gaussian(3, 4, 1.0, &mut rng);
            let xi = Matrix::gaussian(2, 4, 1.0, &mut rng);
            let yu = Matrix::gaussian(3, 4, 1.0, &mut rng);
            let yi = Matrix::gaussian(2, 4, 1.0, &mut rng);
            let (fxu, fxi) = prop.forward(&xu, &xi, None);
            let (fyu, fyi) = prop.forward(&yu, &yi, None);
            let lhs: f64 = fxu
                .as_slice()
                .iter()
                .zip(yu.as_slice())
                .chain(fxi.as_slice().iter().zip(yi.as_slice()))
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let rhs: f64 = xu
                .as_slice()
                .iter()
                .zip(fyu.as_slice())
                .chain(xi.as_slice().iter().zip(fyi.as_slice()))
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn identical_views_minimize_info_nce() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = Matrix::gaussian(6, 4, 1.0, &mut rng);
        let nodes: Vec<u32> = (0..6).collect();
        let mut g1 = Matrix::zeros(6, 4);
        let mut g2 = Matrix::zeros(6, 4);
        let aligned = info_nce_grad(&z, &z, &nodes, 0.2, 1.0, &mut g1, &mut g2);
        let other = Matrix::gaussian(6, 4, 1.0, &mut rng);
        g1.fill(0.0);
        g2.fill(0.0);
        let misaligned = info_nce_grad(&z, &other, &nodes, 0.2, 1.0, &mut g1, &mut g2);
        assert!(aligned < misaligned, "{aligned} vs {misaligned}");
    }

    /// Central finite-difference check of the InfoNCE gradients through the
    /// cosine normalization.
    #[test]
    fn info_nce_gradcheck() {
        let mut rng = StdRng::seed_from_u64(9);
        let z1 = Matrix::gaussian(4, 3, 1.0, &mut rng);
        let z2 = Matrix::gaussian(4, 3, 1.0, &mut rng);
        let nodes: Vec<u32> = vec![0, 2, 3];
        let tau = 0.3;
        let mut g1 = Matrix::zeros(4, 3);
        let mut g2 = Matrix::zeros(4, 3);
        let _ = info_nce_grad(&z1, &z2, &nodes, tau, 1.0, &mut g1, &mut g2);

        let h = 1e-3f32;
        let loss_of = |z1: &Matrix, z2: &Matrix| {
            let mut d1 = Matrix::zeros(4, 3);
            let mut d2 = Matrix::zeros(4, 3);
            info_nce_grad(z1, z2, &nodes, tau, 1.0, &mut d1, &mut d2)
        };
        for &node in &nodes {
            for c in 0..3 {
                let mut zp = z1.clone();
                let mut zm = z1.clone();
                zp.set(node as usize, c, zp.get(node as usize, c) + h);
                zm.set(node as usize, c, zm.get(node as usize, c) - h);
                let num = (loss_of(&zp, &z2) - loss_of(&zm, &z2)) / (2.0 * h as f64);
                let ana = g1.get(node as usize, c) as f64;
                assert!(
                    (ana - num).abs() < 2e-3 * (1.0 + num.abs()),
                    "z1[{node},{c}]: analytic {ana} vs numeric {num}"
                );
                let mut zp = z2.clone();
                let mut zm = z2.clone();
                zp.set(node as usize, c, zp.get(node as usize, c) + h);
                zm.set(node as usize, c, zm.get(node as usize, c) - h);
                let num = (loss_of(&z1, &zp) - loss_of(&z1, &zm)) / (2.0 * h as f64);
                let ana = g2.get(node as usize, c) as f64;
                assert!(
                    (ana - num).abs() < 2e-3 * (1.0 + num.abs()),
                    "z2[{node},{c}]: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn untouched_rows_get_no_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let z1 = Matrix::gaussian(5, 3, 1.0, &mut rng);
        let z2 = Matrix::gaussian(5, 3, 1.0, &mut rng);
        let mut g1 = Matrix::zeros(5, 3);
        let mut g2 = Matrix::zeros(5, 3);
        let _ = info_nce_grad(&z1, &z2, &[1, 3], 0.2, 1.0, &mut g1, &mut g2);
        for r in [0usize, 2, 4] {
            assert!(g1.row(r).iter().all(|&x| x == 0.0));
            assert!(g2.row(r).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn weight_scales_loss_and_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let z1 = Matrix::gaussian(4, 3, 1.0, &mut rng);
        let z2 = Matrix::gaussian(4, 3, 1.0, &mut rng);
        let nodes = vec![0, 1, 2, 3];
        let mut a1 = Matrix::zeros(4, 3);
        let mut a2 = Matrix::zeros(4, 3);
        let l1 = info_nce_grad(&z1, &z2, &nodes, 0.2, 1.0, &mut a1, &mut a2);
        let mut b1 = Matrix::zeros(4, 3);
        let mut b2 = Matrix::zeros(4, 3);
        let l2 = info_nce_grad(&z1, &z2, &nodes, 0.2, 2.0, &mut b1, &mut b2);
        assert!((l2 - 2.0 * l1).abs() < 1e-9);
        for (x, y) in a1.as_slice().iter().zip(b1.as_slice()) {
            assert!((2.0 * x - y).abs() < 1e-6);
        }
    }
}
