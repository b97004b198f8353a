//! Symmetrically-normalized bipartite adjacency for graph CF backbones.
//!
//! LightGCN-style propagation works on the `(U+I) × (U+I)` block graph
//! `A = [[0, R], [Rᵀ, 0]]` normalized as `Â = D^{-1/2} A D^{-1/2}`. We keep
//! the two non-zero blocks separately — `R̂: U × I` and its transpose — so
//! one propagation step is two block SpMMs:
//!
//! ```text
//! e_u' = Σ_{i ∈ N(u)} e_i / sqrt(d_u · d_i)
//! e_i' = Σ_{u ∈ N(i)} e_u / sqrt(d_u · d_i)
//! ```
//!
//! Because `Â` is symmetric, the backward pass of a propagation step is the
//! same operator — which is what makes exact hand-written backprop through
//! LightGCN trivial.

use crate::csr::Csr;
use bsl_linalg::Matrix;
use rand::Rng;

/// Normalized bipartite adjacency (both block orientations).
#[derive(Clone, Debug)]
pub struct NormAdj {
    /// Normalized user→item block `R̂` (`U × I`).
    pub user_item: Csr,
    /// Normalized item→user block `R̂ᵀ` (`I × U`).
    pub item_user: Csr,
}

impl NormAdj {
    /// Builds `Â` from raw binary interactions.
    ///
    /// `interactions` are `(user, item)` pairs; duplicates collapse to a
    /// single edge of weight 1 before normalization. Isolated nodes get
    /// degree 1 in the normalizer so their rows stay zero without dividing
    /// by zero.
    pub fn from_interactions(n_users: usize, n_items: usize, interactions: &[(u32, u32)]) -> Self {
        let trips: Vec<(u32, u32, f32)> = interactions.iter().map(|&(u, i)| (u, i, 1.0)).collect();
        let mut r = Csr::from_coo(n_users, n_items, &trips);
        // Re-binarize in case of duplicate interactions.
        for row in 0..n_users {
            for v in r.row_values_mut(row) {
                *v = 1.0;
            }
        }
        Self::from_csr(r)
    }

    /// Builds `Â` from an existing (binary or weighted) CSR block `R`.
    pub fn from_csr(mut r: Csr) -> Self {
        let du: Vec<f32> = r.row_sums().iter().map(|&d| 1.0 / (d.max(1.0)).sqrt() as f32).collect();
        let di: Vec<f32> = {
            let t = r.transpose();
            t.row_sums().iter().map(|&d| 1.0 / (d.max(1.0)).sqrt() as f32).collect()
        };
        r.scale_rows_cols(&du, &di);
        let item_user = r.transpose();
        Self { user_item: r, item_user }
    }

    /// Number of users (rows of the user→item block).
    pub fn n_users(&self) -> usize {
        self.user_item.rows()
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.user_item.cols()
    }

    /// One propagation step: returns `(Â·e)` restricted to the user and
    /// item blocks.
    pub fn propagate(&self, user_emb: &Matrix, item_emb: &Matrix) -> (Matrix, Matrix) {
        (self.user_item.spmm(item_emb), self.item_user.spmm(user_emb))
    }

    /// Edge-dropout view for SGL-style augmentation: each edge of the
    /// *original* graph is kept independently with probability `1 - p`,
    /// and the surviving graph is re-normalized (as in the SGL paper,
    /// normalization is recomputed on the dropped graph).
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn edge_dropout(&self, p: f32, rng: &mut impl Rng) -> NormAdj {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        let keep: Vec<(u32, u32, f32)> = self
            .user_item
            .iter()
            .filter(|_| rng.gen::<f32>() >= p)
            .map(|(u, i, _)| (u, i, 1.0))
            .collect();
        let r = Csr::from_coo(self.n_users(), self.n_items(), &keep);
        NormAdj::from_csr(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> NormAdj {
        // 3 users, 2 items: u0-{i0,i1}, u1-{i0}, u2-{i1}
        NormAdj::from_interactions(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 1)])
    }

    #[test]
    fn normalization_values() {
        let adj = toy();
        // d(u0)=2, d(i0)=2 => weight = 1/sqrt(4) = 0.5
        assert!((adj.user_item.get(0, 0) - 0.5).abs() < 1e-6);
        // d(u1)=1, d(i0)=2 => 1/sqrt(2)
        assert!((adj.user_item.get(1, 0) - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn blocks_are_transposes() {
        let adj = toy();
        assert_eq!(adj.item_user.to_dense(), adj.user_item.to_dense().transpose());
    }

    #[test]
    fn duplicate_interactions_collapse() {
        let a = NormAdj::from_interactions(2, 2, &[(0, 0), (0, 0), (1, 1)]);
        let b = NormAdj::from_interactions(2, 2, &[(0, 0), (1, 1)]);
        assert_eq!(a.user_item.to_dense(), b.user_item.to_dense());
    }

    #[test]
    fn propagate_shapes_and_symmetry() {
        let adj = toy();
        let ue = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1);
        let ie = Matrix::from_fn(2, 4, |r, c| (r * c) as f32 * 0.1 + 0.2);
        let (nu, ni) = adj.propagate(&ue, &ie);
        assert_eq!(nu.shape(), (3, 4));
        assert_eq!(ni.shape(), (2, 4));
        // Propagation is the adjoint of itself on the bipartite blocks:
        // <nu, ue'> uses R̂ ie; check one entry by hand:
        // nu[1] = R̂[1,0] * ie[0] = (1/sqrt2) * ie[0]
        for c in 0..4 {
            assert!((nu.get(1, c) - ie.get(0, c) / 2.0f32.sqrt()).abs() < 1e-6);
        }
    }

    #[test]
    fn isolated_nodes_zero_rows_no_nan() {
        // User 1 and item 1 are isolated.
        let adj = NormAdj::from_interactions(2, 2, &[(0, 0)]);
        let ue = Matrix::from_fn(2, 2, |_, _| 1.0);
        let ie = Matrix::from_fn(2, 2, |_, _| 1.0);
        let (nu, ni) = adj.propagate(&ue, &ie);
        assert!(nu.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(nu.row(1), &[0.0, 0.0]);
        assert_eq!(ni.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn edge_dropout_zero_keeps_graph() {
        let adj = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let view = adj.edge_dropout(0.0, &mut rng);
        assert_eq!(view.user_item.to_dense(), adj.user_item.to_dense());
    }

    #[test]
    fn edge_dropout_removes_roughly_p_edges() {
        let n = 50usize;
        let edges: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|u| (0..n as u32).map(move |i| (u, i))).collect();
        let adj = NormAdj::from_interactions(n, n, &edges);
        let mut rng = StdRng::seed_from_u64(7);
        let view = adj.edge_dropout(0.3, &mut rng);
        let kept = view.user_item.nnz() as f64 / (n * n) as f64;
        assert!((kept - 0.7).abs() < 0.05, "kept fraction {kept}");
    }

    #[test]
    fn edge_dropout_is_renormalized() {
        let adj = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let view = adj.edge_dropout(0.5, &mut rng);
        // Every surviving edge weight must equal 1/sqrt(d_u d_i) of the
        // *dropped* graph.
        let du = view.user_item.row_degrees();
        let di = view.user_item.col_degrees();
        for (u, i, v) in view.user_item.iter() {
            let want = 1.0 / ((du[u as usize] as f32) * (di[i as usize] as f32)).sqrt();
            assert!((v - want).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn edge_dropout_rejects_p_one() {
        let adj = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = adj.edge_dropout(1.0, &mut rng);
    }
}
