//! Unit tests of LightGCL-lite, the SVD kind of the contrastive backbone
//! (`contrastive.rs`).

mod tests {
    use crate::backbone::{Backbone, BackboneConfig, Hyper};
    use crate::contrastive::{svd_view, Contrastive, View};
    use crate::grad::GradBuffer;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_data::Dataset;
    use bsl_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn lightgcl(ds: &Arc<Dataset>, rank: usize) -> Contrastive {
        let cfg = BackboneConfig::LightGcl { layers: 2, rank, ssl_reg: 0.5, ssl_tau: 0.2 };
        Contrastive::new(cfg, ds, 6, 3)
    }

    fn setup() -> (Arc<Dataset>, Contrastive, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = lightgcl(&ds, 4);
        (ds, m, StdRng::seed_from_u64(0))
    }

    /// The SVD view map is its own adjoint, so it is its own backward:
    /// `<svd_view(x), y> = <x, svd_view(y)>` with the pairing per block.
    #[test]
    fn svd_view_backward_is_adjoint() {
        let (ds, m, mut rng) = setup();
        let inner = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        let View::Svd { us, v } = &m.view else { unreachable!() };
        let yu = Matrix::gaussian(ds.n_users, 6, 1.0, &mut rng);
        let yi = Matrix::gaussian(ds.n_items, 6, 1.0, &mut rng);
        let (user_base, item_base) = (&m.lgn.user_base, &m.lgn.item_base);
        let [vu, vi] = svd_view(us, v, user_base, item_base);
        let [gu, gi] = svd_view(us, v, &yu, &yi);
        // <u_view, yu> + <i_view, yi> must equal <user_base, g_user> +
        // <item_base, g_item>.
        let lhs = inner(&vu, &yu) + inner(&vi, &yi);
        let rhs = inner(user_base, &gu) + inner(item_base, &gi);
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn svd_view_fidelity_grows_with_rank() {
        // The low-rank view approximates one propagation hop R̂·item_base;
        // the approximation must be positively correlated and sharpen as
        // the rank grows.
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let corr_at = |rank: usize| -> f64 {
            let mut m = lightgcl(&ds, rank);
            let mut rng = StdRng::seed_from_u64(0);
            m.forward(&mut rng);
            let hop = m.lgn.prop.adj().user_item.spmm(&m.lgn.item_base);
            let mut num = 0.0f64;
            let mut na = 0.0f64;
            let mut nb = 0.0f64;
            for (&a, &b) in m.views[1][0].as_slice().iter().zip(hop.as_slice()) {
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
        assert!(m.lgn.user_base.as_slice().iter().all(|v| v.is_finite()));
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
