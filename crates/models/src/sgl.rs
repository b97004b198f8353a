//! Unit tests of SGL, the edge-dropout kind of the contrastive backbone
//! (`contrastive.rs`).

mod tests {
    use crate::backbone::{Backbone, BackboneConfig, Hyper};
    use crate::contrastive::{Contrastive, View};
    use crate::grad::GradBuffer;
    use crate::lightgcn::LightGcn;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_data::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn sgl(layers: usize, ssl_reg: f32) -> BackboneConfig {
        BackboneConfig::Sgl { layers, dropout: 0.2, ssl_reg, ssl_tau: 0.2 }
    }

    fn setup() -> (Arc<Dataset>, Contrastive, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = Contrastive::new(sgl(2, 0.5), &ds, 6, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    #[test]
    fn forward_creates_fresh_views() {
        let (_, mut m, mut rng) = setup();
        let first_view = |m: &Contrastive| {
            let View::EdgeDropout { graphs, .. } = &m.view else { unreachable!() };
            let bits = m.views[0][0].as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (graphs[0].adj().user_item.nnz(), bits)
        };
        m.forward(&mut rng);
        let (edges, bits) = first_view(&m);
        assert!(edges < m.lgn.prop.adj().user_item.nnz(), "dropout kept every edge");
        // The base did not move, so only a redrawn graph changes the view.
        m.forward(&mut rng);
        let (_, bits_again) = first_view(&m);
        assert_ne!(bits, bits_again, "the second forward reused the first one's graph");
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
        assert!(m.lgn.user_base.as_slice().iter().all(|v| v.is_finite()));
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

    /// At `ssl_reg = 0` SGL and SimGCL are LightGCN: the same seed draws
    /// the same tables, and the step adds nothing to LightGCN's gradient.
    /// LightGCL is left out because its SVD draw comes first and moves the
    /// tables.
    #[test]
    fn zero_ssl_reg_matches_lightgcn_gradients() {
        let ds = Arc::new(generate(&SynthConfig::tiny(2)));
        let bits =
            |m: &bsl_linalg::Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let simgcl = BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.0, ssl_tau: 0.2 };
        for cfg in [sgl(2, 0.0), simgcl] {
            let mut m = Contrastive::new(cfg, &ds, 4, 7);
            let mut lgn = LightGcn::new(&ds, 4, 2, 7);
            let mut rng = StdRng::seed_from_u64(1);
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 4);
            grads.user_row_mut(3).iter_mut().for_each(|g| *g = 0.3);
            grads.item_row_mut(5).iter_mut().for_each(|g| *g = -0.2);
            let hp = Hyper { lr: 0.01, l2: 1e-4 };
            for _ in 0..3 {
                m.forward(&mut rng);
                lgn.forward(&mut rng);
                assert_eq!(m.step(&grads, &[3], &[5], hp, &mut rng), 0.0);
                lgn.step(&grads, &[3], &[5], hp, &mut rng);
            }
            m.forward(&mut rng);
            lgn.forward(&mut rng);
            let name = m.name();
            assert_eq!(bits(m.user_factors()), bits(lgn.user_factors()), "{name}: users");
            assert_eq!(bits(m.item_factors()), bits(lgn.item_factors()), "{name}: items");
        }
    }
}
