//! Unit tests of SimGCL, the noise kind of the contrastive backbone
//! (`contrastive.rs`).

mod tests {
    use crate::backbone::{Backbone, BackboneConfig, Hyper};
    use crate::contrastive::{perturb, Contrastive};
    use crate::grad::GradBuffer;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_data::Dataset;
    use bsl_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn simgcl(eps: f32) -> BackboneConfig {
        BackboneConfig::SimGcl { layers: 2, eps, ssl_reg: 0.5, ssl_tau: 0.2 }
    }

    fn setup() -> (Arc<Dataset>, Contrastive, StdRng) {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let m = Contrastive::new(simgcl(0.1), &ds, 6, 3);
        (ds, m, StdRng::seed_from_u64(0))
    }

    #[test]
    fn perturbation_has_bounded_magnitude() {
        let mut m = Matrix::from_fn(10, 4, |r, c| ((r + c) as f32 - 5.0) * 0.3);
        let before = m.clone();
        let mut rng = StdRng::seed_from_u64(1);
        perturb(&mut m, 0.1, &mut rng);
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
        let [[v1u, _], [v2u, _]] = &m.views;
        let diff_main: f64 = v1u
            .as_slice()
            .iter()
            .zip(m.lgn.fin_u.as_slice())
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
        let mut m = Contrastive::new(simgcl(0.0), &ds, 4, 5);
        let mut rng = StdRng::seed_from_u64(2);
        m.forward(&mut rng);
        for (a, b) in m.views[0][0].as_slice().iter().zip(m.lgn.fin_u.as_slice()) {
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
        assert!(m.lgn.user_base.as_slice().iter().all(|v| v.is_finite()));
    }
}
