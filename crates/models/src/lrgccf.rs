//! Unit tests of LR-GCCF, LightGCN on the residual propagation
//! ([`Propagator::residual`](crate::propagation::Propagator::residual)).

mod tests {
    use crate::backbone::{Backbone, Hyper};
    use crate::grad::GradBuffer;
    use crate::lightgcn::LightGcn;
    use crate::propagation::Propagator;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_linalg::Matrix;
    use bsl_sparse::NormAdj;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn residual_amplifies_relative_to_lightgcn_mean() {
        // With residual connections, e^k ≥ contributions of plain Â^k; on
        // an all-ones embedding over a connected graph the residual mean
        // has strictly larger norm than the base.
        let ds = Arc::new(generate(&SynthConfig::tiny(3)));
        let mut m = LightGcn::lr_gccf(&ds, 4, 2, 1);
        assert_eq!(m.name(), "LR-GCCF");
        m.user_base.fill(1.0);
        m.item_base.fill(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        m.forward(&mut rng);
        assert!(m.user_factors().frob_norm() > m.user_base.frob_norm());
    }

    /// Self-adjointness of the residual-mean operator: the backward pass
    /// is exact iff `<F(x), y> = <x, F(y)>`.
    #[test]
    fn residual_mean_is_self_adjoint() {
        let ds = Arc::new(generate(&SynthConfig::tiny(5)));
        let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
        let prop = Propagator::residual(adj, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let xu = Matrix::gaussian(ds.n_users, 5, 1.0, &mut rng);
        let xi = Matrix::gaussian(ds.n_items, 5, 1.0, &mut rng);
        let yu = Matrix::gaussian(ds.n_users, 5, 1.0, &mut rng);
        let yi = Matrix::gaussian(ds.n_items, 5, 1.0, &mut rng);
        let (fxu, fxi) = prop.forward(&xu, &xi, None);
        let (fyu, fyi) = prop.forward(&yu, &yi, None);
        let inner = |a: &Matrix, b: &Matrix| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        let lhs = inner(&fxu, &yu) + inner(&fxi, &yi);
        let rhs = inner(&xu, &fyu) + inner(&xi, &fyi);
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn step_descends_linear_objective() {
        let ds = Arc::new(generate(&SynthConfig::tiny(7)));
        let mut m = LightGcn::lr_gccf(&ds, 4, 2, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let c = [1.0f32, -1.0, 0.5, -0.5];
        let l = |m: &mut LightGcn, rng: &mut StdRng| -> f64 {
            m.forward(rng);
            bsl_linalg::kernels::dot(m.item_factors().row(2), &c) as f64
        };
        let before = l(&mut m, &mut rng);
        for _ in 0..15 {
            m.forward(&mut rng);
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, 4);
            grads.item_row_mut(2).copy_from_slice(&c);
            m.step(&grads, &[], &[2], Hyper { lr: 0.05, l2: 0.0 }, &mut rng);
        }
        assert!(l(&mut m, &mut rng) < before);
    }
}
