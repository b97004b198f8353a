//! Graph-propagation benchmarks: SpMM and the LightGCN layer-mean
//! forward on a Yelp-like training graph, the latter on kept hop and
//! output buffers as `LightGcn` runs it.

use bsl_data::synth::{generate, SynthConfig};
use bsl_linalg::Matrix;
use bsl_models::propagation::Propagator;
use bsl_sparse::NormAdj;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_propagation(c: &mut Criterion) {
    let ds = generate(&SynthConfig::yelp_like(1));
    let adj = NormAdj::from_interactions(ds.n_users, ds.n_items, &ds.train_pairs());
    let mut rng = StdRng::seed_from_u64(0);
    let u = Matrix::gaussian(ds.n_users, 64, 0.1, &mut rng);
    let i = Matrix::gaussian(ds.n_items, 64, 0.1, &mut rng);

    c.bench_function("spmm_yelp_d64", |bench| bench.iter(|| adj.user_item.spmm(black_box(&i))));
    let prop = Propagator::new(adj.clone(), 3);
    let mut hops = prop.hops(64);
    let (mut out_u, mut out_i) = (Matrix::zeros(ds.n_users, 64), Matrix::zeros(ds.n_items, 64));
    c.bench_function("lightgcn_forward_3layer_d64", |bench| {
        bench.iter(|| {
            prop.forward_into(black_box(&u), black_box(&i), &mut hops, &mut out_u, &mut out_i, None)
        })
    });
    c.bench_function("edge_dropout_renormalize", |bench| {
        bench.iter(|| adj.edge_dropout(0.2, &mut rng))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_propagation
}
criterion_main!(benches);
