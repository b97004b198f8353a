//! Negative-sampler benchmarks.

use bsl_data::synth::{generate, SynthConfig};
use bsl_sampling::{NegativeSampler, NoisySampler, PopularitySampler, UniformSampler};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_sampling(c: &mut Criterion) {
    let ds = Arc::new(generate(&SynthConfig::yelp_like(1)));
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::with_capacity(256);

    let uniform = UniformSampler::new(ds.clone());
    c.bench_function("uniform_sample_256", |b| {
        b.iter(|| {
            out.clear();
            uniform.sample_into(black_box(5), 256, &mut rng, &mut out)
        })
    });
    // The in-batch trainer's shape: one negative a row, so any per-row
    // setup in the sampler shows here.
    c.bench_function("uniform_sample_1", |b| {
        b.iter(|| {
            out.clear();
            uniform.sample_into(black_box(5), 1, &mut rng, &mut out)
        })
    });
    let pop = PopularitySampler::new(ds.clone(), 1.0);
    c.bench_function("popularity_sample_256", |b| {
        b.iter(|| {
            out.clear();
            pop.sample_into(black_box(5), 256, &mut rng, &mut out)
        })
    });
    let noisy = NoisySampler::new(ds.clone(), 5.0);
    c.bench_function("noisy_sample_256", |b| {
        b.iter(|| {
            out.clear();
            noisy.sample_into(black_box(5), 256, &mut rng, &mut out)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_sampling
}
criterion_main!(benches);
