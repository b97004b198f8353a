//! Serving-path benchmarks: top-k retrieval over a frozen artifact at
//! Yelp catalogue scale through `ServeState` — the per-request cost a
//! deployment pays.

use bsl_data::synth::{generate, SynthConfig};
use bsl_linalg::Matrix;
use bsl_models::{EvalScore, IvfIndex, ModelArtifact};
use bsl_serve::{RecommendRequest, ServeScratch, ServeState};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_serving(c: &mut Criterion) {
    let ds = generate(&SynthConfig::yelp_like(1));
    let mut rng = StdRng::seed_from_u64(0);
    let u = Matrix::gaussian(ds.n_users, 64, 0.1, &mut rng);
    let i = Matrix::gaussian(ds.n_items, 64, 0.1, &mut rng);
    let art = ModelArtifact::from_embeddings("MF", &u, &i, EvalScore::Cosine);

    // The format-v2 production configuration: int8 tables + IVF index at
    // the default parameters. Announce them so a run's output records the
    // configuration it measured.
    let mut v2 = art.quantize();
    v2.build_default_ivf();
    let (nlist, nprobe) = {
        let ix = v2.index().expect("index");
        (ix.nlist(), ix.default_nprobe())
    };
    println!(
        "serving config: format v{}, nlist={nlist}, nprobe={nprobe}",
        bsl_models::artifact::FORMAT_VERSION
    );

    // Artifact codec round-trip through memory (no disk noise).
    c.bench_function("artifact_codec_roundtrip_yelp_d64", |b| {
        b.iter(|| ModelArtifact::from_bytes(&black_box(&art).to_bytes()).expect("decode"))
    });

    // IVF index construction over the prepared item table (the one-time
    // cost paid at artifact export or load).
    c.bench_function("index_build_yelp_d64", |b| {
        b.iter(|| IvfIndex::build(black_box(art.items()), nlist))
    });

    let state = ServeState::with_seen(art, &ds);
    let mut scratch = ServeScratch::new();
    // A fixed 64-user request batch spread across the user space.
    let stride = (ds.n_users / 64).max(1) as u32;
    let batch: Vec<RecommendRequest> =
        (0..64u32).map(|j| RecommendRequest::new(j * stride, 10)).collect();

    // Warm the scratch and the output lists so the measurement is the
    // steady state.
    let mut outs = Vec::new();
    state.recommend_batch_into(&batch, &mut scratch, &mut outs);

    // 64 exact requests, each through the sketch-pruned scan.
    c.bench_function("recommend_b64_k10_yelp_d64", |b| {
        b.iter(|| {
            state.recommend_batch_into(black_box(&batch), &mut scratch, &mut outs);
            black_box(&outs);
        })
    });
    let mut out = Vec::with_capacity(10);
    c.bench_function("recommend_single_k10_yelp_d64", |b| {
        b.iter(|| {
            state.recommend_into(black_box(&batch[0]), &mut scratch, &mut out);
            black_box(&out);
        })
    });

    // The sub-linear path: same batch, same k, served through int8 tables
    // and the IVF shortlist at the default nprobe. Compare directly to
    // recommend_b64_k10_yelp_d64 — the gap is the ANN speedup.
    let ivf_state = ServeState::with_seen(v2, &ds);
    ivf_state.recommend_batch_into(&batch, &mut scratch, &mut outs);
    c.bench_function("ivf_recommend_b64_k10_yelp_d64", |b| {
        b.iter(|| {
            ivf_state.recommend_batch_into(black_box(&batch), &mut scratch, &mut outs);
            black_box(&outs);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_serving
}
criterion_main!(benches);
