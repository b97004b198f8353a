//! Vector-kernel microbenchmarks (the inner loops of scoring/backprop).
//!
//! The `*_scalar` variants pin [`SimdLevel::Scalar`] explicitly, so one
//! bench run records the dispatched-vs-reference speedup in place; the
//! blocked benches (`scores_block_*` and its `*_gather_*` twin,
//! `dots_block_i8_*`, `normalize_rows_*`, `cosine_backward_block_*`,
//! `cosine_backward_row_*`, `softmax_row_*`, `gemm_*`) cover the batch kernels the trainer and
//! evaluator hot paths run on. These are smoke targets: CI checks that each runs, not
//! what it reads. Before/after numbers come from the duet benchmark
//! (`bash benchmark/run.sh`, see `benchmark/README.md`), whose `linalg.*`
//! probes time these kernels next to a frozen reference on the same host.

use bsl_linalg::kernels::{axpy, cosine_backward_into, dot, normalize_into};
use bsl_linalg::simd::{
    self, cosine_backward_block, cosine_backward_row, dots_block_i8, gemm, normalize_gather_into,
    normalize_rows_into, scores_block, scores_gather, softmax_row, Op, SimdLevel,
};
use bsl_linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_kernels(c: &mut Criterion) {
    let d = 64usize;
    let m = 64usize;
    let a: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.53).cos()).collect();
    let mut out = vec![0.0f32; d];

    println!("simd dispatch: {}", simd::active());

    c.bench_function("dot_d64", |bench| bench.iter(|| dot(black_box(&a), black_box(&b))));
    c.bench_function("dot_d64_scalar", |bench| {
        bench.iter(|| simd::dot_with(SimdLevel::Scalar, black_box(&a), black_box(&b)))
    });
    c.bench_function("axpy_d64", |bench| {
        bench.iter(|| axpy(black_box(0.1), black_box(&a), black_box(&mut out)))
    });
    c.bench_function("normalize_d64", |bench| {
        bench.iter(|| normalize_into(black_box(&a), black_box(&mut out)))
    });
    c.bench_function("cosine_backward_d64", |bench| {
        let mut ahat = vec![0.0f32; d];
        let mut bhat = vec![0.0f32; d];
        let an = normalize_into(&a, &mut ahat);
        normalize_into(&b, &mut bhat);
        let s = dot(&ahat, &bhat);
        let mut grad = vec![0.0f32; d];
        bench.iter(|| {
            cosine_backward_into(
                black_box(0.1),
                black_box(s),
                black_box(&ahat),
                black_box(&bhat),
                black_box(an),
                black_box(&mut grad),
            )
        })
    });
    c.bench_function("cosine_backward_d64_scalar", |bench| {
        let mut ahat = vec![0.0f32; d];
        let mut bhat = vec![0.0f32; d];
        let an = normalize_into(&a, &mut ahat);
        normalize_into(&b, &mut bhat);
        let s = dot(&ahat, &bhat);
        let mut grad = vec![0.0f32; d];
        bench.iter(|| {
            simd::cosine_backward_into_with(
                SimdLevel::Scalar,
                black_box(0.1),
                black_box(s),
                black_box(&ahat),
                black_box(&bhat),
                black_box(an),
                black_box(&mut grad),
            )
        })
    });

    // Blocked kernels: one user row against an m-row item block (the
    // sampled-softmax inner loop) and whole-matrix row normalization (the
    // evaluator's pre-pass).
    let block: Vec<f32> = (0..m * d).map(|i| (i as f32 * 0.211).sin()).collect();
    let mut scores = vec![0.0f32; m];
    c.bench_function("scores_block_d64_m64", |bench| {
        bench.iter(|| scores_block(black_box(&a), black_box(&block), black_box(&mut scores)))
    });
    c.bench_function("cosine_backward_block_d64_m64", |bench| {
        let gs: Vec<f32> = (0..m).map(|j| 0.01 * j as f32 - 0.3).collect();
        let ss: Vec<f32> = (0..m).map(|j| 0.013 * j as f32 - 0.4).collect();
        let mut grad = vec![0.0f32; d];
        bench.iter(|| {
            cosine_backward_block(
                black_box(&gs),
                black_box(&ss),
                black_box(&a),
                black_box(1.1),
                black_box(&block),
                black_box(&mut grad),
            )
        })
    });
    // The gathered scorer on the sampled step's shape: 64 slots (with
    // repeats) into a 2,500-row table of unit vectors.
    let table: Vec<f32> = (0..2500 * d).map(|i| (i as f32 * 0.173).sin()).collect();
    let slots: Vec<u32> = (0..m as u32).map(|j| j.wrapping_mul(2_654_435_761) % 2500).collect();
    c.bench_function("scores_gather_d64_m64", |bench| {
        bench.iter(|| {
            scores_gather(
                black_box(&a),
                black_box(&table),
                black_box(&slots),
                black_box(&mut scores),
            )
        })
    });
    // The exact serving path's sketch tile: a quantized query against 64
    // int8 rows, exact i32 dots.
    let q_i8: Vec<i8> = (0..d).map(|i| ((i * 37) % 255) as i8 / 2).collect();
    let block_i8: Vec<i8> = (0..m * d).map(|i| ((i * 101) % 255) as i8 / 2).collect();
    let mut dots = vec![0i32; m];
    c.bench_function("dots_block_i8_d64_m64", |bench| {
        bench.iter(|| dots_block_i8(black_box(&q_i8), black_box(&block_i8), black_box(&mut dots)))
    });
    // One sampled batch row's whole backward at 64 and 511 negatives:
    // gathered slots into the 2,500-row table, item-side rows scattered over
    // a 2,500-row gradient block, the user side kept in registers.
    let table_norms: Vec<f32> = (0..2500).map(|r| 0.5 + (r % 7) as f32 * 0.1).collect();
    let mut grad_block = vec![0.0f32; 2500 * d];
    for len in [64usize, 511] {
        let gs: Vec<f32> = (0..len).map(|j| 0.001 * j as f32 - 0.03).collect();
        let ss: Vec<f32> = (0..len).map(|j| (j as f32 * 0.61).sin()).collect();
        let slots: Vec<u32> =
            (0..len as u32).map(|j| j.wrapping_mul(2_654_435_761) % 2500).collect();
        let rows: Vec<u32> = (0..len as u32).map(|j| j.wrapping_mul(40_503) % 2500).collect();
        let mut grad = vec![0.0f32; d];
        c.bench_function(&format!("cosine_backward_row_d64_m{len}"), |bench| {
            bench.iter(|| {
                cosine_backward_row(
                    black_box(&gs),
                    black_box(&ss),
                    black_box(&a),
                    black_box(1.1),
                    black_box(&table),
                    black_box(&table_norms),
                    black_box(&slots),
                    black_box(&mut grad_block),
                    black_box(&rows),
                    black_box(&mut grad),
                )
            })
        });
    }
    // The loss's row kernel on the two row shapes of the duet: 64 sampled
    // negatives, and the 511 in-batch ones of B = 512.
    for len in [64usize, 511] {
        let xs: Vec<f32> = (0..len).map(|j| (j as f32 * 0.61).sin()).collect();
        let mut weights = vec![0.0f32; len];
        c.bench_function(&format!("softmax_row_m{len}"), |bench| {
            bench.iter(|| softmax_row(black_box(&xs), black_box(0.1), black_box(&mut weights)))
        });
    }
    // The three products of the in-batch step at B = 512, d = 64: the
    // forward `S = Û·V̂ᵀ` (k = 64, n = 512), and the backward `G·V̂` and
    // `Gᵀ·Û` (k = 512, n = 64), each one call over all 512 rows.
    let bb = 512usize;
    let g_mat: Vec<f32> = (0..bb * bb).map(|x| (x as f32 * 0.113).sin() * 0.01).collect();
    let hat: Vec<f32> = (0..bb * d).map(|x| (x as f32 * 0.071).cos() * 0.125).collect();
    let mut c_bd = vec![0.0f32; bb * d];
    let mut c_bb = vec![0.0f32; bb * bb];
    for (name, op) in [("gemm_nn_b512_k512_d64", Op::N), ("gemm_tn_b512_k512_d64", Op::T)] {
        c.bench_function(name, |bench| {
            bench.iter(|| {
                gemm(op, black_box(&g_mat), black_box(&hat), d, 0..bb, black_box(&mut c_bd))
            })
        });
    }
    c.bench_function("gemm_nn_b512_k64_n512", |bench| {
        bench
            .iter(|| gemm(Op::N, black_box(&hat), black_box(&hat), bb, 0..bb, black_box(&mut c_bb)))
    });
    let rows = Matrix::from_fn(512, d, |r, cix| ((r * 31 + cix * 7) % 13) as f32 * 0.2 - 1.0);
    let mut unit = Matrix::zeros(512, d);
    let mut norms = vec![0.0f32; 512];
    c.bench_function("normalize_rows_512_d64", |bench| {
        bench.iter(|| {
            normalize_rows_into(black_box(&rows), black_box(&mut unit), black_box(&mut norms))
        })
    });

    // Catalogue-scale gather: 64 pseudo-random rows out of a 200k × 64
    // item table (~51 MB — far beyond LLC), the access pattern of the
    // sampled trainer's negative blocks on a real catalogue. This is the
    // case the software prefetch in `normalize_gather_into` targets; the
    // dense-table `normalize_rows_512_d64` bench above is the
    // cache-resident contrast.
    let catalog = Matrix::from_fn(200_000, d, |r, cix| ((r * 131 + cix * 17) % 23) as f32 * 0.1);
    let gather_ids: Vec<u32> =
        (0..m as u32).map(|j| j.wrapping_mul(48_271).wrapping_mul(4099) % 200_000).collect();
    let mut gblock = vec![0.0f32; m * d];
    let mut gnorms = vec![0.0f32; m];
    c.bench_function("normalize_gather_200k_d64_m64", |bench| {
        bench.iter(|| {
            normalize_gather_into(
                black_box(&catalog),
                black_box(&gather_ids),
                black_box(&mut gblock),
                black_box(&mut gnorms),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_kernels
}
criterion_main!(benches);
