//! Forced-scalar dispatch replays the trainer bit for bit, on any host.
//!
//! This test binary pins the kernel dispatch to [`SimdLevel::Scalar`]
//! before any kernel runs (integration tests are separate processes, so
//! the forced level cannot leak into other suites) and replays every
//! trainer path against pinned fingerprints. At this level the blocked
//! kernels degrade to the pre-SIMD per-element loops, kept verbatim in
//! `bsl_linalg::simd::scalar`, and the SL/BSL losses exponentiate through
//! `scalar::softmax_row` and `stats::ln`: `+ − × ÷`, comparisons and bit
//! conversions only. No libm transcendental is left in a step, so the
//! constants certify the source, not the machine that minted them, and a
//! mismatch is a change in the arithmetic, never a different libm.
//!
//! Two generations of embedding constants:
//!
//! * The CML + Hinge embedding heads never touch `exp`/`ln`. They are
//!   still the bits captured *before* the SIMD kernel layer landed (and,
//!   for the sharded one, before the persistent pool).
//! * The SL/BSL embedding heads were re-pinned once, when the losses moved
//!   from two f64-libm passes to the in-crate polynomial `exp` (within
//!   0.99 ULP of `f64::exp` on `[−87, 0]`, every f32 checked; softmax
//!   weights within 1e-7 and log-sum-exp within 1e-6 of the f64 oracle,
//!   `bsl-linalg`'s `softmax_row_matches_the_f64_oracle_…` test). Each moved
//!   by at most 20 units in the last place of an f32; no NDCG constant
//!   moved. CHANGES.md (PR 19) lists every old → new value.
//! * The in-batch embedding head was re-pinned once more, when the in-batch
//!   step became three blocked products (`simd::gemm`): its sums run in
//!   another order than the per-occurrence sequence. Five of its eight
//!   values moved, by at most 43 units in the last place; its NDCG did not
//!   move, and the three-worker run now has the serial run's bits.
//!   CHANGES.md (PR 32) lists every old → new value.
//!
//! The DCG discount comes from a literal table (`bsl_eval::metrics`), so
//! the NDCG half adds no libm call of its own, and the per-user metrics
//! are summed in fixed 16-user blocks merged in block order, so it does
//! not depend on how many CPUs the host shows either (CI replays this
//! file under `taskset -c 0`). The eight NDCG constants were re-pinned
//! once for that summation order: two moved, the sharded CML one by 2 ulp
//! (`…e217` → `0x3fd719404a20e219`) and the LightGCN one by 1 ulp
//! (`…56ba` → `0x3fe3ddd399f156bb`); no ranked list changed. Every test
//! asserts the embedding bits before the NDCG bits: a failure names the
//! half that moved.

use bsl_core::prelude::*;
use bsl_core::SamplingConfig;
use bsl_linalg::simd::{self, SimdLevel};
use std::sync::Arc;

/// `(ndcg@20 bits, first 8 user-embedding f32 bits)` of a 3-epoch run.
fn fingerprint(cfg: TrainConfig) -> (u64, Vec<u32>) {
    let ds = Arc::new(generate(&SynthConfig::tiny(77)));
    let out = Trainer::new(cfg).fit(&ds);
    let head = out.user_emb.as_slice()[..8].iter().map(|v| v.to_bits()).collect();
    (out.best.ndcg(20).to_bits(), head)
}

fn force_scalar() {
    simd::force(SimdLevel::Scalar).expect("dispatch level already pinned to a non-scalar level");
    assert_eq!(simd::active(), SimdLevel::Scalar);
}

#[test]
fn serial_path_matches_pre_simd_bits() {
    force_scalar();
    let (ndcg, head) = fingerprint(TrainConfig { epochs: 3, ..TrainConfig::smoke() });
    assert_eq!(
        head,
        vec![
            1035045501u32,
            3191623225,
            3196157168,
            3166585936,
            3200081867,
            1050946761,
            3186930594,
            1049509365
        ],
        "user embedding bits drifted"
    );
    assert_eq!(ndcg, 0x3fcfdfc703321ca6, "ndcg bits {ndcg:#018x}");
}

#[test]
fn sharded_path_matches_pre_simd_bits() {
    force_scalar();
    let (ndcg, head) = fingerprint(TrainConfig { epochs: 3, threads: 3, ..TrainConfig::smoke() });
    assert_eq!(
        head,
        vec![
            1039595290u32,
            3190949683,
            3196074430,
            3163493842,
            3200018819,
            1052294363,
            3187344443,
            1048965526
        ],
        "sharded user embedding bits drifted"
    );
    assert_eq!(ndcg, 0x3fcfc5d83800b2fc, "ndcg bits {ndcg:#018x}");
}

#[test]
fn in_batch_paths_match_pre_simd_bits() {
    force_scalar();
    let base = TrainConfig {
        sampling: SamplingConfig::InBatch,
        batch_size: 64,
        epochs: 3,
        ..TrainConfig::smoke()
    };
    let (ndcg, head) = fingerprint(base);
    assert_eq!(
        head,
        vec![
            1038014144u32,
            3194045810,
            3196547096,
            1013387029,
            3199845551,
            1050544641,
            3188773002,
            1050076957
        ]
    );
    assert_eq!(ndcg, 0x3fd1ab52e965d22b, "ndcg bits {ndcg:#018x}");
    // The in-batch step computes every element in one order whatever the
    // worker count, so three workers replay the serial run exactly.
    let (ndcg_par, head_par) = fingerprint(TrainConfig { threads: 3, ..base });
    assert_eq!(head_par, head);
    assert_eq!(ndcg_par, ndcg, "ndcg bits {ndcg_par:#018x}");
}

#[test]
fn cml_and_lightgcn_paths_match_pre_simd_bits() {
    force_scalar();
    // CML exercises the NegSqDist scoring branch + SGD-style projection;
    // LightGCN+BSL exercises propagation (SpMM) and the BSL loss.
    let (ndcg, head) = fingerprint(TrainConfig {
        backbone: BackboneConfig::Cml,
        loss: LossConfig::Hinge { margin: 0.5 },
        epochs: 3,
        lr: 0.05,
        ..TrainConfig::smoke()
    });
    assert_eq!(
        head,
        vec![
            3175341352u32,
            3186593257,
            3197087429,
            3190296472,
            3203996887,
            1054568296,
            1016127716,
            1042516317
        ]
    );
    assert_eq!(ndcg, 0x3fd6f8e94c852306, "cml ndcg bits {ndcg:#018x}");
    let (ndcg, head) = fingerprint(TrainConfig {
        backbone: BackboneConfig::LightGcn { layers: 2 },
        loss: LossConfig::Bsl { tau1: 0.3, tau2: 0.15 },
        epochs: 3,
        ..TrainConfig::smoke()
    });
    assert_eq!(
        head,
        vec![
            3162406687u32,
            3177557200,
            3189601800,
            3179746627,
            3190663614,
            1046088670,
            3157327806,
            1038780154
        ]
    );
    assert_eq!(ndcg, 0x3fe3ddd399f156bb, "lightgcn ndcg bits {ndcg:#018x}");
}

#[test]
fn pool_sharded_paths_match_pre_pool_bits() {
    // The CML fingerprint was captured from the scoped-thread +
    // dense-GradBuffer sharded trainer *before* the persistent-pool engine
    // and the sparse batch-footprint `ShardGrad` landed: the pool-fed exact
    // path and its merge must replay that run bit for bit. The MF + SL one
    // did too until the loss's `exp` moved in-crate (see the file header).
    force_scalar();
    // MF at 4 shards (the sampled cosine path; threads = 3 is covered by
    // sharded_path_matches_pre_simd_bits above).
    let (ndcg, head) = fingerprint(TrainConfig { epochs: 3, threads: 4, ..TrainConfig::smoke() });
    assert_eq!(
        head,
        vec![
            1039595286u32,
            3190949683,
            3196074430,
            3163493843,
            3200018819,
            1052294363,
            3187344445,
            1048965526
        ],
        "4-shard user embedding bits drifted"
    );
    assert_eq!(ndcg, 0x3fcfc5d83800b2fc, "ndcg bits {ndcg:#018x}");
    // CML at 2 shards exercises the sharded NegSqDist branch, whose
    // per-shard accumulation now runs through `ShardGrad`.
    let (ndcg, head) = fingerprint(TrainConfig {
        backbone: BackboneConfig::Cml,
        loss: LossConfig::Hinge { margin: 0.5 },
        epochs: 3,
        lr: 0.05,
        threads: 2,
        ..TrainConfig::smoke()
    });
    assert_eq!(
        head,
        vec![
            3172413512u32,
            3187985239,
            3197142904,
            3190873487,
            3203958618,
            1054643012,
            1008492216,
            1042722254
        ],
        "sharded CML user embedding bits drifted from the pre-pool trainer"
    );
    assert_eq!(ndcg, 0x3fd719404a20e219, "cml ndcg bits {ndcg:#018x}");
}

#[test]
fn forced_scalar_replays_bit_for_bit() {
    force_scalar();
    let cfg = TrainConfig { epochs: 3, ..TrainConfig::smoke() };
    assert_eq!(fingerprint(cfg), fingerprint(cfg));
}

/// SGL and SimGCL (LightGCN plus an InfoNCE auxiliary over two views) on
/// the sampled path, serial and sharded. Both views are libm-free at this
/// level: edge dropout draws uniform floats and compares, the noise view
/// draws uniform floats and normalizes with `sqrt`, and InfoNCE runs
/// through `stats::softmax_into`. LightGCL is left out: its randomized SVD
/// draws its test matrix through `Matrix::gaussian`, whose Box–Muller
/// transform calls libm `ln` and `cos`, so its bits would pin the host.
#[test]
fn contrastive_paths_match_pinned_bits() {
    force_scalar();
    let sgl = BackboneConfig::Sgl { layers: 2, dropout: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 };
    let simgcl = BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 };
    const SGL_1: [u32; 8] = [
        3158481744, 3184671818, 3189068422, 3175220308, 3191188912, 1044309219, 3164121906,
        1033642241,
    ];
    const SGL_3: [u32; 8] = [
        3154202790, 3184099848, 3188901245, 3176414704, 3191164964, 1044791340, 3167425710,
        1033304838,
    ];
    const SIMGCL_1: [u32; 8] = [
        3157175760, 3185242643, 3189007648, 3174659294, 3191337611, 1044624032, 3164011990,
        1033922219,
    ];
    const SIMGCL_3: [u32; 8] = [
        3150186476, 3184813098, 3188844508, 3175856574, 3191246158, 1045030652, 3166885486,
        1033446075,
    ];
    for (backbone, threads, want_head, want_ndcg) in [
        (sgl, 1, SGL_1, 0x3fe36b40c4fbeb5a),
        (sgl, 3, SGL_3, 0x3fe32756ece555b0),
        (simgcl, 1, SIMGCL_1, 0x3fe2ff3d82ab3ae9),
        (simgcl, 3, SIMGCL_3, 0x3fe33fa8cd8ee25a),
    ] {
        let (ndcg, head) =
            fingerprint(TrainConfig { backbone, epochs: 3, threads, ..TrainConfig::smoke() });
        let label = format!("{}, {threads} threads", backbone.label());
        assert_eq!(head, want_head, "{label}: user embedding bits drifted");
        assert_eq!(ndcg, want_ndcg, "{label}: ndcg bits {ndcg:#018x}");
    }
}
