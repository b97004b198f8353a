//! Forced-scalar dispatch reproduces the pre-SIMD trainer bit for bit.
//!
//! This test binary pins the kernel dispatch to [`SimdLevel::Scalar`]
//! before any kernel runs (integration tests are separate processes, so
//! the forced level cannot leak into other suites) and replays every
//! trainer path against fingerprints captured from the repository state
//! *before* the SIMD kernel layer landed. The scalar implementations in
//! `bsl_linalg::simd::scalar` are the old loops verbatim and the blocked
//! kernels degrade to the old per-element order at this level, so every
//! bit must match.
//!
//! Caveat: the fingerprints also pass through `exp`/`ln` (the SL loss)
//! whose libm results are toolchain-dependent. If this test fails on a
//! platform with a different libm while `prop_*_matches_scalar` and the
//! `scalar_is_bit_identical_to_legacy_loops` tests in `bsl-linalg` pass,
//! regenerate the constants below by printing the listed fingerprints on
//! the target machine (the assert messages carry the actual values).
//!
//! The DCG discount comes from a literal table (`bsl_eval::metrics`), so
//! the NDCG half adds no libm call of its own. Every test asserts the
//! embedding bits before the NDCG bits: a failure names the half that
//! moved.

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
            1035045502u32,
            3191623225,
            3196157168,
            3166585937,
            3200081867,
            1050946762,
            3186930594,
            1049509365
        ],
        "user embedding bits drifted from the pre-SIMD trainer"
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
            1039595288u32,
            3190949683,
            3196074430,
            3163493841,
            3200018819,
            1052294363,
            3187344443,
            1048965526
        ],
        "sharded user embedding bits drifted from the pre-SIMD trainer"
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
            3194045809,
            3196547095,
            1013387067,
            3199845550,
            1050544641,
            3188773002,
            1050076958
        ]
    );
    assert_eq!(ndcg, 0x3fd1ab52e965d22b, "ndcg bits {ndcg:#018x}");
    let (ndcg_par, head_par) = fingerprint(TrainConfig { threads: 3, ..base });
    assert_eq!(
        head_par,
        vec![
            1038014144u32,
            3194045810,
            3196547096,
            1013387065,
            3199845550,
            1050544640,
            3188773002,
            1050076958
        ]
    );
    assert_eq!(ndcg_par, 0x3fd1ab52e965d22b, "ndcg bits {ndcg_par:#018x}");
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
            3162406683u32,
            3177557202,
            3189601800,
            3179746627,
            3190663614,
            1046088670,
            3157327806,
            1038780155
        ]
    );
    assert_eq!(ndcg, 0x3fe3ddd399f156ba, "lightgcn ndcg bits {ndcg:#018x}");
}

#[test]
fn pool_sharded_paths_match_pre_pool_bits() {
    // Fingerprints captured from the scoped-thread + dense-GradBuffer
    // sharded trainer *before* the persistent-pool engine and the sparse
    // batch-footprint `ShardGrad` landed: the pool-fed exact path and its
    // merge must replay those runs bit for bit.
    force_scalar();
    // MF at 4 shards (the sampled cosine path; threads = 3 is covered by
    // sharded_path_matches_pre_simd_bits above).
    let (ndcg, head) = fingerprint(TrainConfig { epochs: 3, threads: 4, ..TrainConfig::smoke() });
    assert_eq!(
        head,
        vec![
            1039595285u32,
            3190949683,
            3196074430,
            3163493841,
            3200018819,
            1052294363,
            3187344445,
            1048965526
        ],
        "4-shard user embedding bits drifted from the pre-pool trainer"
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
    assert_eq!(ndcg, 0x3fd719404a20e217, "cml ndcg bits {ndcg:#018x}");
}

#[test]
fn forced_scalar_replays_bit_for_bit() {
    force_scalar();
    let cfg = TrainConfig { epochs: 3, ..TrainConfig::smoke() };
    assert_eq!(fingerprint(cfg), fingerprint(cfg));
}
