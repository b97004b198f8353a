//! The train→serve boundary, end to end: a trained model exports a
//! `ModelArtifact`, the artifact round-trips through the on-disk codec
//! bit for bit, a `ServeState` over the loaded copy answers exactly what
//! the in-memory model would, and corrupted/truncated files are rejected.
//!
//! Format v1 (plain f32, no index) is pinned against a hand-built golden
//! fixture; format v2 (int8 tables / IVF index) gets its own corruption
//! battery, and both formats share one deterministic byte-flip sweep:
//! flipping *any* single byte of an encoded artifact must be rejected.

use bsl_core::prelude::*;
use bsl_models::{ArtifactError, EvalScore, Precision};
use bsl_serve::{Rec, RecommendRequest, ServeScratch, ServeState};
use std::sync::Arc;

/// FNV-1a 64 as the format specifies it (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`, over every byte from offset 16 on) — implemented
/// locally so these tests pin the *spec*, not the codec's own helper.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// Re-stamps the checksum field after a deliberate mutation, so a test can
/// reach the semantic validation *behind* the checksum.
fn restamp(bytes: &mut [u8]) {
    let sum = fnv1a64(&bytes[16..]);
    bytes[8..16].copy_from_slice(&sum.to_le_bytes());
}

/// Deterministic single-byte-flip sweep shared by the v1 and v2 tests:
/// every header byte and a stride of payload bytes get flipped with two
/// masks (low bit, high bit), and every mutation must fail to decode —
/// there is no single-byte corruption the codec accepts.
fn assert_byte_flip_sweep(bytes: &[u8], label: &str) {
    assert!(ModelArtifact::from_bytes(bytes).is_ok(), "{label}: pristine fixture must decode");
    let stride = (bytes.len() / 199).max(1);
    let offsets = (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(stride));
    for at in offsets {
        for mask in [0x01u8, 0x80] {
            let mut b = bytes.to_vec();
            b[at] ^= mask;
            assert!(
                ModelArtifact::from_bytes(&b).is_err(),
                "{label}: flipping byte {at} with mask {mask:#04x} was accepted"
            );
        }
    }
}

fn tiny() -> Arc<Dataset> {
    Arc::new(generate(&SynthConfig::tiny(1)))
}

fn train(ds: &Arc<Dataset>, backbone: BackboneConfig, loss: LossConfig) -> TrainOutcome {
    let cfg =
        TrainConfig { backbone, loss, epochs: 6, negatives: 8, lr: 0.03, ..TrainConfig::smoke() };
    Trainer::new(cfg).fit(ds)
}

/// Top-10 lists for `users`, served from `art` with `ds`'s training
/// items filtered out (the default retrieval mode).
fn top10(art: ModelArtifact, ds: &Dataset, users: &[u32]) -> Vec<Vec<Rec>> {
    let reqs: Vec<RecommendRequest> = users.iter().map(|&u| RecommendRequest::new(u, 10)).collect();
    let mut out = Vec::new();
    ServeState::with_seen(art, ds).recommend_batch_into(&reqs, &mut ServeScratch::new(), &mut out);
    out
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bsl-artifact-it");
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir.join(name)
}

#[test]
fn save_load_recommend_is_bit_identical_to_live_model() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Bsl { tau1: 0.5, tau2: 0.15 });

    let path = tmp_path("mf.bsla");
    out.artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // The codec is lossless: tables identical to the last bit.
    assert_eq!(loaded.users().as_slice(), out.artifact.users().as_slice());
    assert_eq!(loaded.items().as_slice(), out.artifact.items().as_slice());
    assert_eq!(loaded.backbone(), out.artifact.backbone());
    assert_eq!(loaded.similarity(), out.artifact.similarity());

    // The loaded artifact must also reproduce a *fresh* export of the
    // live model's raw embeddings — i.e. disk round trip ≡ in-memory
    // model, not just disk ≡ disk.
    let fresh = ModelArtifact::from_embeddings("MF", &out.user_emb, &out.item_emb, out.eval_score);
    assert_eq!(loaded.users().as_slice(), fresh.users().as_slice());
    assert_eq!(loaded.items().as_slice(), fresh.items().as_slice());

    // recommend(user, k): identical item ids AND identical score bits.
    let users: Vec<u32> = (0..ds.n_users as u32).collect();
    let live = top10(out.artifact.clone(), &ds, &users);
    for (a, b) in live.iter().zip(&top10(loaded, &ds, &users)) {
        assert_eq!(a, b, "loaded artifact must serve bit-identical recommendations");
    }
}

#[test]
fn eval_metrics_through_artifact_path_are_unchanged() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });

    // The training loop's best report came from the same artifact path —
    // evaluate_on must reproduce it exactly.
    let re = out.evaluate_on(&ds, &[5, 10, 15, 20]);
    assert_eq!(re.ndcg(20), out.best.ndcg(20));
    assert_eq!(re.recall(20), out.best.recall(20));

    // And a disk round trip changes nothing.
    let path = tmp_path("mf-eval.bsla");
    out.artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let rl = evaluate_artifact(&ds, &loaded, &[5, 10, 15, 20]);
    assert_eq!(rl.ndcg(20), out.best.ndcg(20));
    assert_eq!(rl.recall(10), re.recall(10));
}

#[test]
fn cml_artifact_round_trips_with_the_distance_augmentation() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Cml, LossConfig::Hinge { margin: 0.5 });
    assert_eq!(out.eval_score, EvalScore::NegSqDist);
    assert_eq!(out.artifact.dim(), out.user_emb.cols() + 1, "augmentation baked into the export");

    let path = tmp_path("cml.bsla");
    out.artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let users: Vec<u32> = ds.evaluable_users();
    assert_eq!(top10(out.artifact.clone(), &ds, &users), top10(loaded, &ds, &users));
}

#[test]
fn corrupted_and_truncated_files_are_rejected() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });
    let bytes = out.artifact.to_bytes();

    // Bad magic.
    let path = tmp_path("bad-magic.bsla");
    let mut b = bytes.clone();
    b[0] = b'Z';
    std::fs::write(&path, &b).expect("write");
    assert!(matches!(ModelArtifact::load(&path), Err(ArtifactError::BadMagic)));

    // Corrupted header field (dim), checksum re-stamped NOT — must trip
    // the checksum or size validation, never decode garbage.
    let mut b = bytes.clone();
    b[36] ^= 0x02;
    std::fs::write(&path, &b).expect("write");
    assert!(ModelArtifact::load(&path).is_err());

    // Flipped payload byte deep in the item table.
    let mut b = bytes.clone();
    let last = b.len() - 3;
    b[last] ^= 0x10;
    std::fs::write(&path, &b).expect("write");
    assert!(matches!(ModelArtifact::load(&path), Err(ArtifactError::ChecksumMismatch)));

    // Truncated file (half the payload gone).
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
    assert!(matches!(ModelArtifact::load(&path), Err(ArtifactError::Truncated { .. })));

    // Missing file surfaces as Io.
    std::fs::remove_file(&path).ok();
    assert!(matches!(ModelArtifact::load(&path), Err(ArtifactError::Io(_))));

    // The pristine bytes still decode (the fixture itself is valid).
    assert!(ModelArtifact::from_bytes(&bytes).is_ok());
}

// ---------------------------------------------------------------------------
// Format v1 pinning + shared byte-flip sweep
// ---------------------------------------------------------------------------

/// Builds the documented v1 byte stream for a 1×1 (dim 2) artifact *by
/// hand*, then asserts the encoder still produces exactly those bytes and
/// the decoder still reads them — the v1 wire format is frozen.
#[test]
fn v1_golden_fixture_is_byte_for_byte_stable() {
    use bsl_linalg::Matrix;
    let users = Matrix::from_vec(1, 2, vec![0.5, -1.25]);
    let items = Matrix::from_vec(1, 2, vec![2.0, 0.25]);
    let art = bsl_models::ModelArtifact::from_prepared("M", EvalScore::Dot, users, items);

    let mut golden = Vec::new();
    golden.extend_from_slice(b"BSLA"); //                    0: magic
    golden.extend_from_slice(&1u32.to_le_bytes()); //        4: version
    golden.extend_from_slice(&0u64.to_le_bytes()); //        8: checksum (stamped below)
    golden.push(0); //                                      16: similarity = dot
    golden.push(1); //                                      17: label length
    golden.extend_from_slice(&[0, 0]); //                   18: reserved
    golden.extend_from_slice(&1u64.to_le_bytes()); //       20: n_users
    golden.extend_from_slice(&1u64.to_le_bytes()); //       28: n_items
    golden.extend_from_slice(&2u64.to_le_bytes()); //       36: dim
    golden.extend_from_slice(b"M"); //                      44: label
    for v in [0.5f32, -1.25, 2.0, 0.25] {
        golden.extend_from_slice(&v.to_le_bytes());
    }
    restamp(&mut golden);

    assert_eq!(art.to_bytes(), golden, "v1 encoding drifted from the documented layout");
    let back = ModelArtifact::from_bytes(&golden).expect("golden v1 fixture must decode");
    assert_eq!(back.users().as_slice(), &[0.5, -1.25]);
    assert_eq!(back.items().as_slice(), &[2.0, 0.25]);
}

#[test]
fn any_single_byte_flip_is_rejected_at_both_format_versions() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });

    // v1: plain f32, no index.
    assert_byte_flip_sweep(&out.artifact.to_bytes(), "v1/f32");

    // v2: int8 tables + IVF index (flags = 0b11).
    let mut v2 = out.artifact.quantize();
    v2.build_ivf(5);
    assert_byte_flip_sweep(&v2.to_bytes(), "v2/int8+index");

    // v2: index only (flags = 0b10) — the f32-with-index combination.
    let mut ixonly = out.artifact.clone();
    ixonly.build_ivf(5);
    assert_byte_flip_sweep(&ixonly.to_bytes(), "v2/f32+index");
}

// ---------------------------------------------------------------------------
// Format v2 corruption battery
// ---------------------------------------------------------------------------

/// The v2 fixture shared by the battery: a trained, quantized, indexed
/// artifact plus the byte offsets of its payload sections (computed from
/// the documented layout).
struct V2Fixture {
    bytes: Vec<u8>,
    /// Start of the item-scale array (int8 artifacts only).
    item_scales_at: usize,
    /// Start of the quantized item rows.
    item_rows_at: usize,
    /// Start of the index section (CSR offsets, then list items, then
    /// centroids).
    index_at: usize,
    nlist: usize,
    n_items: usize,
}

fn v2_fixture() -> V2Fixture {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });
    let mut art = out.artifact.quantize();
    art.build_ivf(6);
    let (n_users, n_items, dim) = (art.n_users(), art.n_items(), art.dim());
    let label_len = art.backbone().len();
    let tables_at = 52 + label_len;
    let item_scales_at = tables_at + n_users * dim * 4;
    let item_rows_at = item_scales_at + n_items * 4;
    let index_at = item_rows_at + n_items * dim;
    V2Fixture {
        bytes: art.to_bytes(),
        item_scales_at,
        item_rows_at,
        index_at,
        nlist: art.index().expect("index").nlist(),
        n_items,
    }
}

#[test]
fn v2_rejects_truncated_inverted_lists() {
    let fx = v2_fixture();
    let total = fx.bytes.len();
    // Cut inside the index section: mid-offsets, mid-list-items, and just
    // one byte short — every cut must be caught by the declared-size check
    // (no partial index is ever decoded).
    let list_items_at = fx.index_at + (fx.nlist + 1) * 8;
    for cut in [fx.index_at + 4, list_items_at + 2 * fx.n_items, total - 1] {
        assert!(
            matches!(
                ModelArtifact::from_bytes(&fx.bytes[..cut]),
                Err(ArtifactError::Truncated { expected, got }) if expected == total && got == cut
            ),
            "cut at {cut} must be rejected as truncated"
        );
    }
}

#[test]
fn v2_rejects_flipped_quantized_payload_bytes() {
    let fx = v2_fixture();
    for at in [fx.item_rows_at, fx.item_rows_at + 31, fx.index_at - 1] {
        let mut b = fx.bytes.clone();
        b[at] ^= 0x20;
        assert!(
            matches!(ModelArtifact::from_bytes(&b), Err(ArtifactError::ChecksumMismatch)),
            "flipped quantized byte at {at} must trip the checksum"
        );
    }
}

#[test]
fn v2_rejects_out_of_range_scale_rows() {
    let fx = v2_fixture();
    for bad in [f32::NAN, f32::INFINITY, -1.0] {
        let mut b = fx.bytes.clone();
        b[fx.item_scales_at..fx.item_scales_at + 4].copy_from_slice(&bad.to_le_bytes());
        restamp(&mut b); // authentic checksum: reach the semantic check
        assert!(
            matches!(
                ModelArtifact::from_bytes(&b),
                Err(ArtifactError::Malformed("quantization scale out of range"))
            ),
            "scale {bad} must be rejected"
        );
    }
}

#[test]
fn v2_rejects_unknown_version_before_reading_size_fields() {
    let fx = v2_fixture();
    let mut b = fx.bytes.clone();
    b[4..8].copy_from_slice(&9u32.to_le_bytes());
    // Poison every size field with u64::MAX: if the decoder consulted them
    // before the version gate, it would report overflow/truncation (or try
    // to allocate) instead of the version error.
    for at in [20, 28, 36, 44] {
        b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    }
    restamp(&mut b);
    assert!(matches!(ModelArtifact::from_bytes(&b), Err(ArtifactError::UnsupportedVersion(9))));
}

#[test]
fn v2_size_validation_precedes_any_alloc_by_header() {
    let fx = v2_fixture();
    // Claim an absurd catalogue (2^40 items) with an authentic checksum:
    // the checked total-size arithmetic must reject it from the real byte
    // count alone — if the decoder allocated by header first, this test
    // would OOM rather than return an error.
    let mut b = fx.bytes.clone();
    b[28..36].copy_from_slice(&(1u64 << 40).to_le_bytes());
    restamp(&mut b);
    assert!(matches!(
        ModelArtifact::from_bytes(&b),
        Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::Malformed(_))
    ));
}

#[test]
fn v2_rejects_unknown_flag_bits() {
    let fx = v2_fixture();
    let mut b = fx.bytes.clone();
    b[18] |= 0x04;
    restamp(&mut b);
    assert!(matches!(
        ModelArtifact::from_bytes(&b),
        Err(ArtifactError::Malformed("unknown flag bits"))
    ));
}

#[test]
fn v2_rejects_phantom_nlist_without_index_flag() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });
    // int8-only v2 artifact: nlist field must be zero.
    let mut b = out.artifact.quantize().to_bytes();
    b[44..52].copy_from_slice(&3u64.to_le_bytes());
    restamp(&mut b);
    assert!(matches!(
        ModelArtifact::from_bytes(&b),
        Err(ArtifactError::Malformed("nonzero nlist without index flag"))
    ));
}

#[test]
fn v2_rejects_corrupt_inverted_list_structure() {
    let fx = v2_fixture();
    let list_items_at = fx.index_at + (fx.nlist + 1) * 8;
    // Duplicate the second list entry over the first (checksum re-stamped,
    // so only the partition validation can catch it).
    let mut b = fx.bytes.clone();
    let dup: [u8; 4] = b[list_items_at + 4..list_items_at + 8].try_into().expect("4 bytes");
    b[list_items_at..list_items_at + 4].copy_from_slice(&dup);
    restamp(&mut b);
    assert!(matches!(ModelArtifact::from_bytes(&b), Err(ArtifactError::Malformed(_))));

    // Non-monotone CSR offsets.
    let mut b = fx.bytes.clone();
    b[fx.index_at + 8..fx.index_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    restamp(&mut b);
    assert!(matches!(ModelArtifact::from_bytes(&b), Err(ArtifactError::Malformed(_))));
}

#[test]
fn v2_round_trips_every_flag_combination_through_disk() {
    let ds = tiny();
    let out = train(&ds, BackboneConfig::Mf, LossConfig::Sl { tau: 0.15 });
    let mut indexed = out.artifact.clone();
    indexed.build_ivf(4);
    let mut both = out.artifact.quantize();
    both.build_ivf(4);
    for (name, art) in [("int8", out.artifact.quantize()), ("index", indexed), ("int8+index", both)]
    {
        let path = tmp_path(&format!("v2-{name}.bsla"));
        art.save(&path).expect("save");
        let back = ModelArtifact::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.precision(), art.precision(), "{name}");
        assert_eq!(back.index().is_some(), art.index().is_some(), "{name}");
        // Served answers are identical to the in-memory artifact's.
        let users: Vec<u32> = (0..ds.n_users as u32).collect();
        assert_eq!(
            top10(art, &ds, &users),
            top10(back, &ds, &users),
            "{name}: loaded v2 artifact must serve identically"
        );
    }
    // Precision survives: an int8 fixture really is int8.
    assert_eq!(out.artifact.quantize().precision(), Precision::Int8);
}
