//! Workspace-level smoke test for the loss zoo's gradient contract.
//!
//! Every [`bsl_losses::RankingLoss`] implementation promises exact analytic
//! gradients. This test instantiates each loss through the public
//! [`bsl_losses::LossConfig`] selector (so newly added variants are pulled
//! in automatically as long as they are wired into `build`) and checks the
//! analytic gradients against central finite differences from
//! `bsl_losses::fd` on several deterministic batches, and that the row
//! phase over any chunking, the batch phase and the row factors give the
//! bits of `compute`.

use bsl_losses::fd::{assert_grads_match, synthetic_scores};
use bsl_losses::{build, scale_rows, LossConfig, RowTerm, ScoreBatch};

/// Every config variant the loss zoo exposes. Keep in sync with
/// `LossConfig`; `build_constructs_every_variant` in `bsl-losses` guards
/// the name list, this list guards the gradient contract.
fn all_configs() -> Vec<LossConfig> {
    vec![
        LossConfig::Bpr,
        LossConfig::Bce { neg_weight: 0.7 },
        LossConfig::Mse { neg_weight: 1.3 },
        LossConfig::Sl { tau: 0.2 },
        LossConfig::Bsl { tau1: 0.15, tau2: 0.1 },
        LossConfig::Ccl { margin: 0.4, neg_weight: 1.5 },
        LossConfig::Hinge { margin: 0.5 },
        LossConfig::TaylorSl { tau: 0.25, with_variance: true },
        LossConfig::TaylorSl { tau: 0.25, with_variance: false },
    ]
}

#[test]
fn every_loss_matches_finite_differences() {
    // (batch, negatives-per-row, seed) combinations exercising B = 1,
    // m = 1, and non-trivial shapes.
    let shapes = [(1usize, 1usize, 11u64), (3, 4, 23), (8, 2, 57), (5, 7, 91)];
    for cfg in all_configs() {
        let loss = build(cfg);
        for &(b, m, seed) in &shapes {
            let (pos, neg) = synthetic_scores(b, m, seed);
            assert_grads_match(loss.as_ref(), &pos, &neg, m, 2e-2);
        }
    }
}

#[test]
fn gradients_are_finite_at_extreme_scores() {
    // Saturated scores (±1 after cosine normalisation) must not produce
    // NaN/Inf gradients in any loss.
    let pos = [0.999f32, -0.999, 0.0];
    let neg = [0.999f32, -0.999, 0.5, -0.5, 0.0, 0.25];
    for cfg in all_configs() {
        let loss = build(cfg);
        let out = loss.compute(&bsl_losses::ScoreBatch::new(&pos, &neg, 2));
        assert!(out.loss.is_finite(), "{}: non-finite loss", loss.name());
        assert!(
            out.grad_pos.iter().chain(out.grad_neg.iter()).all(|g| g.is_finite()),
            "{}: non-finite gradient",
            loss.name()
        );
    }
}

/// SL and BSL at the temperatures the cases below share.
fn softmax_family() -> [LossConfig; 2] {
    [LossConfig::Sl { tau: 0.2 }, LossConfig::Bsl { tau1: 0.15, tau2: 0.1 }]
}

fn ulps_apart(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn all_equal_scores_give_uniform_weights_and_the_closed_form_loss() {
    // Every row: positive 0.4, seven negatives at 0.25. Log-mean-exp of a
    // constant is the constant, so both losses are 0.25 − 0.4 and every
    // negative carries 1/(B·m).
    let (b, m) = (5usize, 7usize);
    let (pos, neg) = (vec![0.4f32; b], vec![0.25f32; b * m]);
    for cfg in softmax_family() {
        let loss = build(cfg);
        let out = loss.compute(&bsl_losses::ScoreBatch::new(&pos, &neg, m));
        let want = 0.25f32 as f64 - 0.4f32 as f64;
        assert!((out.loss - want).abs() < 1e-12, "{}: loss {} vs {want}", loss.name(), out.loss);
        for &g in &out.grad_pos {
            assert!(ulps_apart(g, -1.0 / b as f32) <= 1, "{}: grad_pos {g}", loss.name());
        }
        for &g in &out.grad_neg {
            assert!(ulps_apart(g, 1.0 / (b * m) as f32) <= 1, "{}: grad_neg {g}", loss.name());
        }
    }
}

#[test]
fn a_single_negative_carries_the_whole_row_weight() {
    // m = 1: the softmax weight is exactly 1 and lse = n/τ, so the row's
    // negative gradient is its positive gradient negated, bit for bit, and
    // SL is the plain mean of n − p.
    let (pos, neg) = synthetic_scores(6, 1, 5);
    for cfg in softmax_family() {
        let loss = build(cfg);
        let out = loss.compute(&bsl_losses::ScoreBatch::new(&pos, &neg, 1));
        for (gp, gn) in out.grad_pos.iter().zip(out.grad_neg.iter()) {
            assert_eq!(gn.to_bits(), (-gp).to_bits(), "{}", loss.name());
        }
        if let LossConfig::Sl { .. } = cfg {
            let want: f64 =
                pos.iter().zip(neg.iter()).map(|(&p, &n)| n as f64 - p as f64).sum::<f64>() / 6.0;
            assert!((out.loss - want).abs() < 1e-12, "SL loss {} vs {want}", out.loss);
        }
    }
}

#[test]
fn a_negative_that_ties_its_rows_positive_keeps_the_gradient_contract() {
    // The in-batch false negative of the paper's §IV-B (and arXiv
    // 2201.02327): the same item is another row's positive, so row 0 and
    // row 2 each meet their own positive score among their negatives.
    let pos = [0.62f32, -0.1, 0.62, 0.3];
    let mut neg = Vec::new();
    for row in 0..4 {
        neg.extend((0..4).filter(|&other| other != row).map(|other| pos[other]));
    }
    for cfg in softmax_family() {
        let loss = build(cfg);
        assert_grads_match(loss.as_ref(), &pos, &neg, 3, 2e-2);
        let out = loss.compute(&bsl_losses::ScoreBatch::new(&pos, &neg, 3));
        // The tie is the row's maximum: it takes the largest weight.
        assert!(out.grad_neg[1] >= out.grad_neg[0] && out.grad_neg[1] >= out.grad_neg[2]);
    }
}

#[test]
fn a_tiny_negative_temperature_flushes_far_negatives_to_exact_zeros() {
    // τ2 = 0.001: a negative more than 0.087 below its row's maximum is past
    // the exp cut-off. `Backward::backward_rows` skips on `g == 0.0`, so
    // those entries must be +0.0 itself.
    let (b, m) = (8usize, 16usize);
    let (pos, neg) = synthetic_scores(b, m, 41);
    for cfg in [LossConfig::Sl { tau: 0.001 }, LossConfig::Bsl { tau1: 0.15, tau2: 0.001 }] {
        let loss = build(cfg);
        let out = loss.compute(&bsl_losses::ScoreBatch::new(&pos, &neg, m));
        assert!(out.loss.is_finite(), "{}", loss.name());
        let zeros = out.grad_neg.iter().filter(|g| g.to_bits() == 0).count();
        assert!(zeros > b * m / 2, "{}: {zeros} zero grad_neg entries", loss.name());
        assert!(out.grad_neg.iter().all(|&g| g >= 0.0 && !g.is_sign_negative()), "{}", loss.name());
        for (row, gp) in out.grad_pos.iter().enumerate() {
            let mass: f64 = out.grad_neg[row * m..(row + 1) * m].iter().map(|&g| g as f64).sum();
            assert!((mass + *gp as f64).abs() < 1e-6, "{}: row {row} mass {mass}", loss.name());
        }
    }
}

/// Cuts `n` rows into consecutive chunks of the given lengths.
fn chunks_of(lens: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut start = 0;
    lens.iter()
        .map(|&len| {
            start += len;
            start - len..start
        })
        .collect()
}

#[test]
fn chunked_loss_phases_replay_compute_bit_for_bit() {
    // A trainer runs the row phase and the row factors over its row chunks
    // and the batch phase once. Every output buffer starts as NaN, as stale
    // step scratch would, so an entry a phase forgets to write, or a term a
    // batch phase reads that its row phase never wrote, shows as a mismatch.
    for cfg in all_configs() {
        let loss = build(cfg);
        for b in [1usize, 7, 64] {
            for m in [1usize, 5, 63] {
                let (pos, neg) = synthetic_scores(b, m, (b * 131 + m) as u64);
                let batch = ScoreBatch::new(&pos, &neg, m);
                let want = loss.compute(&batch);
                let chunkings = [
                    chunks_of(&[b]),
                    chunks_of(&[b / 2, b - b / 2]),
                    chunks_of(&[b / 5, b / 2, b - b / 5 - b / 2]),
                    chunks_of(&vec![1; b]),
                ];
                for chunks in chunkings {
                    let label = format!("{} B={b} m={m} chunks={chunks:?}", loss.name());
                    let mut grad_pos = vec![f32::NAN; b];
                    let mut grad_neg = vec![f32::NAN; b * m];
                    let mut terms = vec![RowTerm(f64::NAN, f64::NAN); b];
                    let mut scales = vec![f32::NAN; b];
                    for rows in &chunks {
                        loss.row_phase(
                            &batch,
                            rows.clone(),
                            &mut grad_pos[rows.clone()],
                            &mut grad_neg[rows.start * m..rows.end * m],
                            &mut terms[rows.clone()],
                        );
                    }
                    let value = loss.batch_phase(&batch, &terms, &mut grad_pos, &mut scales);
                    for rows in &chunks {
                        let gn = &mut grad_neg[rows.start * m..rows.end * m];
                        scale_rows(&scales[rows.clone()], gn, m);
                    }
                    assert_eq!(value.to_bits(), want.loss.to_bits(), "{label}: loss");
                    let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&grad_pos), bits(&want.grad_pos), "{label}: grad_pos");
                    assert_eq!(bits(&grad_neg), bits(&want.grad_neg), "{label}: grad_neg");
                }
            }
        }
    }
}
