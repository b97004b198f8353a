//! Table II — the paper's main comparison: ten standalone baselines plus
//! {BPR, BCE, MSE, SL, BSL} on {MF, NGCF, LightGCN}, four datasets,
//! Recall@20 / NDCG@20.
//!
//! NIA-GCN, DGCF and NCL are reported `n/a` (README's "Reproducing the
//! paper's figures and tables": reference points whose mechanisms exceed
//! a validatable from-scratch scope).

use super::common::{base_cfg, header, lgn, row, run, suite, tune_bsl, tune_sl, Scale, GCN_LAYERS};
use bsl_core::TrainConfig;
use bsl_data::Dataset;
use bsl_eval::evaluate;
use bsl_losses::LossConfig;
use bsl_models::enmf::{train_enmf, EnmfConfig};
use bsl_models::ultragcn::{train_ultragcn, UltraGcnConfig};
use bsl_models::{BackboneConfig, EvalScore};
use std::sync::Arc;

fn metric_pair(recall: f64, ndcg: f64) -> String {
    format!("{recall:.4}/{ndcg:.4}")
}

/// Standalone baseline rows (those not expressed as backbone × loss).
fn baselines(ds: &Arc<Dataset>, scale: Scale) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    // CML — metric learning.
    let cml = run(
        ds,
        TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            lr: 0.05,
            ..base_cfg(scale)
        },
    );
    rows.push(("CML".into(), metric_pair(cml.best.recall(20), cml.best.ndcg(20))));
    // ENMF — whole-data non-sampling MSE.
    let enmf_cfg = EnmfConfig {
        dim: scale.dim(),
        c0: 0.05,
        lr: 0.02,
        l2: 1e-6,
        epochs: scale.epochs() * 2,
        seed: 0,
    };
    let (ue, ie) = train_enmf(ds, &enmf_cfg);
    let rep = evaluate(ds, &ue, &ie, EvalScore::Dot, &[20]);
    rows.push(("ENMF".into(), metric_pair(rep.recall(20), rep.ndcg(20))));
    // SimpleX — MF + cosine contrastive loss.
    let simplex = run(
        ds,
        TrainConfig { loss: LossConfig::Ccl { margin: 0.4, neg_weight: 2.0 }, ..base_cfg(scale) },
    );
    rows.push(("SimpleX".into(), metric_pair(simplex.best.recall(20), simplex.best.ndcg(20))));
    // UltraGCN-lite.
    let ug_cfg = UltraGcnConfig {
        dim: scale.dim(),
        epochs: scale.epochs(),
        negatives: scale.negatives().min(64),
        batch_size: 512,
        lr: 5e-3,
        ..UltraGcnConfig::default()
    };
    let (uu, ui) = train_ultragcn(ds, &ug_cfg);
    let rep = evaluate(ds, &uu, &ui, EvalScore::Dot, &[20]);
    rows.push(("UltraGCN".into(), metric_pair(rep.recall(20), rep.ndcg(20))));
    // LR-GCCF, SGL, SimGCL and LightGCL with their native BPR (main) loss.
    let lr_gccf = ("LR-GCCF", BackboneConfig::LrGccf { layers: GCN_LAYERS });
    for (label, backbone) in std::iter::once(lr_gccf).chain(contrastive_backbones()) {
        let out = run(ds, TrainConfig { backbone, loss: LossConfig::Bpr, ..base_cfg(scale) });
        rows.push((label.into(), metric_pair(out.best.recall(20), out.best.ndcg(20))));
    }
    for missing in ["NIA-GCN", "DGCF", "NCL"] {
        rows.push((missing.into(), "n/a (see README, reproducing the paper)".into()));
    }
    rows
}

/// The three contrastive SOTA backbones with the paper-ish auxiliaries.
pub fn contrastive_backbones() -> Vec<(&'static str, BackboneConfig)> {
    vec![
        (
            "SGL",
            BackboneConfig::Sgl { layers: GCN_LAYERS, dropout: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
        ),
        (
            "SimGCL",
            BackboneConfig::SimGcl { layers: GCN_LAYERS, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
        ),
        (
            "LightGCL",
            BackboneConfig::LightGcl { layers: GCN_LAYERS, rank: 8, ssl_reg: 0.1, ssl_tau: 0.2 },
        ),
    ]
}

/// Prints the full Table-II grid.
pub fn run_exp(scale: Scale) {
    println!("\n## Table II — overall comparison (Recall@20/NDCG@20)\n");
    for ds in suite(scale) {
        println!("\n### {}\n", ds.name);
        header(&["Model", "Recall@20/NDCG@20"]);
        for (label, cell) in baselines(&ds, scale) {
            row(&[label, cell]);
        }
        for (bb_label, backbone) in [
            ("MF", BackboneConfig::Mf),
            ("NGCF", BackboneConfig::Ngcf { layers: GCN_LAYERS }),
            ("LGN", lgn()),
        ] {
            let base = TrainConfig { backbone, ..base_cfg(scale) };
            for (loss_label, loss) in [
                ("BPR", LossConfig::Bpr),
                ("BCE", LossConfig::Bce { neg_weight: 1.0 }),
                ("MSE", LossConfig::Mse { neg_weight: 1.0 }),
            ] {
                let out = run(&ds, TrainConfig { loss, ..base });
                row(&[
                    format!("{bb_label}+{loss_label}"),
                    metric_pair(out.best.recall(20), out.best.ndcg(20)),
                ]);
            }
            let (tau, sl) = tune_sl(&ds, base, scale);
            row(&[
                format!("{bb_label}+SL (τ={tau})"),
                metric_pair(sl.best.recall(20), sl.best.ndcg(20)),
            ]);
            let ((t1, t2), bsl) = tune_bsl(&ds, base, scale);
            row(&[
                format!("{bb_label}+BSL (τ1={t1:.2},τ2={t2})"),
                metric_pair(bsl.best.recall(20), bsl.best.ndcg(20)),
            ]);
        }
    }
    println!("\nShape check: SL ≫ {{BPR,BCE,MSE}} on every backbone; BSL ≥ SL throughout.");
}
