//! `repro --save` / `--serve`: round-trip a trained model through the
//! artifact format on disk and answer retrieval queries from the loaded
//! copy — the end-to-end proof that the train→serve boundary works
//! outside the test suite.
//!
//! Both halves regenerate the same deterministic Yelp-shaped dataset, so
//! `--serve` can rebuild the seen-item mask and name the held-out test
//! items next to what the loaded model actually retrieves.

use super::common::{base_cfg, Scale};
use bsl_core::prelude::*;
use bsl_data::synth::{generate, SynthConfig};
use bsl_serve::{RecommendRequest, ServeOptions, ServeScratch, ServeState};
use std::sync::Arc;

/// The dataset both halves of the round trip agree on.
fn demo_dataset() -> Arc<Dataset> {
    Arc::new(generate(&SynthConfig::yelp_like(7)))
}

/// Trains MF + BSL at `scale`, exports the best epoch's artifact, and
/// saves it to `path`. With `ann`, the artifact is saved in the format-v2
/// production configuration: int8-quantized item table plus an IVF index
/// at the default `nlist` — what `--serve` then probes sub-linearly.
pub fn save(path: &str, scale: Scale, ann: bool) {
    let ds = demo_dataset();
    println!("# Artifact save — {} — {}", ds.name, ds.stats());
    let cfg = TrainConfig { loss: LossConfig::Bsl { tau1: 0.3, tau2: 0.15 }, ..base_cfg(scale) };
    println!("training {} …", cfg.label());
    let out = Trainer::new(cfg).fit(&ds);
    println!("best epoch {} — NDCG@20 {:.4}", out.best_epoch, out.best.ndcg(20));
    let mut art = out.artifact;
    if ann {
        art = art.quantize();
        art.build_default_ivf();
        let ix = art.index().expect("build_default_ivf attaches an index");
        println!(
            "quantized items to int8 and built IVF index: nlist {}, default nprobe {}",
            ix.nlist(),
            ix.default_nprobe()
        );
    }
    art.save(path).unwrap_or_else(|e| panic!("saving artifact to {path}: {e}"));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {path}: backbone {} ({:?}), {} users × {} items, dim {}, {:?} items, {:.1} MiB",
        art.backbone(),
        art.similarity(),
        art.n_users(),
        art.n_items(),
        art.dim(),
        art.precision(),
        bytes as f64 / (1024.0 * 1024.0)
    );
}

/// Loads the artifact at `path` and prints top-10 recommendations for a
/// few evaluable users, flagging retrieved items that are test-split hits.
/// `nprobe` overrides the IVF probe width (the artifact must carry an
/// index — save it with `--ann`); `None` keeps the automatic mode.
pub fn serve(path: &str, nprobe: Option<usize>) {
    let art = ModelArtifact::load(path).unwrap_or_else(|e| panic!("loading {path}: {e}"));
    println!(
        "# Artifact serve — {path}: backbone {} ({:?}), {} users × {} items, dim {}, {:?} items",
        art.backbone(),
        art.similarity(),
        art.n_users(),
        art.n_items(),
        art.dim(),
        art.precision()
    );
    let ds = demo_dataset();
    let state = ServeState::with_seen(art, &ds);
    let opts = match nprobe {
        Some(np) => {
            assert!(
                state.artifact().index().is_some(),
                "--nprobe needs an IVF-indexed artifact (save it with --ann)"
            );
            ServeOptions::with_nprobe(np)
        }
        None => ServeOptions::default(),
    };
    match state.resolve(&opts) {
        None => println!("retrieval: exact full scan"),
        Some(nprobe) => {
            let nlist = state.artifact().index().expect("IVF mode implies an index").nlist();
            println!("retrieval: IVF, probing {nprobe} of {nlist} lists");
        }
    }
    let users: Vec<u32> = ds.evaluable_users().into_iter().take(4).collect();
    let k = 10;
    let reqs: Vec<RecommendRequest> =
        users.iter().map(|&user| RecommendRequest { user, k, opts }).collect();
    let mut scratch = ServeScratch::new();
    let mut batched = Vec::new();
    state.recommend_batch_into(&reqs, &mut scratch, &mut batched);
    for (u, recs) in users.iter().zip(&batched) {
        let test = ds.test_items(*u as usize);
        println!(
            "\nuser {u} (train {} items, test {} items) — top {k}:",
            ds.train_items(*u as usize).len(),
            test.len()
        );
        for (rank, r) in recs.iter().enumerate() {
            let hit = if test.binary_search(&r.item).is_ok() { "  << test hit" } else { "" };
            println!("  {:>2}. item {:>6}  score {:+.4}{hit}", rank + 1, r.item, r.score);
        }
    }
}
