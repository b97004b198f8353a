//! Quickstart: generate a synthetic implicit-feedback dataset, train
//! matrix factorization with the paper's Bilateral Softmax Loss, report
//! ranking quality, then freeze the model into a `ModelArtifact` and
//! serve recommendations from it.
//!
//! ```text
//! cargo run --release -p bsl-core --example quickstart
//! ```

use bsl_core::prelude::*;
use bsl_serve::{RecommendRequest, ServeScratch, ServeState};
use std::sync::Arc;

fn main() {
    // A Yelp2018-shaped synthetic dataset (see README's "Reproducing the
    // paper's figures and tables" for why the real logs are substituted).
    let ds = Arc::new(generate(&SynthConfig::yelp_like(42)));
    println!("dataset: {} — {}", ds.name, ds.stats());

    // Train MF + BSL with the paper's protocol (cosine training scores,
    // uniform negative sampling, Adam).
    let cfg = TrainConfig {
        backbone: BackboneConfig::Mf,
        loss: LossConfig::Bsl { tau1: 0.3, tau2: 0.15 },
        dim: 32,
        epochs: 25,
        negatives: 64,
        ..TrainConfig::paper_default()
    };
    println!("training {} …", cfg.label());
    let out = Trainer::new(cfg).fit(&ds);

    println!("\nbest epoch {}:", out.best_epoch);
    print!("{}", out.best);
    println!("\nloss trajectory (every 5 epochs):");
    for s in out.history.iter().step_by(5) {
        println!("  epoch {:>3}  loss {:.4}", s.epoch, s.loss);
    }

    // Freeze the best epoch into a servable artifact and answer a query.
    // (`out.artifact.save(path)` / `ModelArtifact::load(path)` round-trips
    // the same tables through disk — see `repro --save` / `--serve`.)
    let art = &out.artifact;
    println!(
        "\nserving artifact: backbone {} ({:?}), {} users × {} items, dim {}",
        art.backbone(),
        art.similarity(),
        art.n_users(),
        art.n_items(),
        art.dim()
    );
    let state = ServeState::with_seen(art.clone(), &ds);
    let user = ds.evaluable_users()[0];
    let resp = state.respond(&RecommendRequest::new(user, 5), &mut ServeScratch::new());
    println!("top-5 for user {user}:");
    for r in resp.expect("an evaluable user is in range").recs {
        println!("  item {:>6}  score {:+.4}", r.item, r.score);
    }
}
