//! Persistent-pool trainer coverage, parameterized by `BSL_TEST_THREADS`
//! (default: one worker per core, floored at 2) so CI can run the whole
//! file at an explicit worker count (it pins 4).
//!
//! Reusing one `Trainer`'s long-lived pool across fits is bit-identical
//! to a fresh trainer per `(seed, threads)`, for sampled and in-batch
//! negatives; in-batch training is also bit-identical to `threads: 1`,
//! for MF and for LightGCN, LR-GCCF, SGL, SimGCL and LightGCL, whose
//! propagation and dense Adam run on the pool's lanes too.

use bsl_core::prelude::*;
use std::sync::Arc;

fn test_threads() -> usize {
    // Default: one worker per core, floored at 2 so the pool path always
    // runs even on single-core machines; CI pins 4 via the env var.
    std::env::var("BSL_TEST_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get().max(2)).unwrap_or(2)
    })
}

fn tiny() -> Arc<Dataset> {
    Arc::new(generate(&SynthConfig::tiny(1)))
}

#[test]
fn reused_pool_is_bit_identical_to_fresh_trainer() {
    let ds = tiny();
    let cfg = TrainConfig { epochs: 3, threads: test_threads(), ..TrainConfig::smoke() };
    let trainer = Trainer::new(cfg);
    let first = trainer.fit(&ds); // spawns the engine
    let reused = trainer.fit(&ds); // same trainer, pool reused
    let fresh = Trainer::new(cfg).fit(&ds); // fresh engine
    assert_eq!(
        first.user_emb.as_slice(),
        reused.user_emb.as_slice(),
        "pool reuse leaked state between fits"
    );
    assert_eq!(first.item_emb.as_slice(), reused.item_emb.as_slice());
    assert_eq!(first.user_emb.as_slice(), fresh.user_emb.as_slice());
    assert_eq!(first.item_emb.as_slice(), fresh.item_emb.as_slice());
    assert_eq!(first.best.ndcg(20), fresh.best.ndcg(20));
}

#[test]
fn exact_in_batch_pool_replays_per_thread_count() {
    let ds = tiny();
    let cfg = TrainConfig {
        sampling: SamplingConfig::InBatch,
        batch_size: 64,
        epochs: 3,
        threads: test_threads(),
        ..TrainConfig::smoke()
    };
    let a = Trainer::new(cfg).fit(&ds);
    let b = Trainer::new(cfg).fit(&ds);
    assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
    assert_eq!(a.best.ndcg(20), b.best.ndcg(20));
    // The in-batch step computes every gradient element in one order at any
    // worker count, so the serial trainer replays the pooled one exactly.
    let serial = Trainer::new(TrainConfig { threads: 1, ..cfg }).fit(&ds);
    assert_eq!(serial.user_emb.as_slice(), a.user_emb.as_slice(), "threads 1 vs pool");
    assert_eq!(serial.item_emb.as_slice(), a.item_emb.as_slice(), "threads 1 vs pool");
    assert_eq!(serial.best.ndcg(20), a.best.ndcg(20));
    // LightGCN also runs its propagation hops and dense Adam on the pool's
    // lanes, split by rows and 8-float runs, with the serial bits; a width
    // off the 8-float grid puts the Adam runs' cuts inside rows. LR-GCCF
    // runs the same hops with their residual, and the contrastive
    // backbones the same main graph plus their second view.
    let bits =
        |m: &bsl_linalg::Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ndcg = |o: &TrainOutcome| o.best.ndcg(20).to_bits();
    for backbone in [
        BackboneConfig::LightGcn { layers: 2 },
        BackboneConfig::LrGccf { layers: 2 },
        BackboneConfig::Sgl { layers: 2, dropout: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
        BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
        BackboneConfig::LightGcl { layers: 2, rank: 4, ssl_reg: 0.1, ssl_tau: 0.2 },
    ] {
        let gcn = TrainConfig { backbone, dim: 13, ..cfg };
        let name = backbone.label();
        let serial = Trainer::new(TrainConfig { threads: 1, ..gcn }).fit(&ds);
        for threads in [2, 3, test_threads()] {
            let pooled = Trainer::new(TrainConfig { threads, ..gcn }).fit(&ds);
            assert_eq!(bits(&pooled.user_emb), bits(&serial.user_emb), "{name}, {threads} threads");
            assert_eq!(bits(&pooled.item_emb), bits(&serial.item_emb), "{name}, {threads} threads");
            assert_eq!(ndcg(&pooled), ndcg(&serial), "{name}, {threads} threads");
        }
    }
}
