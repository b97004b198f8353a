//! Experiment configuration types.

use bsl_losses::LossConfig;
use bsl_models::BackboneConfig;
use serde::{Deserialize, Serialize};

/// Negative-sampling strategy (paper §II-A / §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SamplingConfig {
    /// Uniform over the user's non-interacted items.
    Uniform,
    /// `p(i) ∝ pop_i^alpha` with rejection of training positives.
    Popularity {
        /// Popularity exponent α.
        alpha: f64,
    },
    /// The paper's `r_noise` knob: positives deliberately leak into the
    /// negative pool with relative sampling probability `r_noise`.
    Noisy {
        /// Ratio of positive-sampling to negative-sampling probability.
        r_noise: f64,
    },
    /// In-batch sharing: row `b`'s negatives are the other rows' positives
    /// (paper Table V, the NGCF/LightGCN protocol).
    InBatch,
}

/// Full training configuration; serializable so experiment harnesses can
/// log the exact setup alongside results.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Backbone model.
    pub backbone: BackboneConfig,
    /// Ranking loss.
    pub loss: LossConfig,
    /// Negative sampling strategy.
    pub sampling: SamplingConfig,
    /// Base embedding dimensionality (paper default: 64).
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Negatives per positive row (ignored by [`SamplingConfig::InBatch`]).
    pub negatives: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization coefficient.
    pub l2: f32,
    /// Evaluate every this many epochs (also drives early stopping).
    pub eval_every: usize,
    /// Stop after this many evaluations without NDCG improvement
    /// (`0` disables early stopping).
    pub patience: usize,
    /// RNG seed for init, shuffling and sampling.
    pub seed: u64,
    /// Worker threads for batch sampling and the trainer step
    /// (`0` = auto: one per available core).
    ///
    /// * `threads == 1` runs the fully serial path, bit-identical to the
    ///   historical single-threaded trainer.
    /// * `threads > 1` runs the persistent execution engine
    ///   ([`crate::engine`]): negative sampling is sharded across that
    ///   many long-lived [`bsl_sampling::SamplerPool`] workers and each
    ///   step's score/gradient passes are fed as per-batch jobs to the
    ///   same number of pooled compute workers (spawned once per
    ///   `Trainer`), merging per-shard batch-footprint gradient buffers
    ///   in a fixed order before the optimizer step.
    ///
    /// **Determinism semantics:** results are deterministic per
    /// `(seed, threads)` — re-running the same config replays the run
    /// exactly — but they are *not* bit-identical across different
    /// thread counts, because sampling shards draw from split RNG
    /// streams and f32 gradient reduction follows the shard layout.
    /// Treat a change of `threads` like a change of `seed`: metrics stay
    /// within run-to-run noise, individual bits do not.
    ///
    /// The exception is [`SamplingConfig::InBatch`]: it draws no
    /// negatives, and its step computes every gradient element in one
    /// order at any worker count, so an in-batch run has the same bits at
    /// every `threads` (`tests/pool.rs` checks this per backbone).
    pub threads: usize,
}

impl TrainConfig {
    /// The paper's default protocol: MF + SL, uniform sampling, dim 64.
    pub fn paper_default() -> Self {
        Self {
            backbone: BackboneConfig::Mf,
            loss: LossConfig::Sl { tau: 0.1 },
            sampling: SamplingConfig::Uniform,
            dim: 64,
            epochs: 60,
            batch_size: 1024,
            negatives: 200,
            lr: 1e-2,
            l2: 1e-6,
            eval_every: 5,
            patience: 4,
            seed: 0,
            threads: 1,
        }
    }

    /// A fast configuration for unit/integration tests and doc examples.
    pub fn smoke() -> Self {
        Self {
            backbone: BackboneConfig::Mf,
            loss: LossConfig::Sl { tau: 0.15 },
            sampling: SamplingConfig::Uniform,
            dim: 16,
            epochs: 8,
            batch_size: 256,
            negatives: 16,
            lr: 2e-2,
            l2: 1e-6,
            eval_every: 2,
            patience: 0,
            seed: 0,
            threads: 1,
        }
    }

    /// The effective worker count: `threads`, or one per available core
    /// when `threads == 0`.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Human-readable label `"<backbone>+<loss>"` for result tables.
    pub fn label(&self) -> String {
        let loss = match self.loss {
            LossConfig::Bpr => "BPR".to_string(),
            LossConfig::Bce { .. } => "BCE".to_string(),
            LossConfig::Mse { .. } => "MSE".to_string(),
            LossConfig::Sl { .. } => "SL".to_string(),
            LossConfig::Bsl { .. } => "BSL".to_string(),
            LossConfig::Ccl { .. } => "CCL".to_string(),
            LossConfig::Hinge { .. } => "Hinge".to_string(),
            LossConfig::TaylorSl { with_variance, .. } => {
                if with_variance {
                    "TaylorSL+V".to_string()
                } else {
                    "TaylorSL-V".to_string()
                }
            }
        };
        format!("{}+{}", self.backbone.label(), loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_compose() {
        let cfg =
            TrainConfig { loss: LossConfig::Bsl { tau1: 0.2, tau2: 0.1 }, ..TrainConfig::smoke() };
        assert_eq!(cfg.label(), "MF+BSL");
        let cfg = TrainConfig {
            backbone: BackboneConfig::LightGcn { layers: 3 },
            loss: LossConfig::Bpr,
            ..TrainConfig::smoke()
        };
        assert_eq!(cfg.label(), "LGN+BPR");
    }

    #[test]
    fn defaults_are_sane() {
        let p = TrainConfig::paper_default();
        assert_eq!(p.dim, 64);
        assert!(p.epochs > 0 && p.batch_size > 0 && p.negatives > 0);
        let s = TrainConfig::smoke();
        assert!(s.epochs < p.epochs);
        // Both defaults pin the bit-exact serial path.
        assert_eq!(p.threads, 1);
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn resolved_threads_expands_auto() {
        let explicit = TrainConfig { threads: 3, ..TrainConfig::smoke() };
        assert_eq!(explicit.resolved_threads(), 3);
        let auto = TrainConfig { threads: 0, ..TrainConfig::smoke() };
        assert!(auto.resolved_threads() >= 1);
    }
}
