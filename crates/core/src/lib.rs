//! # BSL — Bilateral Softmax Loss for Recommendation (reproduction)
//!
//! This crate is the public face of a from-scratch Rust reproduction of
//! *"BSL: Understanding and Improving Softmax Loss for Recommendation"*
//! (Wu et al., ICDE 2024). It wires together the workspace's substrates —
//! synthetic implicit-feedback datasets (`bsl-data`), negative samplers
//! (`bsl-sampling`), ranking losses with exact analytic gradients
//! (`bsl-losses`, including the paper's [`Bsl`]), recommendation backbones
//! (`bsl-models`), DRO analysis (`bsl-dro`) and top-K evaluation
//! (`bsl-eval`) — behind one [`Trainer`].
//!
//! Quick start:
//!
//! ```
//! use bsl_core::prelude::*;
//!
//! let ds = std::sync::Arc::new(bsl_data::synth::generate(
//!     &bsl_data::synth::SynthConfig::tiny(42),
//! ));
//! let cfg = TrainConfig {
//!     backbone: BackboneConfig::Mf,
//!     loss: LossConfig::Bsl { tau1: 0.15, tau2: 0.1 },
//!     epochs: 5,
//!     ..TrainConfig::smoke()
//! };
//! let outcome = Trainer::new(cfg).fit(&ds);
//! println!("NDCG@20 = {:.4}", outcome.best.ndcg(20));
//! ```
//!
//! [`Bsl`]: bsl_losses::Bsl

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod engine;
pub mod trainer;

pub use config::{SamplingConfig, TrainConfig};
pub use trainer::{EpochStats, TrainOutcome, Trainer};

/// One-stop imports for examples and experiment harnesses.
pub mod prelude {
    pub use crate::config::{SamplingConfig, TrainConfig};
    pub use crate::trainer::{EpochStats, TrainOutcome, Trainer};
    pub use bsl_data::synth::{generate, SynthConfig};
    pub use bsl_data::Dataset;
    pub use bsl_eval::{evaluate, evaluate_artifact, EvalReport};
    pub use bsl_losses::LossConfig;
    pub use bsl_models::{Backbone, BackboneConfig, EvalScore, ModelArtifact};
}
