//! Recommendation backbones with hand-derived exact gradients.
//!
//! Every backbone implements [`Backbone`]: the trainer (in `bsl-core`)
//! computes score-level gradients with a [`RankingLoss`] and chains them
//! through the score function into a [`GradBuffer`] holding `∂L/∂(final
//! embeddings)`; the backbone then owns the final-embedding → parameter
//! backward pass and its optimizer state.
//!
//! [`RankingLoss`]: https://docs.rs/bsl-losses
//!
//! The zoo (paper §V-A):
//! * [`Mf`] — matrix factorization (also the CML body via unit-ball
//!   projection and squared-distance scores);
//! * [`LightGcn`] — K-layer linear propagation, exact backward by the same
//!   (symmetric) propagation operator;
//! * [`Ngcf`] — nonlinear propagation with per-layer weight matrices and a
//!   fully hand-written backward pass;
//! * LR-GCCF ([`BackboneConfig::LrGccf`], [`LightGcn::lr_gccf`]) — a
//!   [`LightGcn`] whose propagation hops add their input back (a linear
//!   residual GCN);
//! * SGL / SimGCL / LightGCL ([`BackboneConfig::Sgl`],
//!   [`BackboneConfig::SimGcl`], [`BackboneConfig::LightGcl`]) — one
//!   private type, a [`LightGcn`] plus a self-supervised InfoNCE auxiliary
//!   between two views (edge-dropout / embedding-noise / randomized-SVD),
//!   built by [`build`];
//! * [`enmf::train_enmf`] and [`ultragcn::train_ultragcn`] — the two
//!   baselines whose training protocol does not fit the sampled-batch
//!   trainer (whole-data non-sampling loss; degree-weighted BCE).

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod backbone;
pub mod bytes;
pub mod cml;
mod contrastive;
pub mod enmf;
pub mod grad;
pub mod ivf;
pub mod lightgcn;
pub mod mf;
pub mod ngcf;
pub mod propagation;
pub mod quant;
pub mod rank;
pub mod shard;
pub mod ultragcn;

// Unit tests of LR-GCCF and of the contrastive kinds, one module per
// model.
#[cfg(test)]
mod lightgcl;
#[cfg(test)]
mod lrgccf;
#[cfg(test)]
mod sgl;
#[cfg(test)]
mod simgcl;

pub use artifact::{ArtifactError, ModelArtifact, Precision};
pub use backbone::{build, Backbone, BackboneConfig, EvalScore, Hyper, TrainScore};
pub use grad::{GradBuffer, GradSink};
pub use ivf::{IvfIndex, ProbeScratch};
pub use lightgcn::LightGcn;
pub use mf::Mf;
pub use ngcf::Ngcf;
pub use quant::{PruneScratch, QuantizedTable, Sketch};
pub use rank::{select_catalogue_into, top_k_into, Candidates, TopKScratch};
pub use shard::ShardGrad;
