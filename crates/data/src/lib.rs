//! Implicit-feedback datasets for the BSL reproduction.
//!
//! The paper evaluates on Yelp2018, Amazon-Book, Gowalla and MovieLens-1M.
//! Those logs are not redistributable here, so this crate provides
//! *synthetic* generators with a latent-factor ground truth and matched
//! shape statistics (power-law popularity, per-dataset density ordering,
//! per-dataset intrinsic positive-noise levels — see README's "Reproducing
//! the paper's figures and tables" for the substitutions). Having a known ground truth is what makes the
//! paper's controlled noise-injection experiments (Figs 3/6/8/9, Table IV)
//! exactly reproducible.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dataset;
pub mod loader;
pub mod noise;
pub mod synth;

pub use dataset::{Dataset, DatasetStats};
pub use loader::{load_lightgcn_format, LoadError};
pub use synth::{generate, SynthConfig};
