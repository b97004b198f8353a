//! Negative sampling and batch iteration for implicit-feedback training.
//!
//! The paper's loss functions consume `(user, positive, m negatives)` rows.
//! Negatives can be drawn uniformly (the default protocol), by popularity,
//! or *noisily* — deliberately letting positives leak into the negative set
//! at a controlled rate `r_noise`, which is how §III-B and Fig 8 create the
//! negative-side distribution shift that SL's DRO structure defends against.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alias;
pub mod batch;
pub mod negative;
#[cfg(test)]
mod par_batch;
pub mod pool;

pub use alias::AliasTable;
pub use batch::{BatchIter, TrainBatch};
pub use negative::{
    draw_rejecting, NegativeSampler, NoisySampler, PopularitySampler, UniformSampler,
    MAX_REJECTIONS,
};
pub use pool::{PooledEpochIter, SamplerPool};
