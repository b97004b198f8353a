//! Top-K ranking evaluation for the BSL reproduction.
//!
//! * [`metrics`] — per-user metric definitions (Recall@K, NDCG@K,
//!   Precision@K, HitRate@K, MAP@K) on a ranked list vs. a relevance set;
//! * [`ranking`] — full ranking of the item catalogue through a frozen
//!   [`ModelArtifact`] (the masked exact top-k `bsl-serve` answers with),
//!   with train-item masking, parallelized across users as one round of
//!   a [`WorkerPool`](bsl_linalg::pool::WorkerPool);
//! * [`groups`] — the popularity-group decomposition of NDCG@K used by the
//!   fairness analyses (Figs 4a and 5).
//!
//! Scoring conventions ([`EvalScore`]: dot / cosine / negated squared
//! distance, per the paper's Table V) are baked into the artifact's
//! prepared tables once, not repaid per evaluation call.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod groups;
pub mod metrics;
pub mod ranking;

pub use bsl_models::{EvalScore, ModelArtifact};
pub use groups::{group_ndcg, group_ndcg_restricted};
pub use metrics::{MetricSet, UserMetrics};
pub use ranking::{evaluate, evaluate_artifact, evaluate_artifact_on, EvalReport};
