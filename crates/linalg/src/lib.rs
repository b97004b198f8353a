//! Dense linear-algebra kernels used throughout the BSL reproduction.
//!
//! This crate is intentionally small and dependency-free (besides `rand`):
//! a row-major [`Matrix`] of `f32`, the vector kernels the training loops
//! are hot on ([`kernels`], backed by the runtime-dispatched SIMD layer in
//! [`simd`] with blocked batch variants), numerically-stable statistics
//! ([`stats`]), top-k selection for ranking evaluation ([`topk`]), a
//! randomized truncated SVD ([`svd`]) used by the LightGCL-lite backbone,
//! and the persistent [`pool::WorkerPool`] every layer runs its parallel
//! rounds on.
//!
//! Conventions:
//! * storage is `f32`, accumulation of anything that is summed over many
//!   elements is `f64`;
//! * all randomness flows through caller-provided [`rand::Rng`] values so
//!   every computation in the workspace is reproducible from a seed.

// On the bsl-audit unsafe allowlist (audit/policy.toml): unsafe fns must
// still spell out every unsafe operation in an explicit `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod kernels;
pub mod matrix;
pub mod pool;
pub mod simd;
pub mod stats;
pub mod svd;
pub mod topk;

pub use matrix::Matrix;
pub use svd::{LinOp, Svd};
