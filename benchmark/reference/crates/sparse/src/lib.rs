//! Sparse matrix support for the BSL reproduction.
//!
//! Recommendation data is a sparse user–item interaction matrix `R`; the
//! graph backbones (NGCF, LightGCN, SGL, …) propagate embeddings over the
//! symmetrically-normalized bipartite adjacency built from `R`. This crate
//! provides the [`Csr`] storage, the [`adjacency::NormAdj`] propagation
//! operator, and edge dropout for the self-supervised augmented views.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adjacency;
pub mod csr;

pub use adjacency::NormAdj;
pub use csr::Csr;
