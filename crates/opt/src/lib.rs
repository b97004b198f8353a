//! The Adam optimizer for the embedding models.
//!
//! The trainer hands each parameter tensor its own [`Adam`] state. MF-style
//! backbones touch only a few embedding rows per batch, so [`Adam`] exposes
//! both a dense step ([`Adam::step_dense`]) and a *lazy* per-row step
//! ([`Adam::step_rows`]) that only updates the moments of touched rows (the
//! standard "lazy Adam" used by embedding systems; moments of untouched
//! rows are frozen rather than decayed, which is the usual, documented
//! approximation).

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adam;

pub use adam::Adam;
