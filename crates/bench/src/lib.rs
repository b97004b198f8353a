//! The reproduction harness: every table and figure of the paper's
//! evaluation section is regenerated by one function in
//! [`experiments`], surfaced as a subcommand of the `repro` binary:
//!
//! ```text
//! cargo run --release -p bsl-bench --bin repro -- table2 --scale quick
//! cargo run --release -p bsl-bench --bin repro -- all    --scale quick
//! ```
//!
//! Absolute numbers differ from the paper (the datasets here are
//! synthetic substitutes); README's "Reproducing the paper's figures and
//! tables" lists the substitutions and the *shape* claims the experiments
//! check.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;

pub use experiments::common::Scale;
