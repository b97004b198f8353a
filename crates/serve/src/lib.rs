//! Top-k serving over frozen [`ModelArtifact`]s — from one shared
//! in-process state up to a traffic-facing TCP engine with batching and
//! zero-downtime artifact hot swap.
//!
//! Training (`bsl-core`) ends at `Backbone::export() → ModelArtifact`;
//! this crate is everything after that boundary. It is layered so each
//! piece is usable on its own:
//!
//! 1. **[`ServeState`]** (`state`) — an *immutable* artifact + seen-mask
//!    snapshot. Every method takes `&self`; per-call knobs ride in a
//!    [`RecommendRequest`] (`user`, `k`, [`ServeOptions`]) and scratch
//!    buffers are caller-owned ([`ServeScratch`]), so one state serves
//!    any number of threads with zero shared mutability. Every
//!    recommendation is [`ServeState::recommend_into`];
//!    [`ServeState::respond`] validates the request and versions the
//!    answer. An exact request quantizes its query and scans the state's
//!    int8 sketch of the item table (¼ of its bytes) with exact int8 dot
//!    products, then rescores in f32 only the items that can still reach
//!    the top k, with the plain scan's exact answer.
//! 2. **[`SwapSlot`]/[`ArtifactSlot`]** (`swap`) — lock-free-reader hot
//!    swap: publish a new artifact generation atomically; in-flight
//!    requests finish on the generation they loaded, which drops with
//!    its last holder. [`Registry`] (`registry`) names one slot per
//!    tenant.
//! 3. **[`ServeEngine`]** (`engine`) — the batching scheduler: one
//!    bounded FIFO queue and no thread of its own. The caller that finds
//!    a free lane (one per core) scores what is queued — its own request
//!    and whatever arrived while every lane was busy — with one slot load
//!    per artifact generation, answers each request through
//!    [`ServeState::respond`], and publishes the answers.
//! 4. **[`TcpFrontend`]/[`ServeClient`]** (`protocol`) — a framed,
//!    length-prefixed TCP wire protocol (`recommend` / `score_items` /
//!    `swap_artifact` / `stats` / `shutdown`) over `std::net`.
//!
//! Every request is ranked by the function `bsl-eval` ranks with
//! ([`bsl_models::top_k_into`]), so offline metrics and online scores come
//! from one implementation. Artifacts carrying an IVF index (built with
//! [`ModelArtifact::build_ivf`] or loaded from a format-v2 file) are
//! served sub-linearly via an `nprobe` shortlist — seen-item filtering
//! and tie-breaking unchanged, and `nprobe = nlist` bit-identical to the
//! exact path; [`ServeOptions`] overrides the mode per request.
//!
//! ```no_run
//! use bsl_models::ModelArtifact;
//! use bsl_serve::{RecommendRequest, ServeScratch, ServeState};
//!
//! let artifact = ModelArtifact::load("model.bsla").expect("artifact");
//! let state = ServeState::new(artifact);
//! let mut scratch = ServeScratch::new();
//! let resp = state.respond(&RecommendRequest::new(42, 10), &mut scratch).unwrap();
//! for r in &resp.recs {
//!     println!("item {}  score {:.4}", r.item, r.score);
//! }
//! ```
//!
//! Steady-state serving is allocation-free: the ranking buffers, the probe
//! scratch and the shortlist all live in [`ServeScratch`] and are reused
//! across calls; the `_into` variants don't allocate at all once warm.

// On the bsl-audit unsafe allowlist (audit/policy.toml): unsafe fns must
// still spell out every unsafe operation in an explicit `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod engine;
pub mod protocol;
#[cfg(test)]
mod recommender;
pub mod registry;
pub mod state;
pub mod swap;

pub use bsl_models::{ArtifactError, EvalScore, ModelArtifact, Precision};
pub use engine::{BatchPolicy, ServeEngine, StatsSnapshot};
pub use protocol::{ClientError, ProtocolError, Request, Response, ServeClient, TcpFrontend};
pub use registry::{Registry, TenantInfo};
pub use state::{
    Rec, RecommendRequest, RecommendResponse, ServeError, ServeOptions, ServeScratch, ServeState,
};
pub use swap::{ArtifactSlot, SwapSlot};
