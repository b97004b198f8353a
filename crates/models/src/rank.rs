//! Masked exact top-k for one query: the one ranking routine that serving
//! and evaluation share.
//!
//! [`top_k_into`] returns the `k` best items for a prepared query, leaving
//! out a sorted list of seen ids. Whatever route it takes, the answer has
//! the ids and score bits of the plain scan,
//! [`ModelArtifact::score_catalogue_query_into`] plus
//! [`TopK::select_masked_into`]:
//!
//! * **The catalogue, through a [`Sketch`].** The int8 sketch of the f32
//!   item table bounds every item's score. Only the items that can still
//!   reach the top `k` are rescored in f32, and [`select_scored_into`]
//!   picks among them in the plain scan's `(score, id)` order
//!   ([`crate::quant`] has the bound and its proof). The plain scan answers
//!   instead when `k` reaches the eligible count or the sketch gives up (no
//!   certificate, or more than 1/16 of the rows survive).
//! * **The catalogue, without a sketch.** One blocked scan of the whole
//!   item table, ranked threshold first: the seen list is searched only
//!   for a score that would enter.
//! * **An explicit candidate list**, e.g. an IVF shortlist. It is
//!   rescored and selected like the sketch's survivors.
//!
//! `bsl-serve` passes the sketch it builds at load. `bsl-eval` ranks
//! without one (`bsl_eval::ranking` has the measurements behind that): it
//! scores four users per pass with
//! [`ModelArtifact::score_catalogue_queries_into`], whose scores have the
//! plain scan's bits, and selects each user with [`select_catalogue_into`],
//! the plain scan's own selection.

use crate::artifact::ModelArtifact;
use crate::quant::{PruneScratch, Sketch};
use bsl_linalg::topk::{select_scored_into, TopK};

/// The items [`top_k_into`] ranks.
#[derive(Clone, Copy, Debug)]
pub enum Candidates<'a> {
    /// The whole catalogue, pruned through the sketch of the artifact's
    /// f32 item table when one is given.
    Catalogue(Option<&'a Sketch>),
    /// An explicit list of distinct item ids, in any order.
    Items(&'a [u32]),
}

/// Reusable buffers of [`top_k_into`]. One per thread; ranking allocates
/// nothing once they are warm.
#[derive(Default)]
pub struct TopKScratch {
    /// Full-catalogue scores of the plain scan.
    scores: Vec<f32>,
    /// The plain scan's threshold-first selector.
    topk: TopK,
    /// The plain scan's selected ids.
    ids: Vec<u32>,
    /// The sketch scan's tile and bound buffers.
    prune: PruneScratch,
    /// The rows the sketch could not rule out.
    survivors: Vec<u32>,
    /// Exact f32 rescores of the candidates.
    cand_scores: Vec<f32>,
    /// The answer, `(item, score)` best first.
    top: Vec<(u32, f32)>,
    /// Whether the last call answered through the sketch.
    pruned: bool,
}

impl TopKScratch {
    /// Whether the last [`top_k_into`] call answered through the sketch
    /// rather than the plain scan or a candidate list.
    pub fn pruned(&self) -> bool {
        self.pruned
    }
}

/// The `k` best items of `among` for the prepared query `q` (a row of
/// [`ModelArtifact::users`]), as `(item, score)` pairs best first. Ids in
/// `seen`, which must be sorted ascending, are skipped. Equal scores break
/// toward the smaller id, and NaN loses to every number. Every route gives
/// the plain scan's ids and score bits over the same candidates (module
/// docs). Allocation-free once `scratch` is warm.
///
/// # Panics
/// Panics if `q.len()` is not the artifact's width or a listed id is out
/// of range.
pub fn top_k_into<'s>(
    artifact: &ModelArtifact,
    q: &[f32],
    among: Candidates<'_>,
    k: usize,
    seen: &[u32],
    scratch: &'s mut TopKScratch,
) -> &'s [(u32, f32)] {
    let TopKScratch { scores, topk, ids, prune, survivors, cand_scores, top, pruned } = scratch;
    let masked = |i: usize| seen.binary_search(&(i as u32)).is_ok();
    *pruned = match among {
        Candidates::Catalogue(Some(sketch)) => {
            k < artifact.n_items().saturating_sub(seen.len())
                && sketch.prune_into(q, k, masked, prune, survivors)
        }
        _ => false,
    };
    let items: &[u32] = match among {
        Candidates::Items(items) => items,
        Candidates::Catalogue(_) if *pruned => survivors,
        Candidates::Catalogue(_) => {
            artifact.score_catalogue_query_into(q, scores);
            select_catalogue_into(scores, k, seen, topk, ids);
            top.clear();
            top.extend(ids.iter().map(|&i| (i, scores[i as usize])));
            return top;
        }
    };
    artifact.score_items_query_into(q, items, cand_scores);
    select_scored_into(cand_scores, items, k, |p| seen.binary_search(&items[p]).is_ok(), top);
    top
}

/// The plain scan's selection: the ids of the `k` best full-catalogue
/// `scores`, best first, skipping the ids in `seen` (sorted ascending).
/// Equal scores break toward the smaller id, and NaN loses to every
/// number. [`top_k_into`] selects its plain scan with it, and evaluation
/// each user's run of [`ModelArtifact::score_catalogue_queries_into`].
/// Allocation-free once `topk` and `ids` are warm.
pub fn select_catalogue_into(
    scores: &[f32],
    k: usize,
    seen: &[u32],
    topk: &mut TopK,
    ids: &mut Vec<u32>,
) {
    topk.select_masked_into(scores, k, |i| seen.binary_search(&(i as u32)).is_ok(), ids);
}
