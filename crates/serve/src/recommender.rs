//! The [`Recommender`]: the PR 5/6 library-style facade, now a thin
//! wrapper bundling one [`ServeState`] with one [`ServeScratch`].
//!
//! New code (and anything concurrent) should use [`ServeState`] directly
//! — it is `&self`-scoring and shareable across threads — or go through
//! the [`ServeEngine`](crate::ServeEngine). This wrapper keeps the
//! original single-threaded API compiling unchanged: the mutable-config
//! methods [`set_nprobe`](Recommender::set_nprobe) /
//! [`set_exact`](Recommender::set_exact) are deprecated shims that
//! translate to the sticky default [`ServeOptions`] applied to every
//! call.

use crate::state::{RecommendRequest, ServeOptions, ServeScratch, ServeState};
use bsl_data::Dataset;
use bsl_models::ModelArtifact;

/// One recommendation: an item id and its retrieval score.
///
/// Scores come from the artifact's prepared tables (cosine similarity for
/// cosine backbones, inner product otherwise; CML artifacts serve the
/// rank-equivalent augmented inner product). The IVF path rescores its
/// shortlist with the same exact kernel, so a served score is always the
/// true prepared-table score of that item — approximation only affects
/// *which* items make the shortlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rec {
    /// The recommended item id.
    pub item: u32,
    /// The retrieval score (higher = better).
    pub score: f32,
}

/// How a query walks the catalogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retrieval {
    /// Score every item with one blocked matvec (the reference path).
    Exact,
    /// Probe the artifact's IVF index: score `nlist` centroids, gather the
    /// `nprobe` best lists' members, rescore only those exactly.
    ///
    /// `nprobe ≥ nlist` degenerates to [`Retrieval::Exact`] — probing
    /// every list *is* a full scan, and routing it through the exact
    /// blocked kernel makes that setting bit-identical to exact serving
    /// (same accumulation order, same tie-breaks).
    Ivf {
        /// Number of inverted lists probed per query.
        nprobe: usize,
    },
}

/// Serves top-k retrieval queries over a frozen [`ModelArtifact`] from a
/// single thread: a [`ServeState`] plus its reusable [`ServeScratch`].
///
/// After the first query every call reuses the same buffers — the exact
/// hot path is one blocked matvec over the item table plus a
/// bounded-heap selection; the IVF hot path is a centroid matvec, a list
/// gather, and an exact rescore of the shortlist.
///
/// The default retrieval mode is picked automatically: artifacts carrying
/// an [`IvfIndex`](bsl_models::IvfIndex) serve through it at its default
/// `nprobe`, plain artifacts serve exactly. Prefer passing per-call
/// [`ServeOptions`] via [`ServeState`]; the deprecated
/// [`set_nprobe`](Self::set_nprobe) / [`set_exact`](Self::set_exact)
/// shims set this wrapper's sticky default instead.
pub struct Recommender {
    state: ServeState,
    scratch: ServeScratch,
    /// The sticky options every call of this wrapper uses.
    opts: ServeOptions,
}

impl Recommender {
    /// A recommender with **no** seen-item filtering (every catalogue item
    /// is eligible). Serves through the artifact's IVF index when one is
    /// attached, exactly otherwise.
    pub fn new(artifact: ModelArtifact) -> Self {
        Self::from_state(ServeState::new(artifact))
    }

    /// A recommender that filters each user's *training* interactions out
    /// of their recommendations — the standard deployment protocol (and
    /// exactly the mask `bsl-eval` applies). The mask is copied out of
    /// `ds`, so the dataset need not outlive the recommender.
    ///
    /// # Panics
    /// Panics if `ds`'s shape disagrees with the artifact.
    pub fn with_seen(artifact: ModelArtifact, ds: &Dataset) -> Self {
        Self::from_state(ServeState::with_seen(artifact, ds))
    }

    /// Wraps an already-built serving state.
    pub fn from_state(state: ServeState) -> Self {
        Self { state, scratch: ServeScratch::new(), opts: ServeOptions::default() }
    }

    /// The shared-state core this wrapper drives (hand an
    /// `Arc<ServeState>` to threads instead of cloning recommenders).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// Consumes the wrapper, returning its state (the scratch is
    /// discarded — it is cheap to rebuild).
    pub fn into_state(self) -> ServeState {
        self.state
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        self.state.artifact()
    }

    /// The retrieval mode the sticky default options resolve to.
    pub fn retrieval(&self) -> Retrieval {
        self.state.retrieval(&self.opts)
    }

    /// Switches every subsequent call to IVF retrieval probing `nprobe`
    /// lists (clamped to at least 1; values ≥ `nlist` serve exactly).
    ///
    /// # Panics
    /// Panics if the artifact carries no IVF index.
    #[deprecated(
        since = "0.1.0",
        note = "pass per-request options instead: `ServeOptions::with_nprobe(n)` on a \
                `RecommendRequest` against a shared `ServeState`"
    )]
    pub fn set_nprobe(&mut self, nprobe: usize) {
        assert!(self.state.artifact().index().is_some(), "set_nprobe: artifact has no IVF index");
        self.opts = ServeOptions { nprobe: Some(nprobe.max(1)), exact: false, ..self.opts };
    }

    /// Switches every subsequent call to exact full-catalogue scoring
    /// (index, if any, unused).
    #[deprecated(
        since = "0.1.0",
        note = "pass per-request options instead: `ServeOptions::exact()` on a \
                `RecommendRequest` against a shared `ServeState`"
    )]
    pub fn set_exact(&mut self) {
        self.opts = ServeOptions { exact: true, ..self.opts };
    }

    /// The (sorted) item ids filtered out for `user`.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn seen(&self, user: u32) -> &[u32] {
        self.state.seen(user)
    }

    /// Top-`k` unseen items for `user`, best first, written into `out`
    /// (cleared first). Allocation-free once the scratch is warm.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn recommend_into(&mut self, user: u32, k: usize, out: &mut Vec<Rec>) {
        let req = RecommendRequest { user, k, opts: self.opts };
        self.state.recommend_into(&req, &mut self.scratch, out);
    }

    /// Top-`k` unseen items for `user`, best first.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn recommend(&mut self, user: u32, k: usize) -> Vec<Rec> {
        let mut out = Vec::with_capacity(k);
        self.recommend_into(user, k, &mut out);
        out
    }

    /// Top-`k` lists for a batch of users, written into `out` (one inner
    /// list per user, in request order) **reusing `out`'s inner
    /// allocations** — the steady-state batch path is allocation-free.
    ///
    /// Answers through [`ServeState::recommend_batch_into`]; results are
    /// bit-identical to per-user [`recommend_into`](Self::recommend_into)
    /// calls.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn recommend_batch_into(&mut self, users: &[u32], k: usize, out: &mut Vec<Vec<Rec>>) {
        let reqs: Vec<RecommendRequest> =
            users.iter().map(|&user| RecommendRequest { user, k, opts: self.opts }).collect();
        self.state.recommend_batch_into(&reqs, &mut self.scratch, out);
    }

    /// Top-`k` lists for a batch of users (one inner `Vec` per user, in
    /// request order), as freshly allocated lists — prefer
    /// [`recommend_batch_into`](Self::recommend_batch_into) on hot paths.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn recommend_batch(&mut self, users: &[u32], k: usize) -> Vec<Vec<Rec>> {
        let mut out = Vec::with_capacity(users.len());
        self.recommend_batch_into(users, k, &mut out);
        out
    }

    /// Scores an explicit candidate list for `user` (no seen-filtering —
    /// callers asking about specific items get answers about those items).
    ///
    /// # Panics
    /// Panics if `user` or any item id is out of range.
    pub fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(items.len());
        self.state
            .score_items_into(user, items, &mut out)
            .unwrap_or_else(|e| panic!("score_items: {e}"));
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(deprecated)] // the compat shims are exactly what's under test

    use super::*;
    use bsl_linalg::Matrix;
    use bsl_models::EvalScore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users × 4 items, d = 2, scores = dot with one-hot-ish rows.
    fn art() -> ModelArtifact {
        let users = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let items = Matrix::from_vec(4, 2, vec![0.9, 0.0, 0.5, 0.1, 0.1, 0.8, 0.3, 0.3]);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot)
    }

    /// A bigger random artifact for IVF-vs-exact comparisons.
    fn big_art() -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(77);
        let users = Matrix::gaussian(30, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(300, 8, 1.0, &mut rng);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Cosine)
    }

    #[test]
    fn recommend_orders_by_score() {
        let mut rec = Recommender::new(art());
        let got = rec.recommend(0, 4);
        let items: Vec<u32> = got.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![0, 1, 3, 2]);
        assert!(got.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(got[0].score, 0.9);
    }

    #[test]
    fn seen_items_are_filtered() {
        let ds = Dataset::from_pairs("s", 2, 4, &[(0, 0), (0, 2)], &[(0, 3)]);
        let mut rec = Recommender::with_seen(art(), &ds);
        assert_eq!(rec.seen(0), &[0, 2]);
        let items: Vec<u32> = rec.recommend(0, 4).iter().map(|r| r.item).collect();
        assert_eq!(items, vec![1, 3], "seen items 0 and 2 must be excluded");
        // User 1 has no seen items: full catalogue eligible.
        assert_eq!(rec.recommend(1, 4).len(), 4);
    }

    #[test]
    fn k_larger_than_catalogue_truncates() {
        let mut rec = Recommender::new(art());
        assert_eq!(rec.recommend(0, 100).len(), 4);
        assert!(rec.recommend(0, 0).is_empty());
    }

    #[test]
    fn batch_matches_single_calls() {
        let ds = Dataset::from_pairs("b", 2, 4, &[(1, 1)], &[]);
        let mut rec = Recommender::with_seen(art(), &ds);
        let batch = rec.recommend_batch(&[0, 1, 0], 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], rec.recommend(0, 3));
        assert_eq!(batch[1], rec.recommend(1, 3));
        assert_eq!(batch[2], batch[0], "same user, same answer");
    }

    #[test]
    fn batch_into_reuses_buffers_and_matches_batch() {
        let mut rec = Recommender::new(big_art());
        let users: Vec<u32> = (0..20).collect();
        let fresh = rec.recommend_batch(&users, 10);
        let mut out = Vec::new();
        rec.recommend_batch_into(&users, 10, &mut out);
        assert_eq!(out, fresh);
        let ptrs: Vec<*const Rec> = out.iter().map(|v| v.as_ptr()).collect();
        rec.recommend_batch_into(&users, 10, &mut out);
        assert_eq!(out, fresh);
        assert_eq!(ptrs, out.iter().map(|v| v.as_ptr()).collect::<Vec<_>>(), "buffers reused");
    }

    #[test]
    fn score_items_answers_the_candidates_asked() {
        let rec = Recommender::new(art());
        let scores = rec.score_items(1, &[2, 0]);
        assert!((scores[0] - 0.8).abs() < 1e-6);
        assert!((scores[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn scratch_reuse_is_stable_across_calls() {
        let mut rec = Recommender::new(art());
        let first = rec.recommend(0, 3);
        for _ in 0..10 {
            let again = rec.recommend(0, 3);
            assert_eq!(again, first);
        }
    }

    #[test]
    fn retrieval_mode_follows_the_artifact() {
        assert_eq!(Recommender::new(art()).retrieval(), Retrieval::Exact);
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let nprobe = indexed.index().unwrap().default_nprobe();
        assert_eq!(Recommender::new(indexed).retrieval(), Retrieval::Ivf { nprobe });
    }

    #[test]
    fn nprobe_equal_nlist_is_bit_identical_to_exact() {
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let nlist = indexed.index().unwrap().nlist();
        let mut exact = Recommender::new(big_art());
        let mut ivf = Recommender::new(indexed);
        ivf.set_nprobe(nlist);
        for u in 0..30 {
            assert_eq!(ivf.recommend(u, 10), exact.recommend(u, 10), "user {u}");
        }
    }

    #[test]
    fn ivf_rescores_its_shortlist_exactly() {
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let mut exact = Recommender::new(big_art());
        let mut ivf = Recommender::new(indexed);
        for u in 0..30u32 {
            let truth = exact.recommend(u, 10);
            for r in ivf.recommend(u, 10) {
                // Every served score is the true prepared-table score.
                let s = exact.score_items(u, &[r.item])[0];
                assert!((r.score - s).abs() < 1e-6, "user {u} item {}", r.item);
                // And every IVF pick scores no better than the true best.
                assert!(r.score <= truth[0].score + 1e-6);
            }
        }
    }

    #[test]
    fn ivf_respects_the_seen_mask() {
        let mut indexed = big_art();
        indexed.build_ivf(4);
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i % 30, i * 7 % 300)).collect();
        let ds = Dataset::from_pairs("seen", 30, 300, &pairs, &[]);
        let mut rec = Recommender::with_seen(indexed, &ds);
        rec.set_nprobe(2);
        for u in 0..30u32 {
            let seen = rec.seen(u).to_vec();
            for r in rec.recommend(u, 20) {
                assert!(seen.binary_search(&r.item).is_err(), "user {u} served seen {}", r.item);
            }
        }
    }

    #[test]
    fn set_exact_overrides_the_index() {
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let mut rec = Recommender::new(indexed);
        rec.set_exact();
        assert_eq!(rec.retrieval(), Retrieval::Exact);
        let mut exact = Recommender::new(big_art());
        for u in 0..10 {
            assert_eq!(rec.recommend(u, 5), exact.recommend(u, 5));
        }
    }

    #[test]
    #[should_panic(expected = "artifact has no IVF index")]
    fn set_nprobe_requires_an_index() {
        Recommender::new(art()).set_nprobe(2);
    }

    #[test]
    #[should_panic(expected = "artifact user rows != dataset users")]
    fn with_seen_rejects_shape_mismatch() {
        let ds = Dataset::from_pairs("m", 3, 4, &[], &[]);
        let _ = Recommender::with_seen(art(), &ds);
    }
}
