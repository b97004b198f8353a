//! The serving API: a shared, immutable [`ServeState`] scored through
//! caller-owned [`ServeScratch`], driven by per-request
//! [`RecommendRequest`]/[`ServeOptions`] values.
//!
//! * [`ServeState`] — everything immutable after load: the
//!   [`ModelArtifact`], its optional IVF index, the int8 sketch of an f32
//!   item table, the per-user seen-item mask, and a version stamp. Every
//!   scoring method takes `&self`, so one `Arc<ServeState>` can serve
//!   from any number of threads.
//! * [`ServeScratch`] — the reusable per-call buffers (ranking and probe
//!   scratch). One per thread; steady-state serving allocates nothing.
//! * [`ServeOptions`] — the retrieval knobs each request carries: the IVF
//!   probe width, a forced exact scan, seen-item filtering.
//!
//! **One request path.** Every recommendation is
//! [`ServeState::recommend_into`]. [`ServeState::respond`] validates the
//! request and wraps the answer in a versioned [`RecommendResponse`] (the
//! [`ServeEngine`](crate::ServeEngine) answers through it), and
//! [`ServeState::recommend_batch_into`] runs it once per request.
//!
//! **One ranking routine.** A request is ranked by
//! [`bsl_models::top_k_into`], the masked exact top-k `bsl-eval` ranks
//! with too: over the whole catalogue for an exact request, over the
//! probed lists for an IVF one. An exact request reads its scan from
//! memory, so its cost is bytes. [`ServeState::new`] therefore quantizes
//! an f32 item table into an int8 [`Sketch`] (¼ of the table's bytes, held
//! beside it), and every exact request passes it. The sketch bounds every
//! item's f32 score, so only the few dozen items (of 38,048 on the
//! benchmark catalogue) that can still reach the top `k` are rescored, and
//! the answer has the plain scan's items and score bits at every dispatch
//! level. Its scan computes exact int8 × int8 dots, so a request costs
//! about 95 µs at 38,048 × 64 on a 2-vCPU Xeon, alone or in a batch.

use bsl_data::Dataset;
use bsl_models::{ivf::ProbeScratch, top_k_into, Candidates, ModelArtifact, Sketch, TopKScratch};

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

/// Per-request serving knobs.
///
/// `Default` serves through the artifact's IVF index at its default
/// `nprobe` when one is attached, exactly otherwise, with seen-item
/// filtering on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Probe width override for IVF retrieval. `None` uses the index's
    /// default; values `≥ nlist` (and any value on an index-less
    /// artifact) serve exactly. Ignored when [`exact`](Self::exact) is
    /// set.
    pub nprobe: Option<usize>,
    /// Force the exact full-catalogue scan even on indexed artifacts.
    pub exact: bool,
    /// Filter the user's seen items (the training interactions baked into
    /// the state) out of the response — the standard deployment protocol.
    /// Disable to rank the full catalogue.
    pub filter_seen: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self { nprobe: None, exact: false, filter_seen: true }
    }
}

impl ServeOptions {
    /// Exact-scan options (with seen-filtering).
    pub fn exact() -> Self {
        Self { exact: true, ..Self::default() }
    }

    /// IVF options probing `nprobe` lists (clamped to at least 1).
    pub fn with_nprobe(nprobe: usize) -> Self {
        Self { nprobe: Some(nprobe.max(1)), ..Self::default() }
    }
}

/// One retrieval request: a user, how many items, and the per-request
/// [`ServeOptions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecommendRequest {
    /// The user to recommend for.
    pub user: u32,
    /// How many items to return (truncated to the eligible catalogue).
    pub k: usize,
    /// The serving knobs for this request.
    pub opts: ServeOptions,
}

impl RecommendRequest {
    /// A request with default options.
    pub fn new(user: u32, k: usize) -> Self {
        Self { user, k, opts: ServeOptions::default() }
    }
}

/// One answered request: the recommendations plus the version of the
/// [`ServeState`] that produced them (so hot-swap consumers can tell
/// which artifact generation they were served from).
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendResponse {
    /// The user the response is for.
    pub user: u32,
    /// The serving-state version that answered (see
    /// [`ServeState::version`]).
    pub version: u64,
    /// Top-k recommendations, best first.
    pub recs: Vec<Rec>,
}

/// A request that cannot be answered. Serving must not take the process
/// down on bad input, so the request-level entry points validate and
/// return this instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a user the artifact has no row for.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// The artifact's user count.
        n_users: usize,
    },
    /// The request named an item the artifact has no row for.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The artifact's item count.
        n_items: usize,
    },
    /// The named tenant has no registered artifact slot.
    UnknownTenant(String),
    /// The engine is shutting down and no longer accepts requests.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range (artifact has {n_users} users)")
            }
            Self::ItemOutOfRange { item, n_items } => {
                write!(f, "item {item} out of range (artifact has {n_items} items)")
            }
            Self::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            Self::Closed => write!(f, "serving engine is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Reusable per-call scoring buffers. One per thread; every
/// [`ServeState`] scoring method is allocation-free once its scratch is
/// warm.
#[derive(Default)]
pub struct ServeScratch {
    /// The ranking buffers of [`top_k_into`].
    rank: TopKScratch,
    /// IVF probe scratch.
    probe: ProbeScratch,
    /// The IVF shortlist.
    shortlist: Vec<u32>,
}

impl ServeScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything serving needs that is immutable after load: the frozen
/// artifact (plus optional IVF index), the per-user seen-item mask, and a
/// version stamp for hot-swap bookkeeping.
///
/// All scoring methods take `&self` and caller scratch, so a single
/// `Arc<ServeState>` is shared freely across request threads; the
/// concurrency smoke test pins down that parallel calls are bit-identical
/// to serial ones.
pub struct ServeState {
    artifact: ModelArtifact,
    version: u64,
    /// CSR mask of already-seen items: `seen_items[seen_indptr[u] ..
    /// seen_indptr[u + 1]]` are the (sorted) item ids to exclude for `u`.
    /// All-zero indptr = no filtering.
    seen_indptr: Vec<usize>,
    seen_items: Vec<u32>,
    /// The int8 sketch of an f32 item table that prunes the exact path
    /// (`None` on int8 artifacts and on tables it cannot bound).
    sketch: Option<Sketch>,
}

impl ServeState {
    /// A state with **no** seen-item filtering (every catalogue item
    /// eligible), at version 0. An f32 item table gets its int8 sketch
    /// here (+¼ of the table's bytes).
    pub fn new(artifact: ModelArtifact) -> Self {
        let n = artifact.n_users();
        let sketch = artifact.items_f32().and_then(Sketch::new);
        Self { artifact, version: 0, seen_indptr: vec![0; n + 1], seen_items: Vec::new(), sketch }
    }

    /// A state that filters each user's *training* interactions out of
    /// their recommendations — the mask `bsl-eval` applies. The mask is
    /// copied out of `ds`, so the dataset need not outlive the state.
    ///
    /// # Panics
    /// Panics if `ds`'s shape disagrees with the artifact.
    pub fn with_seen(artifact: ModelArtifact, ds: &Dataset) -> Self {
        assert_eq!(artifact.n_users(), ds.n_users, "artifact user rows != dataset users");
        assert_eq!(artifact.n_items(), ds.n_items, "artifact item rows != dataset items");
        let mut indptr = Vec::with_capacity(ds.n_users + 1);
        let mut items = Vec::with_capacity(ds.train.nnz());
        indptr.push(0usize);
        for u in 0..ds.n_users {
            items.extend_from_slice(ds.train_items(u));
            indptr.push(items.len());
        }
        let mut state = Self::new(artifact);
        state.seen_indptr = indptr;
        state.seen_items = items;
        state
    }

    /// A state serving `artifact` that adopts `prev`'s seen-mask when the
    /// shapes still match (the hot-deploy path: a retrained artifact for
    /// the same dataset keeps filtering without re-reading the dataset).
    /// On a shape change the mask is dropped and filtering is off, as
    /// with [`new`](Self::new).
    pub fn with_seen_from(artifact: ModelArtifact, prev: &ServeState) -> Self {
        let mut state = Self::new(artifact);
        if state.n_users() == prev.n_users() && state.n_items() == prev.n_items() {
            state.seen_indptr.clone_from(&prev.seen_indptr);
            state.seen_items.clone_from(&prev.seen_items);
        }
        state
    }

    /// The same state stamped with `version` (builder-style; used by the
    /// hot-swap slot to number artifact generations).
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// The version stamp ([`ArtifactSlot`](crate::ArtifactSlot) numbers
    /// swapped-in generations monotonically; hand-built states default
    /// to 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of user rows the state can answer for.
    pub fn n_users(&self) -> usize {
        self.artifact.n_users()
    }

    /// Number of catalogue items.
    pub fn n_items(&self) -> usize {
        self.artifact.n_items()
    }

    /// The (sorted) item ids filtered out for `user`.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn seen(&self, user: u32) -> &[u32] {
        let u = user as usize;
        &self.seen_items[self.seen_indptr[u]..self.seen_indptr[u + 1]]
    }

    /// The retrieval mode `opts` resolves to on this state's artifact:
    /// `Some(nprobe)` for a genuine IVF shortlist probe, `None` for the
    /// exact full scan (no index, forced exact, or `nprobe ≥ nlist`,
    /// which routes through the exact kernel to stay bit-identical).
    pub fn resolve(&self, opts: &ServeOptions) -> Option<usize> {
        if opts.exact {
            return None;
        }
        let ix = self.artifact.index()?;
        let nprobe = opts.nprobe.unwrap_or_else(|| ix.default_nprobe()).max(1);
        (nprobe < ix.nlist()).then_some(nprobe)
    }

    /// Top-`k` eligible items for one request, best first, written into
    /// `out` (cleared first): the catalogue ranked through the sketch, or
    /// the probed IVF lists rescored exactly. Allocation-free once
    /// `scratch` is warm.
    ///
    /// # Panics
    /// Panics if the user is out of range — answer untrusted input through
    /// the validated [`respond`](Self::respond).
    pub fn recommend_into(
        &self,
        req: &RecommendRequest,
        scratch: &mut ServeScratch,
        out: &mut Vec<Rec>,
    ) {
        let q = self.artifact.users().row(req.user as usize);
        let among = match self.resolve(&req.opts) {
            Some(nprobe) => {
                let index = self.artifact.index().expect("IVF retrieval requires an index");
                index.probe_into(q, nprobe, &mut scratch.probe, &mut scratch.shortlist);
                Candidates::Items(&scratch.shortlist)
            }
            None => Candidates::Catalogue(self.sketch.as_ref()),
        };
        let top =
            top_k_into(&self.artifact, q, among, req.k, self.mask_for(req), &mut scratch.rank);
        out.clear();
        out.extend(top.iter().map(|&(item, score)| Rec { item, score }));
    }

    /// Answers one request as a versioned [`RecommendResponse`],
    /// validating instead of panicking: the entry point for untrusted
    /// requests, and the one the engine answers through. Allocates the
    /// response `Vec` only.
    pub fn respond(
        &self,
        req: &RecommendRequest,
        scratch: &mut ServeScratch,
    ) -> Result<RecommendResponse, ServeError> {
        self.check_user(req.user)?;
        // bsl-audit: allow(hot-path-alloc) -- the response owns its recs
        let mut recs = Vec::with_capacity(req.k.min(self.n_items()));
        self.recommend_into(req, scratch, &mut recs);
        Ok(RecommendResponse { user: req.user, version: self.version, recs })
    }

    /// `Ok` when the artifact has a row for `user`.
    fn check_user(&self, user: u32) -> Result<(), ServeError> {
        let n_users = self.n_users();
        if (user as usize) < n_users {
            Ok(())
        } else {
            Err(ServeError::UserOutOfRange { user, n_users })
        }
    }

    /// The seen-slice `req` filters with (empty when filtering is off).
    fn mask_for(&self, req: &RecommendRequest) -> &[u32] {
        if req.opts.filter_seen {
            self.seen(req.user)
        } else {
            &[]
        }
    }

    /// Answers a batch of requests, one inner list per request in request
    /// order, reusing `out`'s inner allocations. Each list is one
    /// [`recommend_into`](Self::recommend_into) call, so the results are
    /// those of serial calls and a warm batch allocates nothing.
    ///
    /// # Panics
    /// Panics if any user is out of range — answer untrusted requests
    /// through [`respond`](Self::respond).
    pub fn recommend_batch_into(
        &self,
        reqs: &[RecommendRequest],
        scratch: &mut ServeScratch,
        out: &mut Vec<Vec<Rec>>,
    ) {
        out.truncate(reqs.len());
        // Vec::new below is the empty-vec constructor (capacity 0, no heap
        // touch); steady-state callers pass warm out vecs whose spare
        // capacity truncate + resize_with preserve.
        // bsl-audit: allow(hot-path-alloc) -- empty-vec ctor, no allocation
        out.resize_with(reqs.len(), Vec::new);
        for (req, recs) in reqs.iter().zip(out.iter_mut()) {
            self.recommend_into(req, scratch, recs);
        }
    }

    /// Scores an explicit candidate list for `user` into `out` (no
    /// seen-filtering — callers asking about specific items get answers
    /// about those items). Validates ids instead of panicking.
    pub fn score_items_into(
        &self,
        user: u32,
        items: &[u32],
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        self.check_user(user)?;
        let n_items = self.n_items();
        if let Some(&bad) = items.iter().find(|&&i| i as usize >= n_items) {
            return Err(ServeError::ItemOutOfRange { item: bad, n_items });
        }
        self.artifact.score_items_into(user, items, out);
        Ok(())
    }
}

#[cfg(test)]
mod sketch_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_linalg::Matrix;
    use bsl_models::EvalScore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn art(n_users: usize, n_items: usize, d: usize, seed: u64) -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = Matrix::gaussian(n_users, d, 1.0, &mut rng);
        let items = Matrix::gaussian(n_items, d, 1.0, &mut rng);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot)
    }

    #[test]
    fn options_resolve_like_pr6_modes() {
        let state = ServeState::new(art(4, 50, 8, 1));
        // No index: everything is exact.
        assert_eq!(state.resolve(&ServeOptions::default()), None);
        assert_eq!(state.resolve(&ServeOptions::with_nprobe(2)), None);

        let mut indexed = art(4, 300, 8, 1);
        indexed.build_ivf(8);
        let state = ServeState::new(indexed);
        let default_np = state.artifact().index().unwrap().default_nprobe();
        assert_eq!(state.resolve(&ServeOptions::default()), Some(default_np));
        assert_eq!(state.resolve(&ServeOptions::with_nprobe(3)), Some(3));
        assert_eq!(state.resolve(&ServeOptions::exact()), None);
        // nprobe ≥ nlist routes through the exact kernel.
        assert_eq!(state.resolve(&ServeOptions::with_nprobe(8)), None);
        assert_eq!(state.resolve(&ServeOptions::with_nprobe(999)), None);
    }

    /// 2 users × 4 items, d = 2: every score is known by hand.
    fn two_by_four() -> ModelArtifact {
        let users = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let items = Matrix::from_vec(4, 2, vec![0.9, 0.0, 0.5, 0.1, 0.1, 0.8, 0.3, 0.3]);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot)
    }

    #[test]
    #[should_panic(expected = "artifact user rows != dataset users")]
    fn with_seen_rejects_shape_mismatch() {
        let ds = Dataset::from_pairs("m", 3, 4, &[], &[]);
        let _ = ServeState::with_seen(two_by_four(), &ds);
    }

    #[test]
    fn ivf_respects_the_seen_mask() {
        let mut indexed = art(30, 300, 8, 77);
        indexed.build_ivf(4);
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i % 30, i * 7 % 300)).collect();
        let ds = Dataset::from_pairs("seen", 30, 300, &pairs, &[]);
        let state = ServeState::with_seen(indexed, &ds);
        let opts = ServeOptions::with_nprobe(2);
        assert_eq!(state.resolve(&opts), Some(2));
        let (mut scratch, mut recs) = (ServeScratch::new(), Vec::new());
        for user in 0..30u32 {
            state.recommend_into(&RecommendRequest { user, k: 20, opts }, &mut scratch, &mut recs);
            let seen = state.seen(user);
            assert!(!recs.is_empty());
            assert!(recs.iter().all(|r| seen.binary_search(&r.item).is_err()), "user {user}");
        }
    }

    #[test]
    fn ivf_rescores_its_shortlist_exactly() {
        let mut indexed = art(30, 300, 8, 77);
        indexed.build_default_ivf();
        let state = ServeState::new(indexed);
        assert!(state.resolve(&ServeOptions::default()).is_some());
        let (mut scratch, mut truth, mut recs, mut score) =
            (ServeScratch::new(), Vec::new(), Vec::new(), Vec::new());
        for user in 0..30u32 {
            let exact = RecommendRequest { user, k: 10, opts: ServeOptions::exact() };
            state.recommend_into(&exact, &mut scratch, &mut truth);
            state.recommend_into(&RecommendRequest::new(user, 10), &mut scratch, &mut recs);
            for r in &recs {
                // Every served score is the item's true prepared-table
                // score, and no IVF pick beats the exact best.
                state.score_items_into(user, &[r.item], &mut score).unwrap();
                assert_eq!(r.score.to_bits(), score[0].to_bits(), "user {user} item {}", r.item);
                assert!(r.score <= truth[0].score, "user {user} item {}", r.item);
            }
        }
    }

    #[test]
    fn batched_exact_is_bit_identical_to_serial() {
        let state = ServeState::new(art(40, 700, 16, 7));
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> =
            (0..17u32).map(|u| RecommendRequest::new(u * 2 % 40, 10)).collect();
        let mut batched = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut batched);
        for (req, got) in reqs.iter().zip(&batched) {
            let mut serial = Vec::new();
            state.recommend_into(req, &mut scratch, &mut serial);
            assert_eq!(*got, serial, "user {}", req.user);
        }
    }

    #[test]
    fn batched_exact_with_seen_lists_is_bit_identical_to_serial() {
        // Eleven seen items a user, k past the eligible count for some.
        let pairs: Vec<(u32, u32)> = (0..440u32).map(|i| (i % 40, i * 13 % 700)).collect();
        let ds = Dataset::from_pairs("seen", 40, 700, &pairs, &[]);
        let state = ServeState::with_seen(art(40, 700, 16, 7), &ds);
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> = (0..33u32)
            .map(|r| RecommendRequest {
                user: r * 2 % 40,
                k: [10, 1, 695, 700][r as usize % 4],
                opts: ServeOptions { filter_seen: r % 5 != 0, ..ServeOptions::default() },
            })
            .collect();
        let mut batched = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut batched);
        for (req, got) in reqs.iter().zip(&batched) {
            let mut serial = Vec::new();
            state.recommend_into(req, &mut scratch, &mut serial);
            assert_eq!(*got, serial, "user {}", req.user);
            let seen = state.seen(req.user);
            assert!(!seen.is_empty());
            let eligible = if req.opts.filter_seen { 700 - seen.len() } else { 700 };
            assert_eq!(got.len(), req.k.min(eligible), "user {}", req.user);
            if req.opts.filter_seen {
                assert!(got.iter().all(|rec| seen.binary_search(&rec.item).is_err()));
            }
        }
    }

    #[test]
    fn batched_mixed_modes_match_serial() {
        let mut indexed = art(30, 600, 8, 9);
        indexed.build_ivf(10);
        let state = ServeState::new(indexed);
        let mut scratch = ServeScratch::new();
        // Alternate exact / default-IVF / explicit-nprobe requests.
        let reqs: Vec<RecommendRequest> = (0..12u32)
            .map(|u| {
                let opts = match u % 3 {
                    0 => ServeOptions::exact(),
                    1 => ServeOptions::default(),
                    _ => ServeOptions::with_nprobe(2),
                };
                RecommendRequest { user: u, k: 8, opts }
            })
            .collect();
        let mut batched = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut batched);
        for (req, got) in reqs.iter().zip(&batched) {
            let mut serial = Vec::new();
            state.recommend_into(req, &mut scratch, &mut serial);
            assert_eq!(*got, serial, "user {} opts {:?}", req.user, req.opts);
        }
    }

    #[test]
    fn batch_reuses_output_allocations() {
        let state = ServeState::new(art(10, 200, 8, 3));
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> = (0..6u32).map(|u| RecommendRequest::new(u, 5)).collect();
        let mut out = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut out);
        let caps: Vec<usize> = out.iter().map(Vec::capacity).collect();
        let ptrs: Vec<*const Rec> = out.iter().map(|v| v.as_ptr()).collect();
        state.recommend_batch_into(&reqs, &mut scratch, &mut out);
        assert_eq!(caps, out.iter().map(Vec::capacity).collect::<Vec<_>>());
        assert_eq!(ptrs, out.iter().map(|v| v.as_ptr()).collect::<Vec<_>>());
    }

    #[test]
    fn filter_seen_off_serves_the_full_catalogue() {
        let pairs: Vec<(u32, u32)> = (0..20).map(|i| (i % 5, i)).collect();
        let ds = Dataset::from_pairs("f", 5, 50, &pairs, &[]);
        let state = ServeState::with_seen(art(5, 50, 8, 4), &ds);
        let mut scratch = ServeScratch::new();
        let mut filtered = Vec::new();
        state.recommend_into(&RecommendRequest::new(0, 50), &mut scratch, &mut filtered);
        assert_eq!(filtered.len(), 50 - state.seen(0).len());
        let mut unfiltered = Vec::new();
        let req = RecommendRequest {
            user: 0,
            k: 50,
            opts: ServeOptions { filter_seen: false, ..Default::default() },
        };
        state.recommend_into(&req, &mut scratch, &mut unfiltered);
        assert_eq!(unfiltered.len(), 50);
    }

    #[test]
    fn respond_validates_instead_of_panicking() {
        let state = ServeState::new(art(3, 20, 4, 5)).with_version(9);
        let mut scratch = ServeScratch::new();
        let ok = state.respond(&RecommendRequest::new(2, 5), &mut scratch).unwrap();
        assert_eq!(ok.version, 9);
        assert_eq!(ok.user, 2);
        assert_eq!(ok.recs.len(), 5);
        let err = state.respond(&RecommendRequest::new(3, 5), &mut scratch).unwrap_err();
        assert_eq!(err, ServeError::UserOutOfRange { user: 3, n_users: 3 });
    }

    #[test]
    fn score_items_validates_ids() {
        let state = ServeState::new(art(3, 20, 4, 6));
        let mut out = Vec::new();
        state.score_items_into(1, &[0, 19], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let err = state.score_items_into(1, &[0, 20], &mut out).unwrap_err();
        assert_eq!(err, ServeError::ItemOutOfRange { item: 20, n_items: 20 });
        let err = state.score_items_into(9, &[0], &mut out).unwrap_err();
        assert_eq!(err, ServeError::UserOutOfRange { user: 9, n_users: 3 });
    }

    #[test]
    fn int8_artifacts_batch_through_the_fused_kernel() {
        let q = art(12, 300, 8, 8).quantize();
        let state = ServeState::new(q);
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> = (0..12u32).map(|u| RecommendRequest::new(u, 7)).collect();
        let mut batched = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut batched);
        for (req, got) in reqs.iter().zip(&batched) {
            let mut serial = Vec::new();
            state.recommend_into(req, &mut scratch, &mut serial);
            assert_eq!(*got, serial);
        }
    }
}
