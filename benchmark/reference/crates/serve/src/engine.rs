//! The traffic-facing [`ServeEngine`]: a micro-batching request
//! scheduler over hot-swappable, multi-tenant serving state.
//!
//! Concurrent callers enqueue single-user [`RecommendRequest`]s on a
//! **bounded MPSC queue** (backpressure instead of unbounded memory) and
//! block for their [`RecommendResponse`]. Long-lived worker threads —
//! the same parked-workers-on-`std::sync::mpsc` pattern as
//! `bsl_core::engine::WorkerPool`, created once and reused for every
//! batch — drain the queue in **micro-batches**: a worker takes the
//! first request, then coalesces whatever else arrives within
//! [`BatchPolicy::window`] up to [`BatchPolicy::max_batch`], groups the
//! batch by tenant slot, and answers each group through one
//! [`ServeState::recommend_batch_into`] pass. That is the paper's
//! amortization insight turned into a serving lever: one tiled blocked
//! pass over the item table for the whole batch instead of one full scan
//! per request (plus one worker wake-up per *batch* instead of per
//! request).
//!
//! Artifacts are resolved through a [`Registry`] of named
//! [`ArtifactSlot`]s, so `swap` deploys a new generation with **zero
//! downtime**: requests already in flight finish on the generation they
//! loaded; every later batch serves the new one. Candidate scoring
//! (`score_items`) answers inline on the caller's thread — it touches a
//! handful of rows, so there is nothing to amortize by batching.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::recommender::Rec;
use crate::registry::{Registry, TenantInfo};
use crate::state::{RecommendRequest, RecommendResponse, ServeError, ServeScratch, ServeState};
use crate::swap::ArtifactSlot;

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests coalesced into one scoring pass. `1` disables
    /// micro-batching (per-request dispatch — the comparison baseline the
    /// load generator measures against).
    pub max_batch: usize,
    /// How long a worker holding a non-full batch waits for more requests
    /// before scoring. Zero = score immediately, still coalescing
    /// whatever is already queued.
    pub window: Duration,
    /// Bound of the request queue; senders block (backpressure) when the
    /// engine is this far behind.
    pub queue_depth: usize,
    /// Worker threads draining the queue. One is right for one core;
    /// more lets batch scoring overlap with batch formation.
    pub workers: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch: 32, window: Duration::from_micros(200), queue_depth: 1024, workers: 1 }
    }
}

impl BatchPolicy {
    /// Per-request dispatch: batches of 1, no coalescing window — what
    /// serving looks like without the micro-batcher.
    pub fn unbatched() -> Self {
        Self { max_batch: 1, window: Duration::ZERO, ..Self::default() }
    }
}

/// One queued request: the resolved tenant slot, the request, and the
/// completion channel its caller blocks on.
struct Queued {
    slot: Arc<ArtifactSlot>,
    req: RecommendRequest,
    done: Sender<Result<RecommendResponse, ServeError>>,
}

/// Monotonic engine counters (relaxed atomics — stats, not synchronization).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    swaps: AtomicU64,
}

/// A point-in-time stats report.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Recommend requests answered (including error responses).
    pub requests: u64,
    /// Requests answered with a [`ServeError`].
    pub errors: u64,
    /// Scoring batches executed.
    pub batches: u64,
    /// Mean requests per batch (the coalescing factor).
    pub avg_batch: f64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Artifact hot-swaps performed through the engine.
    pub swaps: u64,
    /// Per-tenant summaries (name order).
    pub tenants: Vec<TenantInfo>,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests={} errors={} batches={} avg_batch={:.2} max_batch={} swaps={}",
            self.requests, self.errors, self.batches, self.avg_batch, self.max_batch, self.swaps
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "tenant {} version={} swaps={} users={} items={}",
                t.name, t.version, t.swaps, t.n_users, t.n_items
            )?;
        }
        Ok(())
    }
}

/// The micro-batched, hot-swappable serving engine. See the module docs.
///
/// Construct with [`ServeEngine::new`] (multi-tenant) or
/// [`ServeEngine::single_tenant`]; share as `Arc<ServeEngine>` across
/// request threads ([`recommend`](Self::recommend) takes `&self` and
/// blocks only its caller). Dropping the engine (or calling
/// [`shutdown`](Self::shutdown)) drains in-flight requests and joins the
/// workers.
pub struct ServeEngine {
    registry: Arc<Registry>,
    policy: BatchPolicy,
    /// `None` after shutdown: the master sender is dropped so workers
    /// drain and exit; late callers get [`ServeError::Closed`].
    tx: Mutex<Option<SyncSender<Queued>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<Counters>,
}

impl ServeEngine {
    /// An engine serving `registry`'s tenants under `policy` (knob floors:
    /// at least 1 each of `max_batch`, `queue_depth`, `workers`).
    pub fn new(registry: Arc<Registry>, mut policy: BatchPolicy) -> Arc<Self> {
        policy.max_batch = policy.max_batch.max(1);
        policy.queue_depth = policy.queue_depth.max(1);
        policy.workers = policy.workers.max(1);
        let (tx, rx) = sync_channel::<Queued>(policy.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let counters = Arc::new(Counters::default());
        let workers = (0..policy.workers)
            .map(|k| {
                let rx = Arc::clone(&rx);
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("bsl-serve-{k}"))
                    .spawn(move || worker_loop(&rx, &counters, policy))
                    .expect("spawning serve worker")
            })
            .collect();
        Arc::new(Self {
            registry,
            policy,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            counters,
        })
    }

    /// A one-tenant engine serving `state` under the name `"default"`.
    pub fn single_tenant(state: ServeState, policy: BatchPolicy) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        registry.insert(Self::DEFAULT_TENANT, state);
        Self::new(registry, policy)
    }

    /// The tenant name [`single_tenant`](Self::single_tenant) registers.
    pub const DEFAULT_TENANT: &'static str = "default";

    /// The tenant registry (register/swap/remove tenants directly; swaps
    /// through [`swap`](Self::swap) additionally count in the stats).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The active batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Answers one request for `tenant`, blocking until a worker serves
    /// the micro-batch it lands in. Backpressure: blocks on a full queue.
    pub fn recommend(
        &self,
        tenant: &str,
        req: RecommendRequest,
    ) -> Result<RecommendResponse, ServeError> {
        let slot = self.registry.get(tenant)?;
        let (done, wait) = std::sync::mpsc::channel();
        let tx = match &*self.tx.lock().expect("engine sender lock") {
            Some(tx) => tx.clone(),
            None => return Err(ServeError::Closed),
        };
        if tx.send(Queued { slot, req, done }).is_err() {
            return Err(ServeError::Closed);
        }
        wait.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Scores an explicit candidate list for `tenant`'s current artifact
    /// generation, inline on the caller's thread (a handful of row dots —
    /// nothing to gain from batching). Returns the answering generation's
    /// version alongside the scores.
    pub fn score_items(
        &self,
        tenant: &str,
        user: u32,
        items: &[u32],
    ) -> Result<(u64, Vec<f32>), ServeError> {
        let state = self.registry.get(tenant)?.load();
        let mut out = Vec::with_capacity(items.len());
        state.score_items_into(user, items, &mut out)?;
        Ok((state.version(), out))
    }

    /// Hot-swaps `tenant`'s artifact to `state` with zero downtime;
    /// returns the new version. In-flight batches finish on the old
    /// generation, which drops when its last holder does.
    pub fn swap(&self, tenant: &str, state: ServeState) -> Result<u64, ServeError> {
        let version = self.registry.swap(tenant, state)?;
        // ORDERING: Relaxed — monotone stats counter; consistency of the
        // swap itself is carried by the slot's SeqCst protocol, not here.
        self.counters.swaps.fetch_add(1, Relaxed);
        Ok(version)
    }

    /// A point-in-time stats snapshot.
    // ORDERING: Relaxed throughout — independent monotone counters; the
    // snapshot is advisory and does not claim cross-counter consistency.
    pub fn stats(&self) -> StatsSnapshot {
        let c = &self.counters;
        let batches = c.batches.load(Relaxed);
        let batched = c.batched_requests.load(Relaxed);
        StatsSnapshot {
            requests: c.requests.load(Relaxed),
            errors: c.errors.load(Relaxed),
            batches,
            avg_batch: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            max_batch: c.max_batch.load(Relaxed),
            swaps: c.swaps.load(Relaxed),
            tenants: self.registry.tenants(),
        }
    }

    /// Shuts the engine down (idempotent): stops accepting requests,
    /// lets queued ones drain, and joins the workers. Also runs on drop.
    pub fn shutdown(&self) {
        drop(self.tx.lock().expect("engine sender lock").take());
        let mut workers = self.workers.lock().expect("engine worker lock");
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One serve worker: form a micro-batch (first request blocking, the
/// rest coalesced within the policy window), then score it per tenant
/// group through the shared-state batched pass. Exits when the queue
/// closes.
// ORDERING: all counter updates in here are Relaxed — monotone stats
// counters read only by the advisory `stats` snapshot; request/response
// hand-off synchronizes through the channels, never through these.
fn worker_loop(rx: &Mutex<Receiver<Queued>>, counters: &Counters, policy: BatchPolicy) {
    let mut scratch = ServeScratch::new();
    let mut batch: Vec<Queued> = Vec::with_capacity(policy.max_batch);
    let mut order: Vec<usize> = Vec::with_capacity(policy.max_batch);
    let mut reqs: Vec<RecommendRequest> = Vec::with_capacity(policy.max_batch);
    let mut idxs: Vec<usize> = Vec::with_capacity(policy.max_batch);
    let mut outs: Vec<Vec<Rec>> = Vec::new();
    loop {
        batch.clear();
        {
            // The queue lock is held while the batch forms (including the
            // coalescing wait): exactly one worker builds a batch at a
            // time, while the others are busy scoring already-formed
            // batches. `recv` parks this worker until traffic arrives.
            let guard = rx.lock().expect("serve queue lock");
            match guard.recv() {
                Ok(q) => batch.push(q),
                Err(_) => return, // queue closed: engine shutdown
            }
            let deadline = Instant::now() + policy.window;
            while batch.len() < policy.max_batch {
                match guard.try_recv() {
                    Ok(q) => batch.push(q),
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {
                        // The queue is drained. Score what we have as soon
                        // as it is an actual batch — delaying further only
                        // adds latency for the requests already in hand
                        // (and under closed-loop load the senders are
                        // blocked on *us*, so nothing more can arrive).
                        // Only a lone request waits out the window for
                        // company.
                        let now = Instant::now();
                        if batch.len() > 1 || now >= deadline {
                            break;
                        }
                        match guard.recv_timeout(deadline - now) {
                            Ok(q) => batch.push(q),
                            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                                break
                            }
                        }
                    }
                }
            }
        }

        counters.requests.fetch_add(batch.len() as u64, Relaxed);
        counters.batches.fetch_add(1, Relaxed);
        counters.batched_requests.fetch_add(batch.len() as u64, Relaxed);
        counters.max_batch.fetch_max(batch.len() as u64, Relaxed);

        // Group by tenant slot so each group scores through one state
        // load (one consistent artifact generation per group).
        order.clear();
        order.extend(0..batch.len());
        order.sort_by_key(|&i| Arc::as_ptr(&batch[i].slot) as usize);
        let mut g0 = 0;
        while g0 < order.len() {
            let mut g1 = g0 + 1;
            while g1 < order.len() && Arc::ptr_eq(&batch[order[g0]].slot, &batch[order[g1]].slot) {
                g1 += 1;
            }
            let state = batch[order[g0]].slot.load();
            reqs.clear();
            idxs.clear();
            for &i in &order[g0..g1] {
                match state.check(&batch[i].req) {
                    Ok(()) => {
                        idxs.push(i);
                        reqs.push(batch[i].req);
                    }
                    Err(e) => {
                        counters.errors.fetch_add(1, Relaxed);
                        let _ = batch[i].done.send(Err(e));
                    }
                }
            }
            state.recommend_batch_into(&reqs, &mut scratch, &mut outs);
            for (j, &i) in idxs.iter().enumerate() {
                let resp = RecommendResponse {
                    user: reqs[j].user,
                    version: state.version(),
                    recs: outs[j].clone(),
                };
                let _ = batch[i].done.send(Ok(resp));
            }
            g0 = g1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeOptions;
    use bsl_linalg::Matrix;
    use bsl_models::{EvalScore, ModelArtifact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn state(seed: u64, n_users: usize, n_items: usize) -> ServeState {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = Matrix::gaussian(n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(n_items, 8, 1.0, &mut rng);
        ServeState::new(ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot))
    }

    #[test]
    fn engine_answers_match_direct_state_calls() {
        let reference = state(11, 20, 200);
        let engine = ServeEngine::single_tenant(state(11, 20, 200), BatchPolicy::default());
        let mut scratch = ServeScratch::new();
        for u in 0..20u32 {
            let req = RecommendRequest::new(u, 10);
            let got = engine.recommend(ServeEngine::DEFAULT_TENANT, req).unwrap();
            let want = reference.respond(&req, &mut scratch).unwrap();
            assert_eq!(got.recs, want.recs, "user {u}");
            assert_eq!(got.version, 1, "initial generation serves as version 1");
        }
        let snap = engine.stats();
        assert_eq!(snap.requests, 20);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn engine_reports_request_errors() {
        let engine = ServeEngine::single_tenant(state(3, 5, 50), BatchPolicy::default());
        let err = engine.recommend("default", RecommendRequest::new(5, 3)).unwrap_err();
        assert_eq!(err, ServeError::UserOutOfRange { user: 5, n_users: 5 });
        let err = engine.recommend("nope", RecommendRequest::new(0, 3)).unwrap_err();
        assert_eq!(err, ServeError::UnknownTenant("nope".into()));
        assert_eq!(engine.stats().errors, 1, "unknown tenant is rejected before the queue");
    }

    #[test]
    fn concurrent_burst_is_coalesced() {
        let engine = ServeEngine::single_tenant(
            state(7, 64, 400),
            BatchPolicy { window: Duration::from_millis(5), ..Default::default() },
        );
        let n_threads = 8usize;
        let per_thread = 25usize;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let u = ((t * per_thread + i) % 64) as u32;
                        let resp =
                            engine.recommend("default", RecommendRequest::new(u, 5)).unwrap();
                        assert_eq!(resp.recs.len(), 5);
                    }
                });
            }
        });
        let snap = engine.stats();
        assert_eq!(snap.requests, (n_threads * per_thread) as u64);
        assert!(
            snap.batches < snap.requests,
            "burst of {} requests must coalesce into fewer batches (got {})",
            snap.requests,
            snap.batches
        );
        assert!(snap.max_batch > 1, "at least one batch must hold >1 request");
    }

    #[test]
    fn multi_tenant_requests_route_to_their_artifacts() {
        let registry = Arc::new(Registry::new());
        registry.insert("a", state(1, 10, 100));
        registry.insert("b", state(2, 30, 50));
        let ref_a = state(1, 10, 100);
        let ref_b = state(2, 30, 50);
        let engine = ServeEngine::new(Arc::clone(&registry), BatchPolicy::default());
        let mut scratch = ServeScratch::new();
        let req = RecommendRequest::new(3, 7);
        assert_eq!(
            engine.recommend("a", req).unwrap().recs,
            ref_a.respond(&req, &mut scratch).unwrap().recs
        );
        assert_eq!(
            engine.recommend("b", req).unwrap().recs,
            ref_b.respond(&req, &mut scratch).unwrap().recs
        );
        // Tenant b has 30 users; user 20 is valid there but not on a.
        let req = RecommendRequest::new(20, 3);
        assert!(engine.recommend("b", req).is_ok());
        assert_eq!(
            engine.recommend("a", req).unwrap_err(),
            ServeError::UserOutOfRange { user: 20, n_users: 10 }
        );
    }

    #[test]
    fn swap_changes_answers_and_versions() {
        let engine = ServeEngine::single_tenant(state(5, 8, 120), BatchPolicy::default());
        let req = RecommendRequest { user: 2, k: 6, opts: ServeOptions::default() };
        let before = engine.recommend("default", req).unwrap();
        assert_eq!(before.version, 1);
        let v = engine.swap("default", state(99, 8, 120)).unwrap();
        assert_eq!(v, 2);
        let after = engine.recommend("default", req).unwrap();
        assert_eq!(after.version, 2);
        assert_ne!(before.recs, after.recs, "different artifact, different answers");
        assert_eq!(engine.stats().swaps, 1);
    }

    #[test]
    fn score_items_reports_the_serving_version() {
        let engine = ServeEngine::single_tenant(state(4, 6, 40), BatchPolicy::default());
        let (v, scores) = engine.score_items("default", 1, &[0, 5, 39]).unwrap();
        assert_eq!(v, 1);
        assert_eq!(scores.len(), 3);
        let err = engine.score_items("default", 1, &[40]).unwrap_err();
        assert_eq!(err, ServeError::ItemOutOfRange { item: 40, n_items: 40 });
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let engine = ServeEngine::single_tenant(state(6, 4, 30), BatchPolicy::default());
        assert!(engine.recommend("default", RecommendRequest::new(0, 3)).is_ok());
        engine.shutdown();
        engine.shutdown();
        assert_eq!(
            engine.recommend("default", RecommendRequest::new(0, 3)).unwrap_err(),
            ServeError::Closed
        );
    }
}
