//! The traffic-facing [`ServeEngine`]: a combining request scheduler
//! over hot-swappable, multi-tenant serving state, in which **callers
//! score their own batches** — the engine owns no thread.
//!
//! [`ServeEngine::recommend`] pushes its single-user
//! [`RecommendRequest`] on one bounded FIFO queue (backpressure instead
//! of unbounded memory) under one `Mutex` + `Condvar`. If fewer than
//! `lanes` batches are being scored — `lanes` is the host's
//! `available_parallelism()`, read once — the calling thread itself takes
//! what is queued (front first, at most [`BatchPolicy::max_batch`],
//! normally including its own request), groups it by tenant slot, loads
//! each group's artifact generation once and answers every request of
//! the group through [`ServeState::respond`], then publishes the answers
//! under the lock and wakes the waiters. Otherwise it sleeps until its
//! answer is published or a lane frees. A lone request therefore costs
//! its own scoring plus two uncontended lock round trips: no hand-off, no
//! timer. A batch is what queued up while every lane was busy; it shares
//! one slot load and one lock round trip (each request still costs its
//! own scan).
//!
//! Artifacts are resolved through a [`Registry`] of named
//! [`ArtifactSlot`]s, so `swap` deploys a new generation with **zero
//! downtime**: requests already in flight finish on the generation they
//! loaded; every later batch serves the new one. Candidate scoring
//! (`score_items`) answers inline without queueing — it touches a
//! handful of rows, so there is nothing to amortize by batching.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::registry::{Registry, TenantInfo};
use crate::state::{RecommendRequest, RecommendResponse, ServeError, ServeScratch, ServeState};
use crate::swap::stress::{self, Site};
use crate::swap::ArtifactSlot;

/// Batching knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests scored in one pass. `1` disables batching
    /// (per-request dispatch — the comparison baseline the load generator
    /// measures against).
    pub max_batch: usize,
    /// Bound of the request queue; callers block (backpressure) when the
    /// engine is this far behind.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch: 32, queue_depth: 1024 }
    }
}

impl BatchPolicy {
    /// Per-request dispatch: batches of 1 — the load generator's
    /// comparison baseline.
    pub fn unbatched() -> Self {
        Self { max_batch: 1, ..Self::default() }
    }
}

type Answer = Result<RecommendResponse, ServeError>;

/// One queued request: the resolved tenant slot, the request, and the
/// index of the answer cell its caller watches.
struct Queued {
    slot: Arc<ArtifactSlot>,
    req: RecommendRequest,
    cell: usize,
}

/// Everything one scoring pass needs, pooled so a lane allocates only
/// while its buffers warm up. At most `lanes` of these ever exist.
#[derive(Default)]
struct Lane {
    scratch: ServeScratch,
    /// The batch being scored, in queue order.
    batch: Vec<Queued>,
    /// `answers[i]` answers `batch[i]`; `None` until scored.
    answers: Vec<Option<Answer>>,
    order: Vec<usize>,
}

/// The state callers coordinate through, under [`ServeEngine::shared`].
#[derive(Default)]
struct Shared {
    queue: VecDeque<Queued>,
    /// Published answers, one cell per caller currently inside
    /// `recommend`; `free` lists the cells nobody is waiting on.
    cells: Vec<Option<Answer>>,
    free: Vec<usize>,
    /// Batches being scored right now (≤ `lanes`).
    busy: usize,
    idle: Vec<Lane>,
    closed: bool,
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

/// The batching, hot-swappable serving engine. See the module docs.
///
/// Construct with [`ServeEngine::new`] (multi-tenant) or
/// [`ServeEngine::single_tenant`]; share as `Arc<ServeEngine>` across
/// request threads ([`recommend`](Self::recommend) takes `&self`). The
/// engine owns no thread, so dropping it releases nothing but memory;
/// [`shutdown`](Self::shutdown) is what stops the traffic.
pub struct ServeEngine {
    registry: Arc<Registry>,
    policy: BatchPolicy,
    /// Batches that may be scored at once: one per core.
    lanes: usize,
    shared: Mutex<Shared>,
    /// Signalled when answers are published, a lane frees, the queue
    /// leaves its bound, or the engine closes.
    wake: Condvar,
    counters: Counters,
    #[cfg(test)]
    hook: Option<Hook>,
}

/// Called with each tenant group's requests just before they are
/// scored: how the unit tests hold a lane, see a batch, or unwind.
#[cfg(test)]
type Hook = Box<dyn Fn(&[RecommendRequest]) + Send + Sync>;

impl ServeEngine {
    /// An engine serving `registry`'s tenants under `policy` (knob floors:
    /// at least 1 each of `max_batch`, `queue_depth`), scoring as many
    /// batches at once as the host has cores.
    pub fn new(registry: Arc<Registry>, policy: BatchPolicy) -> Arc<Self> {
        let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_lanes(registry, policy, lanes)
    }

    fn with_lanes(registry: Arc<Registry>, mut policy: BatchPolicy, lanes: usize) -> Arc<Self> {
        policy.max_batch = policy.max_batch.max(1);
        policy.queue_depth = policy.queue_depth.max(1);
        Arc::new(Self {
            registry,
            policy,
            lanes: lanes.max(1),
            shared: Mutex::default(),
            wake: Condvar::new(),
            counters: Counters::default(),
            #[cfg(test)]
            hook: None,
        })
    }

    /// [`new`](Self::new) with a chosen lane count: exists for the
    /// interleaving harness, under `--cfg audit_stress` only.
    #[cfg(audit_stress)]
    #[doc(hidden)]
    pub fn stress_with_lanes(
        registry: Arc<Registry>,
        policy: BatchPolicy,
        lanes: usize,
    ) -> Arc<Self> {
        Self::with_lanes(registry, policy, lanes)
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

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("no engine caller panics holding the lock")
    }

    fn wait<'a>(&self, sh: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        self.wake.wait(sh).expect("no engine caller panics holding the lock")
    }

    /// A schedule-perturbation point of the interleaving harness (see
    /// [`stress`]): under `--cfg audit_stress` the lock is released around
    /// a seeded pause, so whatever another caller can do between two steps
    /// of `recommend` gets the time to happen. Otherwise the identity.
    fn perturb<'a>(&'a self, sh: MutexGuard<'a, Shared>, site: Site) -> MutexGuard<'a, Shared> {
        if !cfg!(audit_stress) {
            return sh;
        }
        drop(sh);
        stress::pause(site);
        self.lock()
    }

    /// Answers one request for `tenant`. The request is queued; while a
    /// lane is free the calling thread scores the front of the queue
    /// itself — so it may answer other callers' requests before it
    /// returns, and its own may be answered by another caller — and
    /// otherwise it blocks until its answer is published. Backpressure:
    /// blocks while the queue is full.
    pub fn recommend(
        &self,
        tenant: &str,
        req: RecommendRequest,
    ) -> Result<RecommendResponse, ServeError> {
        let slot = self.registry.get(tenant)?;
        let mut sh = self.lock();
        while !sh.closed && sh.queue.len() >= self.policy.queue_depth {
            sh = self.wait(sh);
        }
        if sh.closed {
            return Err(ServeError::Closed);
        }
        let cell = sh.free.pop().unwrap_or_else(|| {
            sh.cells.push(None);
            sh.cells.len() - 1
        });
        sh.queue.push_back(Queued { slot, req, cell });
        sh = self.perturb(sh, Site::Enqueued);
        loop {
            if let Some(answer) = sh.cells[cell].take() {
                sh.free.push(cell);
                return answer;
            }
            sh = self.lead_or_wait(sh);
        }
    }

    /// One step of whoever needs the queue to move: score its front if a
    /// lane is free, else sleep until a leader publishes — which every
    /// request in a batch, and every request behind `lanes` batches, has
    /// coming.
    fn lead_or_wait<'a>(&'a self, sh: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        if sh.busy < self.lanes && !sh.queue.is_empty() {
            self.lead(sh)
        } else {
            self.perturb(self.wait(sh), Site::BeforeLane)
        }
    }

    /// Takes a lane and the front of the queue, scores it with the lock
    /// released, publishes the answers and takes the lock again.
    fn lead<'a>(&'a self, mut sh: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        sh.busy += 1;
        let mut lane = sh.idle.pop().unwrap_or_default();
        let was_full = sh.queue.len() >= self.policy.queue_depth;
        let n = sh.queue.len().min(self.policy.max_batch);
        lane.batch.extend(sh.queue.drain(..n));
        lane.answers.resize_with(n, || None);
        drop(sh);
        if was_full {
            self.wake.notify_all(); // callers blocked on the bound
        }
        let mut lead = Lead { engine: self, lane };
        self.score_batch(&mut lead.lane);
        stress::pause(Site::BeforePublish);
        drop(lead); // publishes
        self.lock()
    }

    /// Scores `lane.batch` into `lane.answers`, lock-free: grouped by
    /// tenant slot so each group is answered from one state load (one
    /// consistent artifact generation per group).
    // ORDERING: all counter updates in here are Relaxed — monotone stats
    // counters read only by the advisory `stats` snapshot; requests and
    // answers are handed over under the engine mutex, never through these.
    fn score_batch(&self, lane: &mut Lane) {
        let Lane { scratch, batch, answers, order } = lane;
        let counters = &self.counters;
        counters.requests.fetch_add(batch.len() as u64, Relaxed);
        counters.batches.fetch_add(1, Relaxed);
        counters.batched_requests.fetch_add(batch.len() as u64, Relaxed);
        counters.max_batch.fetch_max(batch.len() as u64, Relaxed);

        order.clear();
        order.extend(0..batch.len());
        order.sort_unstable_by_key(|&i| (Arc::as_ptr(&batch[i].slot) as usize, i));
        let mut g0 = 0;
        while g0 < order.len() {
            let mut g1 = g0 + 1;
            while g1 < order.len() && Arc::ptr_eq(&batch[order[g0]].slot, &batch[order[g1]].slot) {
                g1 += 1;
            }
            let state = batch[order[g0]].slot.load();
            #[cfg(test)]
            self.run_hook(batch, &order[g0..g1]);
            for &i in &order[g0..g1] {
                let answer = state.respond(&batch[i].req, scratch);
                if answer.is_err() {
                    counters.errors.fetch_add(1, Relaxed);
                }
                answers[i] = Some(answer);
            }
            g0 = g1;
        }
    }

    /// Hands the test hook one tenant group's requests.
    #[cfg(test)]
    fn run_hook(&self, batch: &[Queued], group: &[usize]) {
        if let Some(hook) = &self.hook {
            hook(&group.iter().map(|&i| batch[i].req).collect::<Vec<_>>());
        }
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

    /// Shuts the engine down (idempotent): later callers, and callers
    /// blocked on a full queue, get [`ServeError::Closed`]; every request
    /// already queued is answered before this returns (by its caller, or
    /// here if that caller unwound while leading).
    pub fn shutdown(&self) {
        let mut sh = self.lock();
        sh.closed = true;
        self.wake.notify_all();
        while sh.busy > 0 || !sh.queue.is_empty() {
            sh = self.lead_or_wait(sh);
        }
    }
}

/// A lane being scored. Publishing is its `Drop`, so a leader that
/// unwinds out of scoring still answers its batch (`Closed` for whatever
/// it had not scored), gives the lane back and wakes the waiters.
struct Lead<'a> {
    engine: &'a ServeEngine,
    lane: Lane,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Nothing panics holding this lock, and a `Drop` must not.
        let mut sh = self.engine.shared.lock().unwrap_or_else(PoisonError::into_inner);
        for (q, answer) in self.lane.batch.drain(..).zip(self.lane.answers.drain(..)) {
            sh.cells[q.cell] = Some(answer.unwrap_or(Err(ServeError::Closed)));
        }
        sh.busy -= 1;
        // A lane that unwound is dropped with its leader, not pooled: the
        // next one starts from fresh buffers. (That leader's own answer
        // cell is never reused: one `Option` per panic.)
        if !std::thread::panicking() {
            sh.idle.push(std::mem::take(&mut self.lane));
        }
        drop(sh); // the woken find the lock free
        self.engine.wake.notify_all();
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
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::{scope, yield_now};

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

    // ---- deterministic scheduling tests --------------------------------
    //
    // None of these sleeps or races a timer. A one-lane engine (private
    // lane count) gets a scoring hook that records every tenant group it
    // is handed and parks the groups of "gate" users (id >= GATE) until
    // the test releases them, so the test decides what queues up behind
    // a busy lane; it waits for that by reading the queue length.

    const GATE: u32 = 60;

    struct Gate {
        entered: Receiver<()>,
        release: Sender<()>,
        groups: Arc<Mutex<Vec<Vec<u32>>>>,
    }

    impl Gate {
        fn groups(&self) -> Vec<Vec<u32>> {
            self.groups.lock().unwrap().clone()
        }
    }

    fn gated(
        registry: Arc<Registry>,
        policy: BatchPolicy,
        lanes: usize,
        extra: impl Fn(&[RecommendRequest]) + Send + Sync + 'static,
    ) -> (Arc<ServeEngine>, Gate) {
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let release_rx = Mutex::new(release_rx);
        let groups = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&groups);
        let mut engine = ServeEngine::with_lanes(registry, policy, lanes);
        Arc::get_mut(&mut engine).unwrap().hook = Some(Box::new(move |reqs| {
            seen.lock().unwrap().push(reqs.iter().map(|r| r.user).collect());
            extra(reqs);
            if reqs.iter().any(|r| r.user >= GATE) {
                entered_tx.send(()).unwrap();
                let rx = release_rx.lock().unwrap();
                rx.recv().unwrap();
            }
        }));
        (engine, Gate { entered, release, groups })
    }

    fn one_tenant(seed: u64) -> Arc<Registry> {
        let registry = Arc::new(Registry::new());
        registry.insert("default", state(seed, 64, 300));
        registry
    }

    fn wait_queued(engine: &ServeEngine, n: usize) {
        while engine.lock().queue.len() != n {
            yield_now();
        }
    }

    fn ask(engine: &ServeEngine, tenant: &str, user: u32) -> Answer {
        engine.recommend(tenant, RecommendRequest::new(user, 5))
    }

    #[test]
    fn callers_queued_behind_a_busy_lane_are_one_fifo_batch() {
        let reference = state(7, 64, 300).with_version(1);
        let policy = BatchPolicy { max_batch: 4, ..Default::default() };
        let (engine, gate) = gated(one_tenant(7), policy, 1, |_| {});
        let engine = &*engine;
        scope(|s| {
            let holder = s.spawn(move || ask(engine, "default", GATE));
            gate.entered.recv().unwrap();
            // Five callers queue one by one behind the held lane: one more
            // than `max_batch`.
            let callers: Vec<_> = (1..=5u32)
                .map(|u| {
                    let h = s.spawn(move || ask(engine, "default", u));
                    wait_queued(engine, u as usize);
                    h
                })
                .collect();
            gate.release.send(()).unwrap();
            let mut scratch = ServeScratch::new();
            for (u, h) in std::iter::once((GATE, holder)).chain((1..=5).zip(callers)) {
                let want = reference.respond(&RecommendRequest::new(u, 5), &mut scratch);
                assert_eq!(h.join().unwrap(), want, "user {u}");
            }
        });
        assert_eq!(gate.groups(), vec![vec![GATE], vec![1, 2, 3, 4], vec![5]]);
        let snap = engine.stats();
        assert_eq!((snap.requests, snap.batches, snap.max_batch), (6, 3, 4));
        assert_eq!(snap.avg_batch, 2.0);
    }

    #[test]
    fn two_lanes_score_two_batches_at_once() {
        // `max_batch: 1`: under `audit_stress` the lock opens between
        // enqueue and lead, and whoever leads first must not take both.
        let (engine, gate) = gated(one_tenant(8), BatchPolicy::unbatched(), 2, |_| {});
        let engine = &*engine;
        scope(|s| {
            let a = s.spawn(move || ask(engine, "default", GATE));
            let b = s.spawn(move || ask(engine, "default", GATE + 1));
            // Both are inside the scoring call at the same time...
            gate.entered.recv().unwrap();
            gate.entered.recv().unwrap();
            assert_eq!(engine.lock().busy, 2);
            // ...and a third caller finds no lane: it stays queued.
            let c = s.spawn(move || ask(engine, "default", 3));
            wait_queued(engine, 1);
            gate.release.send(()).unwrap();
            gate.release.send(()).unwrap();
            for h in [a, b, c] {
                assert!(h.join().unwrap().is_ok());
            }
        });
        assert_eq!(engine.stats().batches, 3);
        assert_eq!(engine.lock().idle.len(), 2, "one pooled lane per lane, no more");
    }

    #[test]
    fn full_queue_blocks_the_next_caller_until_a_batch_is_taken() {
        let policy = BatchPolicy { queue_depth: 2, ..Default::default() };
        let (engine, gate) = gated(one_tenant(9), policy, 1, |_| {});
        let engine = &*engine;
        scope(|s| {
            let mut callers = vec![s.spawn(move || ask(engine, "default", GATE))];
            gate.entered.recv().unwrap();
            for u in 1..=2u32 {
                callers.push(s.spawn(move || ask(engine, "default", u)));
                wait_queued(engine, u as usize);
            }
            // The queue is at its bound: the third caller may not enter it.
            callers.push(s.spawn(move || ask(engine, "default", 3)));
            for _ in 0..2_000 {
                assert!(engine.lock().queue.len() <= 2, "queue grew past queue_depth");
                yield_now();
            }
            gate.release.send(()).unwrap();
            for h in callers {
                assert!(h.join().unwrap().is_ok());
            }
        });
        // It got in only once [1, 2] had been taken, so never into their batch.
        assert_eq!(gate.groups(), vec![vec![GATE], vec![1, 2], vec![3]]);
    }

    #[test]
    fn shutdown_answers_every_queued_caller_and_closes_to_later_ones() {
        let (engine, gate) = gated(one_tenant(10), BatchPolicy::default(), 1, |_| {});
        let engine = &*engine;
        scope(|s| {
            let mut callers = vec![s.spawn(move || ask(engine, "default", GATE))];
            gate.entered.recv().unwrap();
            for u in 1..=3u32 {
                callers.push(s.spawn(move || ask(engine, "default", u)));
                wait_queued(engine, u as usize);
            }
            let stopper = s.spawn(move || engine.shutdown());
            while !engine.lock().closed {
                yield_now();
            }
            assert_eq!(ask(engine, "default", 4), Err(ServeError::Closed));
            assert!(!stopper.is_finished(), "shutdown waits for the batch in flight");
            gate.release.send(()).unwrap();
            for h in callers {
                assert!(h.join().unwrap().is_ok(), "queued before shutdown: answered");
            }
            stopper.join().unwrap();
        });
        assert_eq!(engine.stats().requests, 4);
        assert_eq!(ask(engine, "default", 5), Err(ServeError::Closed));
    }

    #[test]
    fn mixed_tenant_batch_loads_each_slot_once() {
        let registry = Arc::new(Registry::new());
        registry.insert("a", state(1, 64, 100));
        registry.insert("b", state(2, 64, 50));
        let (ref_a, ref_b) = (state(1, 64, 100).with_version(1), state(2, 64, 50).with_version(1));
        // The hook runs between a group's one `slot.load()` and its
        // scoring: deploying tenant a's next generation from inside a's
        // group must not reach any request of that group.
        let deploy = Arc::clone(&registry);
        let (engine, gate) = gated(Arc::clone(&registry), BatchPolicy::default(), 1, move |reqs| {
            if reqs[0].user == 1 {
                deploy.swap("a", state(99, 64, 100)).unwrap();
            }
        });
        let engine = &*engine;
        let asks = [("a", 1u32), ("b", 2), ("a", 3), ("b", 4)];
        scope(|s| {
            let holder = s.spawn(move || ask(engine, "a", GATE));
            gate.entered.recv().unwrap();
            let callers: Vec<_> = asks
                .iter()
                .enumerate()
                .map(|(i, &(tenant, u))| {
                    let h = s.spawn(move || ask(engine, tenant, u));
                    wait_queued(engine, i + 1);
                    h
                })
                .collect();
            gate.release.send(()).unwrap();
            holder.join().unwrap().unwrap();
            let mut scratch = ServeScratch::new();
            for (&(tenant, u), h) in asks.iter().zip(callers) {
                let reference = if tenant == "a" { &ref_a } else { &ref_b };
                let want = reference.respond(&RecommendRequest::new(u, 5), &mut scratch);
                assert_eq!(h.join().unwrap(), want, "{tenant}/{u}: generation 1, whole group");
            }
        });
        // One batch of four, two groups, each handed over (= loaded) once.
        let mut groups = gate.groups();
        groups[1..].sort();
        assert_eq!(groups, vec![vec![GATE], vec![1, 3], vec![2, 4]]);
        assert_eq!(engine.stats().batches, 2);
        assert_eq!(ask(engine, "a", 1).unwrap().version, 2, "the deploy did land");
    }

    #[test]
    fn a_leader_that_unwinds_fails_its_batch_closed_and_frees_the_lane() {
        let (engine, gate) = gated(one_tenant(12), BatchPolicy::default(), 1, |reqs| {
            assert!(reqs.iter().all(|r| r.user != 13), "injected scoring failure");
        });
        let engine = &*engine;
        scope(|s| {
            let holder = s.spawn(move || ask(engine, "default", GATE));
            gate.entered.recv().unwrap();
            let callers: Vec<_> = [13u32, 1, 2]
                .into_iter()
                .enumerate()
                .map(|(i, u)| {
                    let h = s.spawn(move || ask(engine, "default", u));
                    wait_queued(engine, i + 1);
                    h
                })
                .collect();
            gate.release.send(()).unwrap();
            assert!(holder.join().unwrap().is_ok());
            // Whichever of the three woke first led [13, 1, 2] and unwound
            // out of the hook; its drop guard answered the other two.
            let results: Vec<_> = callers.into_iter().map(|h| h.join()).collect();
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1, "one leader panicked");
            for r in results.into_iter().flatten() {
                assert_eq!(r, Err(ServeError::Closed));
            }
        });
        assert_eq!(engine.lock().busy, 0, "the lane came back");
        assert!(ask(engine, "default", 5).is_ok(), "a later request is served");
        engine.shutdown();
    }
}
