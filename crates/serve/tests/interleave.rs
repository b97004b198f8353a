//! Interleaving stress harness for the hot-swap reclamation protocol and
//! the engine's caller-scores-the-batch protocol.
//!
//! Hammers [`SwapSlot`] with concurrent readers and a swapper across many
//! seeds. In a normal build this is a plain concurrency smoke test; under
//! `RUSTFLAGS="--cfg audit_stress"` (see `scripts/audit.sh`) the slot's
//! internal `stress::pause` hooks inject seeded pseudo-random delays into
//! the three windows the SAFETY argument depends on (announce→ptr-load,
//! ptr-load→refcount-bump, exchange→drain-check), so rare schedules —
//! including the ones a wrong memory ordering would corrupt — are hit
//! deterministically per `BSL_STRESS_SEED`. Run it under TSan/ASan for
//! the strongest signal (CI's `sanitizers` job does).
//!
//! What each round asserts:
//! * **content consistency** — every loaded value is internally uniform
//!   (`vec![gen; N]` all-equal); a use-after-free or torn publication
//!   shows up as mixed elements or a sanitizer report.
//! * **monotonicity** — generations observed by a reader never regress,
//!   and the swapper always gets back an older generation.
//! * **reclamation** — after the round, every swapped-out generation has
//!   actually dropped (Weak probes), and the final value is alive.
//!
//! The engine case ([`engine_survives_many_seeded_interleavings`]) has no
//! unsafe code to defend; what it would catch is a **lost wake-up** — a
//! caller asleep on the condvar with its answer published, a lane free or
//! room in the queue. Under `audit_stress` `ServeEngine::recommend`
//! releases its lock around a seeded pause after enqueueing and before
//! every look for a lane, and pauses before publishing, and the case runs
//! over 1, 2 and 3 lanes whatever the host has (in a normal build: the
//! host's lane count, no pauses). Every answer must equal the direct
//! [`ServeState`] call, and all of it must finish inside a deadline.

use bsl_linalg::Matrix;
use bsl_serve::{
    BatchPolicy, EvalScore, ModelArtifact, RecommendRequest, Registry, ServeEngine, ServeScratch,
    ServeState, SwapSlot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Weak};
use std::time::Duration;

const READERS: usize = 3;
const LOADS_PER_READER: usize = 400;
const SWAPS: u64 = 150;
const PAYLOAD: usize = 32;

/// One seeded round of readers-vs-swapper.
fn stress_round(seed: u64) {
    // The slot's pause hooks (compiled under `audit_stress`) derive their
    // per-thread RNG from this variable at thread start.
    std::env::set_var("BSL_STRESS_SEED", seed.to_string());

    let slot = Arc::new(SwapSlot::new(Arc::new(vec![0u64; PAYLOAD])));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let mut last = 0u64;
                for i in 0..LOADS_PER_READER {
                    let v = slot.load();
                    assert_eq!(v.len(), PAYLOAD, "seed {seed}: payload length changed");
                    let gen = v[0];
                    assert!(
                        v.iter().all(|&x| x == gen),
                        "seed {seed}: torn value — mixed generations in one payload"
                    );
                    assert!(gen >= last, "seed {seed}: generation regressed ({gen} < {last})");
                    last = gen;
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let mut probes: Vec<(u64, Weak<Vec<u64>>)> = Vec::with_capacity(SWAPS as usize);
    for gen in 1..=SWAPS {
        let old = slot.swap(Arc::new(vec![gen; PAYLOAD]));
        assert!(old[0] < gen, "seed {seed}: swap returned a non-older generation");
        probes.push((old[0], Arc::downgrade(&old)));
    }
    for r in readers {
        r.join().expect("reader panicked");
    }

    // Reclamation: with readers joined and the swapper's handles dropped,
    // only the currently published generation may still be alive.
    assert_eq!(slot.epoch(), SWAPS, "seed {seed}: epoch mismatch");
    assert_eq!(slot.load()[0], SWAPS, "seed {seed}: final generation wrong");
    for (gen, probe) in &probes {
        assert!(probe.upgrade().is_none(), "seed {seed}: swapped-out generation {gen} leaked");
    }
    let current = Arc::downgrade(&slot.load());
    drop(slot);
    assert!(
        current.upgrade().is_none(),
        "seed {seed}: dropping the slot leaked the current generation"
    );
}

#[test]
fn swap_slot_survives_many_seeded_interleavings() {
    let base: u64 =
        std::env::var("BSL_STRESS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED);
    for round in 0..24 {
        stress_round(base.wrapping_add(round * 0x9E37_79B9));
    }
}

const CALLERS: u32 = 6;
const REQUESTS_PER_CALLER: u32 = 200;
const ENGINE_SEEDS: u64 = 32;
const ENGINE_USERS: u32 = 48;
const ENGINE_DEADLINE: Duration = Duration::from_secs(300);

fn engine_state() -> ServeState {
    let mut rng = StdRng::seed_from_u64(0xE61E);
    let users = Matrix::gaussian(ENGINE_USERS as usize, 8, 1.0, &mut rng);
    let items = Matrix::gaussian(300, 8, 1.0, &mut rng);
    ServeState::new(ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot))
}

/// The engines one seed is run against: one per lane count under
/// `audit_stress`, the host's otherwise. A small batch and a queue bound
/// below the caller count keep the split and backpressure paths busy.
fn engines() -> Vec<Arc<ServeEngine>> {
    let policy = BatchPolicy { max_batch: 3, queue_depth: 4 };
    let registry = || {
        let registry = Arc::new(Registry::new());
        registry.insert(ServeEngine::DEFAULT_TENANT, engine_state());
        registry
    };
    #[cfg(audit_stress)]
    return (1..=3)
        .map(|lanes| ServeEngine::stress_with_lanes(registry(), policy, lanes))
        .collect();
    #[cfg(not(audit_stress))]
    return vec![ServeEngine::new(registry(), policy)];
}

/// One seeded round: every caller's every answer equals the direct call.
fn engine_round(seed: u64, engine: &ServeEngine, expected: &[bsl_serve::RecommendResponse]) {
    std::env::set_var("BSL_STRESS_SEED", seed.to_string());
    std::thread::scope(|s| {
        for t in 0..CALLERS {
            s.spawn(move || {
                for i in 0..REQUESTS_PER_CALLER {
                    let user = (t * 11 + i * 7 + seed as u32) % ENGINE_USERS;
                    let got = engine
                        .recommend(ServeEngine::DEFAULT_TENANT, RecommendRequest::new(user, 6))
                        .expect("request served");
                    assert_eq!(got, expected[user as usize], "seed {seed}: user {user} diverged");
                }
            });
        }
    });
}

#[test]
fn engine_survives_many_seeded_interleavings() {
    let base: u64 =
        std::env::var("BSL_STRESS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED);
    let reference = engine_state().with_version(1);
    let mut scratch = ServeScratch::new();
    let expected: Vec<_> = (0..ENGINE_USERS)
        .map(|u| reference.respond(&RecommendRequest::new(u, 6), &mut scratch).expect("in range"))
        .collect();

    // The rounds run on their own thread so that a lost wake-up — callers
    // asleep forever — fails the test at the deadline instead of hanging it.
    let (progress, watch) = std::sync::mpsc::channel();
    let rounds = std::thread::spawn(move || {
        for round in 0..ENGINE_SEEDS {
            let seed = base.wrapping_add(round * 0x9E37_79B9);
            for engine in engines() {
                progress.send(seed).expect("watchdog alive");
                engine_round(seed, &engine, &expected);
                engine.shutdown();
                let stats = engine.stats();
                assert_eq!(stats.requests, u64::from(CALLERS * REQUESTS_PER_CALLER));
                assert_eq!(stats.errors, 0);
            }
        }
    });
    let deadline = std::time::Instant::now() + ENGINE_DEADLINE;
    let mut last_seed = base;
    loop {
        match watch.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
            Ok(seed) => last_seed = seed,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("engine rounds did not finish in {ENGINE_DEADLINE:?}: stuck at seed {last_seed}")
            }
        }
    }
    rounds.join().expect("an engine round failed");
}
