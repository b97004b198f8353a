//! Hot artifact swap: an atomically swappable, epoch-counted `Arc` slot
//! built on `std` only (the workspace's no-external-deps constraint rules
//! out `arc-swap`).
//!
//! [`SwapSlot`] publishes an `Arc<T>` that readers grab wait-free-ish
//! ([`SwapSlot::load`] is two atomic RMWs plus a refcount bump — no
//! locks) and writers replace atomically. In-flight requests keep serving
//! from the `Arc` they loaded; the swapped-out value drops exactly when
//! the last such request finishes — which is what makes deploying a
//! freshly trained `repro --save` artifact a zero-downtime operation.
//!
//! The reclamation scheme is a reader-counted grace period: readers
//! announce themselves in a counter around the (pointer-load +
//! refcount-bump) critical section, and a writer that has unpublished the
//! old pointer waits for the counter to drain before releasing the
//! slot's own strong reference to it. The critical section is a few
//! nanoseconds, so the writer's wait is bounded by concurrent `load`
//! calls *in flight at the swap instant*, never by request processing.
//! All counter/pointer operations are `SeqCst`: the safety argument needs
//! the reader's announce and the writer's drain check to be totally
//! ordered against the pointer exchange (see the SAFETY comments).

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use crate::state::ServeState;

/// Schedule-perturbation points for the interleaving stress harness
/// (`crates/serve/tests/interleave.rs`).
///
/// Compiled only under `RUSTFLAGS="--cfg audit_stress"` (see
/// `scripts/audit.sh`); in normal builds [`pause`](stress::pause) is an
/// empty inline fn the optimizer erases, so the hooks cost nothing.
pub(crate) mod stress {
    /// The windows worth widening. The first three sit between two atomic
    /// accesses of the swap protocol whose relative order its SAFETY
    /// argument depends on; the last three sit between the steps of
    /// [`ServeEngine::recommend`](crate::ServeEngine::recommend) across
    /// which another caller may change the queue, the lanes or the
    /// published answers.
    #[derive(Clone, Copy)]
    pub enum Site {
        /// Reader announced (`readers += 1`) but has not loaded the
        /// pointer yet.
        LoadAnnounced,
        /// Reader loaded the pointer but has not bumped the refcount yet
        /// — the window the writer's drain wait exists for.
        LoadPtrLoaded,
        /// Writer exchanged the pointer but has not checked the drain
        /// counter yet.
        SwapExchanged,
        /// Engine caller queued its request but has not looked for its
        /// answer or a free lane yet.
        Enqueued,
        /// Engine caller is about to look for its answer or a free lane
        /// (again, after a wake-up).
        BeforeLane,
        /// Lane leader scored its batch but has not published the answers.
        BeforePublish,
    }

    #[cfg(not(audit_stress))]
    #[inline(always)]
    pub fn pause(_site: Site) {}

    /// Seeded pseudo-random delay: per thread, derived from
    /// `BSL_STRESS_SEED` so a failing schedule can be replayed.
    #[cfg(audit_stress)]
    pub fn pause(site: Site) {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        // ORDERING: Relaxed — the counter only hands each thread a
        // distinct salt; nothing is published through it.
        static THREAD_SALT: AtomicU64 = AtomicU64::new(0);
        fn seed() -> u64 {
            let base: u64 = std::env::var("BSL_STRESS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            // ORDERING: Relaxed — distinct-salt counter only (see above).
            let salt = THREAD_SALT.fetch_add(1, Relaxed) + 1;
            base ^ salt.wrapping_mul(0xD134_2543_DE82_EF95)
        }
        thread_local! {
            static RNG: Cell<u64> = Cell::new(seed());
        }
        RNG.with(|r| {
            let mut x = r.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r.set(x);
            match (x ^ site as u64) % 4 {
                0 => {}
                1 => std::hint::spin_loop(),
                2 => {
                    for _ in 0..(x % 64) {
                        std::hint::spin_loop();
                    }
                }
                _ => std::thread::yield_now(),
            }
        });
    }
}

/// An atomically swappable `Arc<T>` cell with an epoch counter.
///
/// The slot always holds exactly one strong reference to the current
/// value; [`load`](Self::load) hands out additional ones. See the module
/// docs for the reclamation protocol.
pub struct SwapSlot<T> {
    /// The published value, as a raw pointer carrying one strong count.
    ptr: AtomicPtr<T>,
    /// Readers currently inside the `load` critical section.
    readers: AtomicUsize,
    /// Completed swaps (epoch 0 = the initial value).
    epoch: AtomicU64,
}

impl<T> SwapSlot<T> {
    /// A slot publishing `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(initial).cast_mut()),
            readers: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// The number of completed [`swap`](Self::swap)s.
    pub fn epoch(&self) -> u64 {
        // ORDERING: a monotone counter read — Relaxed would do, but every
        // access on this slot stays SeqCst so the whole protocol reasons
        // in one total order.
        self.epoch.load(SeqCst)
    }

    /// Clones out the currently published `Arc` — lock-free, a few
    /// nanoseconds. The clone pins the value for as long as the caller
    /// holds it; concurrent swaps never invalidate it.
    #[allow(unsafe_code)] // raw-pointer Arc round trip; see SAFETY
    pub fn load(&self) -> Arc<T> {
        // ORDERING: SeqCst, and deliberately not Acquire/Release. The
        // proof needs *our announce store* ordered before *our pointer
        // load* in an order the writer shares — a StoreLoad edge, the one
        // edge acquire/release fencing cannot give. With anything weaker,
        // announce could pass the pointer load; the writer could then
        // exchange + observe `readers == 0` between them and free the
        // value we are about to read. SeqCst on all four accesses (this
        // pair, plus the writer's exchange and drain check) puts them in
        // one total order where that interleaving is impossible.
        self.readers.fetch_add(1, SeqCst);
        stress::pause(stress::Site::LoadAnnounced);
        // ORDERING: SeqCst — the load half of the StoreLoad edge above.
        let p = self.ptr.load(SeqCst);
        stress::pause(stress::Site::LoadPtrLoaded);
        // SAFETY: `p` came from `Arc::into_raw`, and the strong reference
        // it carries is still held by the slot: a writer only releases it
        // after (a) unpublishing `p` and (b) observing `readers == 0`.
        // Both that pointer exchange and the drain check are `SeqCst`,
        // as are our announce (`fetch_add`) and pointer load, so in the
        // single total order either our announce precedes the writer's
        // drain check — the writer waits until our `fetch_sub`, by which
        // time we hold our own strong count — or the writer's pointer
        // exchange precedes our load and we see the *new* pointer, whose
        // slot-held reference is live. Either way `p` is alive here.
        let arc = unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        };
        // ORDERING: SeqCst exit — the refcount bump above must be ordered
        // before the count the writer's drain check reads, so a writer
        // that sees `readers == 0` knows our strong count is already in
        // place.
        self.readers.fetch_sub(1, SeqCst);
        arc
    }

    /// Publishes `new`, returning the previous value. In-flight `Arc`s
    /// handed out by [`load`](Self::load) remain valid; the returned
    /// `Arc` (plus any such clones) are the old value's only remaining
    /// owners, so it drops when the last of them does.
    #[allow(unsafe_code)] // raw-pointer Arc round trip; see SAFETY
    pub fn swap(&self, new: Arc<T>) -> Arc<T> {
        // ORDERING: SeqCst exchange — the store half of the writer's
        // StoreLoad edge: the unpublish must be ordered before the drain
        // check below in the total order shared with readers (see the
        // derivation in `load`).
        let old = self.ptr.swap(Arc::into_raw(new).cast_mut(), SeqCst);
        stress::pause(stress::Site::SwapExchanged);
        // ORDERING: SeqCst so the epoch tick is ordered after the
        // exchange: an observer that sees epoch == n also sees the n-th
        // pointer (or a later one).
        self.epoch.fetch_add(1, SeqCst);
        // Grace period: readers that announced themselves before the
        // exchange above may still be between their pointer load and
        // their refcount bump. Wait them out — the window is a handful of
        // instructions, so this spin is nanoseconds, not request-time.
        let mut spins = 0u32;
        // ORDERING: SeqCst drain check — the load half of the writer's
        // StoreLoad edge: only readers that announced *before* our
        // exchange matter, and the total order guarantees we either see
        // their announce here or they saw our new pointer.
        while self.readers.load(SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: `old` came from `Arc::into_raw` and still carries the
        // strong count the slot held; it is unpublished and no reader can
        // be mid-bump on it (drained above), so reconstituting the Arc —
        // i.e. transferring that count to the caller — is sound.
        unsafe { Arc::from_raw(old) }
    }
}

impl<T> Drop for SwapSlot<T> {
    #[allow(unsafe_code)] // releasing the slot's own strong count
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no concurrent load/swap; the slot
        // still owns the strong count carried by the published pointer.
        // ORDERING: exclusive access — any ordering is correct; SeqCst
        // keeps the slot's accesses uniform.
        unsafe { drop(Arc::from_raw(self.ptr.load(SeqCst))) }
    }
}

/// A named, hot-swappable serving slot: a [`SwapSlot`] over
/// [`ServeState`] that stamps every swapped-in generation with a
/// monotonically increasing version (the initial state is version 1).
///
/// This is what the [`Registry`](crate::Registry) holds per tenant and
/// what `swap_artifact` requests replace — readers mid-request finish on
/// the generation they loaded, and
/// [`RecommendResponse::version`](crate::RecommendResponse) tells every
/// consumer which generation answered.
pub struct ArtifactSlot {
    slot: SwapSlot<ServeState>,
    /// Version stamps handed out (1 = the initial state).
    versions: AtomicU64,
}

impl ArtifactSlot {
    /// A slot serving `state`, stamped as version 1.
    pub fn new(state: ServeState) -> Self {
        Self { slot: SwapSlot::new(Arc::new(state.with_version(1))), versions: AtomicU64::new(1) }
    }

    /// The currently served generation.
    pub fn load(&self) -> Arc<ServeState> {
        self.slot.load()
    }

    /// Atomically replaces the served state with `state` stamped as the
    /// next version; returns `(new_version, old_state)`. In-flight
    /// requests finish on the generation they loaded; the old state drops
    /// when its last holder does.
    pub fn swap(&self, state: ServeState) -> (u64, Arc<ServeState>) {
        // ORDERING: SeqCst so version stamps are allocated in the same
        // total order as the slot swaps they are baked into — versions
        // observed through `load` can then never regress.
        let version = self.versions.fetch_add(1, SeqCst) + 1;
        let old = self.slot.swap(Arc::new(state.with_version(version)));
        (version, old)
    }

    /// Completed swaps on this slot.
    pub fn swaps(&self) -> u64 {
        self.slot.epoch()
    }

    /// The version currently being served.
    pub fn version(&self) -> u64 {
        self.load().version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    #[test]
    fn load_swap_round_trip() {
        let slot = SwapSlot::new(Arc::new(10u32));
        assert_eq!(*slot.load(), 10);
        assert_eq!(slot.epoch(), 0);
        let old = slot.swap(Arc::new(20));
        assert_eq!(*old, 10);
        assert_eq!(*slot.load(), 20);
        assert_eq!(slot.epoch(), 1);
    }

    #[test]
    fn swapped_out_value_drops_with_its_last_holder() {
        let first = Arc::new(vec![1u8; 64]);
        let weak_first: Weak<Vec<u8>> = Arc::downgrade(&first);
        let slot = SwapSlot::new(first);
        let pinned = slot.load(); // an in-flight request's handle
        let old = slot.swap(Arc::new(vec![2u8; 64]));
        drop(old); // the writer releases its handle...
        assert!(weak_first.upgrade().is_some(), "in-flight holder keeps the old value alive");
        drop(pinned); // ...and the last in-flight request finishes
        assert!(weak_first.upgrade().is_none(), "old value drops with its last holder");
    }

    #[test]
    fn slot_drop_releases_the_current_value() {
        let v = Arc::new(5u8);
        let weak = Arc::downgrade(&v);
        let slot = SwapSlot::new(v);
        drop(slot);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn concurrent_loads_and_swaps_stay_consistent() {
        let slot = Arc::new(SwapSlot::new(Arc::new(0u64)));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..500 {
                        let v = *slot.load();
                        assert!(v >= last, "published values must be monotone: {v} < {last}");
                        last = v;
                        if last.is_multiple_of(7) {
                            std::thread::yield_now(); // interleave with the swapper
                        }
                    }
                })
            })
            .collect();
        for v in 1..=200u64 {
            let old = slot.swap(Arc::new(v));
            assert!(*old < v);
            if v % 10 == 0 {
                std::thread::yield_now();
            }
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*slot.load(), 200);
        assert_eq!(slot.epoch(), 200);
    }
}
