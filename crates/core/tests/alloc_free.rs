//! Allocation counts of warm training calls, measured by a counting global
//! allocator (this test binary's own, so nothing else sees it).
//!
//! Only allocations made on the calling thread while a measurement is open
//! are counted, so the test harness's threads cannot disturb the figure.

use bsl_core::engine::{Job, WorkerPool};
use bsl_data::synth::{generate, SynthConfig};
use bsl_losses::fd::synthetic_scores;
use bsl_losses::{build, scale_rows, LossConfig, RowTerm, ScoreBatch};
use bsl_models::{Backbone, BackboneConfig, GradBuffer, Hyper, Mf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The system allocator, counting the calls that hand out memory.
struct Counting;

thread_local! {
    /// Allocations on this thread since its measurement opened, or `None`
    /// outside one.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count touches a
// const-initialized thread-local `Cell`, which never allocates.
#[allow(unsafe_code)] // a `GlobalAlloc` impl is `unsafe` by definition
unsafe impl GlobalAlloc for Counting {
    // SAFETY: to call, the `GlobalAlloc::alloc` contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: to call, the `GlobalAlloc::alloc_zeroed` contract, passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: to call, the `GlobalAlloc::realloc` contract, passed on as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded under this method's own contract; `ptr` came
        // from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: to call, the `GlobalAlloc::dealloc` contract, passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under this method's own contract; `ptr` came
        // from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("measurement open")
}

#[test]
fn the_counter_sees_an_allocation() {
    assert_eq!(allocations(|| drop(std::hint::black_box(vec![0u8; 16]))), 1);
}

/// The linear GCNs at `layers` hops: LightGCN and LR-GCCF, one model on
/// the plain and the residual propagation.
fn linear_gcns(layers: usize) -> [BackboneConfig; 2] {
    [BackboneConfig::LightGcn { layers }, BackboneConfig::LrGccf { layers }]
}

/// Builds `cfg` at width `dim`, runs one cold forward and step on `pool`,
/// then counts the allocations of three warm steps, each after a forward
/// when `forward` is set. Returns the count and the warm steps' summed
/// auxiliary loss.
fn warm_allocations(
    cfg: BackboneConfig,
    dim: usize,
    pool: Option<&WorkerPool>,
    forward: bool,
) -> (usize, f64) {
    let ds = Arc::new(generate(&SynthConfig::tiny(1)));
    let hp = Hyper { lr: 0.01, l2: 1e-4 };
    let mut rng = StdRng::seed_from_u64(0);
    let mut gcn = bsl_models::build(cfg, &ds, dim, 7);
    let (users, items) = ([0u32, 5, 11, 5, 2], [3u32, 9, 3, 40]);
    let mut grads = GradBuffer::new(ds.n_users, ds.n_items, dim);
    users.iter().for_each(|&u| grads.user_row_mut(u).iter_mut().for_each(|g| *g += 0.1));
    items.iter().for_each(|&i| grads.item_row_mut(i).iter_mut().for_each(|g| *g -= 0.2));
    gcn.forward_on(&mut rng, pool);
    gcn.step_on(&grads, &users, &items, hp, &mut rng, pool);
    let mut aux = 0.0;
    let n = allocations(|| {
        for _ in 0..3 {
            if forward {
                gcn.forward_on(&mut rng, pool);
            }
            aux += gcn.step_on(&grads, &users, &items, hp, &mut rng, pool);
        }
    });
    (n, aux)
}

/// Once a LightGCN (or LR-GCCF) has run one forward and one step, further
/// forwards and steps reuse its hop, output and gradient buffers: no
/// allocation at all, at every layer count, on the in-batch trainer's
/// width and a tail width.
#[test]
fn warm_lightgcn_forward_and_step_allocate_nothing() {
    for (dim, layers) in [(64usize, 1usize), (64, 2), (64, 3), (13, 2)] {
        for cfg in linear_gcns(layers) {
            let (n, _) = warm_allocations(cfg, dim, None, true);
            assert_eq!(n, 0, "{}, d = {dim}, {layers} layers", cfg.label());
        }
    }
}

/// The pooled forms on a one-lane pool run the whole range inline, so they
/// never build a round's job list: a warm `forward_on` / `step_on` pair
/// allocates nothing either. (A round on more lanes allocates its job
/// list, as the step passes' rounds do.)
#[test]
fn warm_lightgcn_forward_on_and_step_on_a_one_lane_pool_allocate_nothing() {
    let pool = WorkerPool::new(1);
    for (dim, layers) in [(64usize, 2usize), (13, 3)] {
        for cfg in linear_gcns(layers) {
            let (n, _) = warm_allocations(cfg, dim, Some(&pool), true);
            assert_eq!(n, 0, "{}, d = {dim}, {layers} layers", cfg.label());
        }
    }
}

/// SGL's and SimGCL's steps keep their InfoNCE scratch, capped node lists
/// and view gradients: once one step has run, a step allocates nothing,
/// plain or on a one-lane pool. (Their forwards still allocate the views:
/// SGL draws two dropped graphs, SimGCL two noise propagations.)
#[test]
fn warm_sgl_and_simgcl_steps_allocate_nothing() {
    let pool = WorkerPool::new(1);
    for cfg in [
        BackboneConfig::Sgl { layers: 2, dropout: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
        BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
    ] {
        for lanes in [None, Some(&pool)] {
            let (n, aux) = warm_allocations(cfg, 64, lanes, false);
            let label = format!("{}, {} lanes", cfg.label(), lanes.map_or(0, |p| p.n_workers()));
            assert!(aux > 0.0, "{label}: the InfoNCE auxiliary did not run");
            assert_eq!(n, 0, "{label}");
        }
    }
}

/// The sampled trainer's optimizer end: ordering the touched rows and the
/// MF (and CML) step over them reuse the lists' capacity and the step's
/// row buffer, so a warm pair allocates nothing.
#[test]
fn warm_order_touched_and_mf_step_allocate_nothing() {
    let ds = Arc::new(generate(&SynthConfig::tiny(1)));
    let hp = Hyper { lr: 0.01, l2: 1e-4 };
    let mut rng = StdRng::seed_from_u64(0);
    let dim = 64;
    for mut mf in [Mf::new(&ds, dim, 7), Mf::new_cml(&ds, dim, 7)] {
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, dim);
        let touch = |grads: &mut GradBuffer| {
            for u in [11u32, 0, 5] {
                grads.user_row_mut(u).iter_mut().for_each(|g| *g += 0.1);
            }
            for i in [9u32, 3, 40, 3] {
                grads.item_row_mut(i).iter_mut().for_each(|g| *g -= 0.2);
            }
        };
        touch(&mut grads);
        grads.order_touched();
        mf.step(&grads, &[], &[], hp, &mut rng);
        grads.clear();
        touch(&mut grads);
        let n = allocations(|| {
            for _ in 0..3 {
                grads.order_touched();
                mf.step(&grads, &[], &[], hp, &mut rng);
            }
        });
        assert_eq!(n, 0, "{}", mf.name());
    }
}

/// A trainer's loss stage runs a loss's row phase, batch phase and row
/// factors into buffers it keeps across steps: once those exist, no phase
/// of any loss allocates, at the in-batch trainer's row width.
#[test]
fn warm_loss_phases_allocate_nothing() {
    let (b, m) = (64usize, 63usize);
    let (pos, neg) = synthetic_scores(b, m, 5);
    let batch = ScoreBatch::new(&pos, &neg, m);
    let (mut grad_pos, mut grad_neg) = (vec![0.0f32; b], vec![0.0f32; b * m]);
    let (mut terms, mut scales) = (vec![RowTerm::default(); b], vec![0.0f32; b]);
    let configs = [
        LossConfig::Bpr,
        LossConfig::Bce { neg_weight: 0.7 },
        LossConfig::Mse { neg_weight: 1.3 },
        LossConfig::Sl { tau: 0.2 },
        LossConfig::Bsl { tau1: 0.15, tau2: 0.1 },
        LossConfig::Ccl { margin: 0.4, neg_weight: 1.5 },
        LossConfig::Hinge { margin: 0.5 },
        LossConfig::TaylorSl { tau: 0.25, with_variance: true },
        LossConfig::TaylorSl { tau: 0.25, with_variance: false },
    ];
    for cfg in configs {
        let loss = build(cfg);
        let mut run = || {
            loss.row_phase(&batch, 0..b, &mut grad_pos, &mut grad_neg, &mut terms);
            loss.batch_phase(&batch, &terms, &mut grad_pos, &mut scales);
            scale_rows(&scales, &mut grad_neg, m);
        };
        run();
        assert_eq!(allocations(&mut run), 0, "{}", loss.name());
    }
}

/// A warm worker-pool round allocates nothing beyond the caller's job list:
/// not on the calling thread (posting, job 0, the wait) and not on the
/// worker (taking, running and counting its job), whether the two sides
/// meet while spinning or one of them parked.
#[test]
fn warm_pool_rounds_allocate_nothing_beyond_the_job_list() {
    let pool = WorkerPool::new(2);
    // Job 1 runs on the one worker every round: open a count there.
    pool.run(vec![Box::new(|| ()), Box::new(|| COUNT.with(|c| c.set(Some(0))))]);
    for round in 0..200 {
        let nap = Duration::from_millis(if round % 20 == 19 { 2 } else { 0 });
        if round % 40 == 39 {
            std::thread::sleep(nap); // the worker parks before the post
        }
        let jobs: Vec<Job> = vec![Box::new(|| ()), Box::new(move || std::thread::sleep(nap))];
        assert_eq!(allocations(|| pool.run(jobs)), 0, "round {round}, calling thread");
    }
    let on_worker = AtomicUsize::new(usize::MAX);
    pool.run(vec![
        Box::new(|| ()),
        Box::new(|| {
            let n = COUNT.with(|c| c.replace(None)).expect("measurement open");
            on_worker.store(n, Ordering::Relaxed);
        }),
    ]);
    assert_eq!(on_worker.load(Ordering::Relaxed), 0, "worker thread");
}
