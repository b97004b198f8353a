//! The duet runner: product and reference run the same ops on the same
//! inputs in interleaved ABBA slices inside one process, and every timing is
//! reduced to a product ÷ reference ratio. Host noise (frequency spells, a
//! busy neighbour) lasts longer than a slice pair, so it hits both halves of
//! a pair and cancels in the ratio.

use crate::inputs::{self, Req, Rng64, TOP_K};
use crate::spec::{Answer, Conn, ServeSide, ServeSpec, TrainSide, TrainSpec};
use crate::stats;
use crate::trace::Tracer;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How much of a workload one run executes.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Rig generations. Each generation sets both rigs up afresh (one timed
    /// set-up pair for `setup_s`), runs its share of the slice pairs on them
    /// and tears them down, so that whatever a rig instance is stuck with for
    /// life (where its threads and pages landed) is drawn several times a run
    /// instead of once.
    pub generations: usize,
    /// Timed slice pairs per generation (one product slice and one
    /// reference slice each); even, so that both orders are equally often
    /// first.
    pub pairs_per_generation: usize,
    /// Further set-up pairs each generation times and discards: set-up is
    /// short next to the slices, so `setup_s` needs more samples than rigs
    /// are needed.
    pub extra_setups: usize,
    /// Record spans around the product's ops on every other couple of pairs.
    pub trace: bool,
}

impl Plan {
    pub fn pairs(&self) -> usize {
        self.generations * self.pairs_per_generation
    }
}

/// What one duet run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Median paired ratio product set-up ÷ reference set-up.
    pub setup_x: f64,
    pub speed_x: f64,
    pub op_p50_x: f64,
    pub op_tail_x: f64,
    /// The percentile `op_tail_x` was taken at.
    pub tail_pct: f64,
    /// Product quality ÷ reference quality.
    pub quality: f64,
    /// The product's own quality: NDCG@20, share of matching answers, or
    /// recall@10.
    pub raw_quality: f64,
    pub slo_ok_ratio: f64,
    pub peak_rss_mb: f64,
    // Raw, undivided numbers (per-layer `raw.*` and `gen.*`).
    pub work_per_s: f64,
    pub ref_work_per_s: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub setup_s: f64,
    pub ref_setup_s: f64,
    pub pairs: usize,
    pub late_p99_us: f64,
    /// Product ÷ reference op ratio on traced pairs over untraced pairs.
    pub trace_overhead_ratio: f64,
    /// Human-readable remarks for the report (mismatch samples, sent /
    /// succeeded / failed per slice).
    pub notes: Vec<String>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether pair `i` runs the product first (ABBA: P R, R P, P R, ...).
fn product_first(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Runs the product's and the reference's half of a pair in the pair's order
/// and returns the results as `(product, reference)`.
fn in_order<A, B>(product_first: bool, p: impl FnOnce() -> A, r: impl FnOnce() -> B) -> (A, B) {
    if product_first {
        let a = p();
        (a, r())
    } else {
        let b = r();
        (p(), b)
    }
}

/// The location of a series of product ÷ reference pair ratios taken in
/// ABBA order: the median over adjacent (product-first, reference-first)
/// couples of their geometric mean. Whatever going first costs multiplies one
/// ratio of a couple and divides the other, so it cancels inside the couple;
/// the median then sheds the couples a host stall hit.
fn duet_ratio(pair_ratios: &[f64]) -> f64 {
    let couples: Vec<f64> = pair_ratios
        .chunks(2)
        .map(|c| if c.len() == 2 { (c[0] * c[1]).sqrt() } else { c[0] })
        .collect();
    stats::median(&couples)
}

/// Whether pair `i` of a traced run records spans: every other couple, so
/// that traced and untraced couples both hold one pair of each order.
fn traced_pair(i: usize) -> bool {
    (i / 2).is_multiple_of(2)
}

/// The duet ratio over the traced couples divided by that over the untraced
/// ones (see [`traced_pair`]); 1.0 when the run was not traced.
fn overhead_ratio(pair_ratios: &[f64], traced: bool) -> f64 {
    if !traced || pair_ratios.len() < 4 {
        return 1.0;
    }
    let pick = |want: bool| -> Vec<f64> {
        let picked = pair_ratios.iter().enumerate().filter(|(i, _)| traced_pair(*i) == want);
        picked.map(|(_, x)| *x).collect()
    };
    duet_ratio(&pick(true)) / duet_ratio(&pick(false))
}

// ---- training ----------------------------------------------------------

/// The chunk after which `quality` is read.
const QUALITY_CHUNK: usize = 8;
/// `quality` must sit this close to the reference's.
const QUALITY_TOLERANCE: f64 = 0.02;
/// A product chunk slower than this multiple of its paired reference chunk
/// misses its limit.
const TRAIN_LIMIT_X: f64 = 5.0;

pub fn run_train<P: TrainSide, R: TrainSide>(
    spec: &TrainSpec,
    seed: u64,
    plan: &Plan,
    tracer: &mut Tracer,
) -> Outcome {
    let n = plan.pairs();
    let (mut setup_p, mut setup_r) = (Vec::new(), Vec::new());
    let mut ratios = Vec::with_capacity(n); // product ÷ reference chunk time
    let (mut p_times, mut r_times) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut quality, mut ref_quality) = (f64::NAN, f64::NAN);
    let (mut failed, mut slow) = (0u64, 0u64);
    let mut notes = Vec::new();
    let quality_chunk = QUALITY_CHUNK.min(plan.pairs_per_generation);
    let mut peak_rss_mb = f64::NAN;
    let (mut samples, mut ref_samples) = (0, 0);
    // The generator's lateness here is the driver's own time between pairs.
    let mut gaps = Vec::with_capacity(n);
    for g in 0..plan.generations {
        // Set-up, then the warm-up chunk (first touch of scratch and
        // optimizer state), in ABBA order over generations.
        let (mut p, mut r) = in_order(
            product_first(g),
            || {
                tracer.enabled = plan.trace;
                let (mut p, s) =
                    timed(|| tracer.span("duet.setup", g as u64, |_| P::setup(spec, seed)));
                setup_p.push(s);
                p.op(0);
                if g == 0 {
                    peak_rss_mb = vm_hwm_mib();
                }
                p
            },
            || {
                let (mut r, s) = timed(|| R::setup(spec, seed));
                setup_r.push(s);
                r.op(0);
                r
            },
        );
        (samples, ref_samples) = (p.samples_per_op(), r.samples_per_op());
        for k in 0..plan.extra_setups {
            in_order(
                product_first(g + k + 1),
                || setup_p.push(timed(|| P::setup(spec, seed)).1),
                || setup_r.push(timed(|| R::setup(spec, seed)).1),
            );
        }

        let mut idle_since = Instant::now();
        for j in 0..plan.pairs_per_generation {
            let i = g * plan.pairs_per_generation + j;
            let chunk = j as u64 + 1;
            tracer.enabled = plan.trace && traced_pair(i);
            gaps.push(idle_since.elapsed().as_secs_f64());
            let ((ndcg_p, tp), (ndcg_r, tr)) = in_order(
                product_first(i),
                || timed(|| tracer.span("core.op", i as u64, |_| p.op(chunk))),
                || timed(|| r.op(chunk)),
            );
            idle_since = Instant::now();
            if !ndcg_p.is_finite() {
                failed += 1;
                notes.push(format!("generation {g} chunk {chunk}: NDCG@20 is {ndcg_p}"));
            } else if tp > TRAIN_LIMIT_X * tr {
                slow += 1;
                notes.push(format!(
                    "generation {g} chunk {chunk}: {tp:.3}s against the reference's {tr:.3}s"
                ));
            }
            if g == 0 && j + 1 == quality_chunk {
                (quality, ref_quality) = (ndcg_p, ndcg_r);
            }
            ratios.push(tp / tr);
            p_times.push(tp);
            r_times.push(tr);
        }
    }
    tracer.enabled = plan.trace;

    let correct = (quality - ref_quality).abs() <= QUALITY_TOLERANCE;
    if !correct {
        notes.push(format!(
            "NDCG@20 after chunk {quality_chunk}: product {quality:.4}, reference {ref_quality:.4}"
        ));
    }
    let (tail_x, tail_pct) = stats::tail(&ratios);
    let attempted = n as u64;
    let setup_ratios: Vec<f64> = setup_p.iter().zip(&setup_r).map(|(p, r)| p / r).collect();
    Outcome {
        correct,
        attempted,
        failed,
        setup_x: duet_ratio(&setup_ratios),
        speed_x: 1.0 / duet_ratio(&ratios),
        op_p50_x: duet_ratio(&ratios),
        op_tail_x: tail_x,
        tail_pct,
        quality: quality / ref_quality,
        raw_quality: quality,
        slo_ok_ratio: (attempted - failed - slow) as f64 / attempted as f64,
        peak_rss_mb,
        work_per_s: samples as f64 / stats::median(&p_times),
        ref_work_per_s: ref_samples as f64 / stats::median(&r_times),
        op_p50_ms: 1e3 * stats::median(&p_times),
        op_tail_ms: 1e3 * stats::at_percentile(&p_times, tail_pct),
        setup_s: stats::median(&setup_p),
        ref_setup_s: stats::median(&setup_r),
        pairs: n,
        late_p99_us: 1e6 * stats::quantile(&gaps, 0.99),
        trace_overhead_ratio: overhead_ratio(&ratios, plan.trace),
        notes,
    }
}

// ---- serving -----------------------------------------------------------

/// How requests are offered to a serving rig.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Each connection sends its next request when the previous one
    /// completes. Every `swap_every`-th slice, connection 0 sends a
    /// `swap_artifact` halfway through its list.
    Closed { per_conn: usize, swap_every: usize, limit_s: f64 },
    /// Requests are due on a seeded Poisson schedule regardless of
    /// completions; two callers take them in order. Latency runs from the
    /// due time.
    Open { rate: f64, per_slice: usize, limit_s: f64 },
}

/// One request as a load thread saw it.
struct OpOut {
    start: Instant,
    /// Completion minus start (closed loop) or minus due time (open loop).
    lat_s: f64,
    /// How long after its due time the request was sent (open loop), or
    /// after the previous reply (closed loop).
    late_s: f64,
    res: Result<Answer, String>,
}

/// One slice: per connection (closed) or one list in arrival order (open).
struct SliceOut {
    start: Instant,
    end: Instant,
    ops: Vec<Vec<OpOut>>,
}

impl SliceOut {
    fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Latencies of the slice's requests (a swap is a deploy, timed apart).
    fn request_latencies(&self, input: &SliceInput) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&input.lists)
            .flat_map(|(ops, reqs)| ops.iter().zip(reqs))
            .filter(|(_, req)| !matches!(req, Req::Swap { .. }))
            .map(|(o, _)| o.lat_s)
            .collect()
    }
}

fn closed_slice<C: Conn>(conns: &mut [C], lists: &[Vec<Req>]) -> SliceOut {
    let start = Instant::now();
    let ops: Vec<Vec<OpOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lists)
            .map(|(conn, list)| {
                s.spawn(move || {
                    let mut idle_since = Instant::now();
                    list.iter()
                        .map(|req| {
                            let start = Instant::now();
                            let res = conn.call(req);
                            let done = Instant::now();
                            // A closed loop's lateness is the generator's own
                            // think time between a reply and the next send.
                            let late_s = start.duration_since(idle_since).as_secs_f64();
                            idle_since = done;
                            OpOut {
                                start,
                                lat_s: done.duration_since(start).as_secs_f64(),
                                late_s,
                                res,
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    SliceOut { start, end: Instant::now(), ops }
}

/// Sleeps to just short of `due`, then spins: a sleeping thread wakes some
/// tens of microseconds late, which would count against every request.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn open_slice<C: Conn>(conns: &mut [C], reqs: &[Req], arrivals: &[f64]) -> SliceOut {
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, OpOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= reqs.len() {
                            return out;
                        }
                        let due = start + Duration::from_secs_f64(arrivals[j]);
                        wait_until(due);
                        let sent = Instant::now();
                        let res = conn.call(&reqs[j]);
                        let done = Instant::now();
                        out.push((
                            j,
                            OpOut {
                                start: due,
                                lat_s: done.duration_since(due).as_secs_f64(),
                                late_s: sent.duration_since(due).as_secs_f64(),
                                res,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load thread")).collect()
    });
    indexed.sort_by_key(|(j, _)| *j);
    SliceOut {
        start,
        end: Instant::now(),
        ops: vec![indexed.into_iter().map(|(_, o)| o).collect()],
    }
}

/// The request lists of slice `i`: the same for both sides of the pair.
struct SliceInput {
    lists: Vec<Vec<Req>>,
    arrivals: Vec<f64>,
}

fn slice_input(
    load: &Load,
    spec: &ServeSpec,
    seed: u64,
    i: usize,
    swaps_done: &mut u64,
) -> SliceInput {
    let mut rng = Rng64::new(seed ^ (0xA11C_E000 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (n_users, n_items) = (spec.n_users as u32, spec.n_items as u32);
    match *load {
        Load::Closed { per_conn, swap_every, .. } => {
            let mut lists: Vec<Vec<Req>> = (0..spec.tcp_conns)
                .map(|_| inputs::mixed_stream(&mut rng, per_conn, n_users, n_items))
                .collect();
            if swap_every > 0 && i % swap_every == swap_every - 1 {
                *swaps_done += 1;
                lists[0].insert(per_conn / 2, Req::Swap { to_b: *swaps_done % 2 == 1 });
            }
            SliceInput { lists, arrivals: Vec::new() }
        }
        Load::Open { rate, per_slice, .. } => SliceInput {
            lists: vec![inputs::recommend_stream(&mut rng, per_slice, n_users)],
            arrivals: inputs::poisson_arrivals(&mut rng, per_slice, rate),
        },
    }
}

fn run_slice<C: Conn>(conns: &mut [C], load: &Load, input: &SliceInput) -> SliceOut {
    match load {
        Load::Closed { .. } => closed_slice(conns, &input.lists),
        Load::Open { .. } => open_slice(conns, &input.lists[0], &input.arrivals),
    }
}

/// One untimed-by-the-duet slice on the product alone (the traced run's
/// open-loop ladder): latencies and send lateness, in seconds.
pub fn product_slice<C: Conn>(
    conns: &mut [C],
    load: &Load,
    spec: &ServeSpec,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let input = slice_input(load, spec, seed, 0, &mut 0);
    let out = run_slice(conns, load, &input);
    let ops = || out.ops.iter().flatten();
    (ops().map(|o| o.lat_s).collect(), ops().map(|o| o.late_s).collect())
}

/// Answers match when they have the same length and the score at every
/// rank agrees within `1e-4` (items may differ only where scores tie).
fn answers_match(a: &Answer, b: &Answer) -> bool {
    a.scores.len() == b.scores.len()
        && a.scores.iter().zip(&b.scores).all(|(x, y)| (x - y).abs() <= 1e-4)
}

/// A well-formed top-k answer: `k` distinct in-range items, scores finite
/// and non-increasing.
fn well_formed(a: &Answer, n_items: usize) -> bool {
    a.items.len() == TOP_K
        && a.scores.len() == TOP_K
        && a.items.iter().all(|&i| (i as usize) < n_items)
        && a.scores.iter().all(|s| s.is_finite())
        && a.scores.windows(2).all(|w| w[0] >= w[1])
        && (1..a.items.len()).all(|i| !a.items[..i].contains(&a.items[i]))
}

/// Users whose IVF answers are scored for recall after the timed phase.
const RECALL_USERS: usize = 1000;
/// Untimed requests sent to each rig before its first timed slice.
const WARMUP_REQUESTS: usize = 64;
/// Failed ops described one by one in the report before it only counts them.
const MAX_OP_NOTES: usize = 20;

/// Untimed requests on every connection before a rig's first timed slice.
fn warm_up<C: Conn>(conns: &mut [C], seed: u64, spec: &ServeSpec) {
    let lists: Vec<Vec<Req>> = (0..conns.len())
        .map(|c| {
            let mut rng = Rng64::new(seed + c as u64);
            inputs::recommend_stream(&mut rng, WARMUP_REQUESTS, spec.n_users as u32)
        })
        .collect();
    closed_slice(conns, &lists);
}

/// The oracle's verdict on one slice pair.
#[derive(Default)]
struct PairCheck {
    sent: u64,
    /// Errors, malformed answers and answers that differ from the oracle's.
    wrong: u64,
    /// Right answers that came after the latency limit.
    slow: u64,
    /// Answers compared with the reference's, and those that matched.
    compared: u64,
    matched: u64,
}

/// Checks every product op of a slice pair: against the reference's answer
/// to the same request when it came from the same artifact generation,
/// against `oracle.exact` for the product's generation when not.
#[allow(clippy::too_many_arguments)] // the pair, its inputs and the verdict's sinks
fn check_pair<R: ServeSide>(
    i: usize,
    (ps, rs): (&SliceOut, &SliceOut),
    input: &SliceInput,
    oracle: &mut R,
    inputs: &inputs::ServeInputs,
    spec: &ServeSpec,
    limit_s: f64,
    notes: &mut Vec<String>,
) -> PairCheck {
    let mut v = PairCheck::default();
    let compare = |v: &mut PairCheck, got: &Answer, want: &Answer| {
        v.compared += 1;
        let same = answers_match(got, want);
        v.matched += u64::from(same);
        same
    };
    for (c, (p_ops, r_ops)) in ps.ops.iter().zip(&rs.ops).enumerate() {
        for (j, (po, ro)) in p_ops.iter().zip(r_ops).enumerate() {
            let req = &input.lists[c][j];
            let same_generation =
                |pa: &Answer| ro.res.as_ref().ok().filter(|ra| ra.version == pa.version);
            let ok = match (&po.res, req) {
                (Err(e), _) => {
                    if notes.len() < MAX_OP_NOTES {
                        notes.push(format!("slice {i} conn {c} op {j}: {e}"));
                    }
                    false
                }
                (Ok(pa), Req::Recommend { user }) if !spec.ivf => {
                    let same = match same_generation(pa) {
                        Some(ra) => compare(&mut v, pa, ra),
                        None => {
                            let generation = pa.version.saturating_sub(1);
                            compare(&mut v, pa, &oracle.exact(inputs, generation, *user))
                        }
                    };
                    same && well_formed(pa, spec.n_items)
                }
                // An IVF answer is scored for recall after the timed phase.
                (Ok(pa), Req::Recommend { .. }) => well_formed(pa, spec.n_items),
                (Ok(pa), Req::ScoreItems { .. }) => match same_generation(pa) {
                    Some(ra) => compare(&mut v, pa, ra),
                    None => pa.scores.iter().all(|s| s.is_finite()),
                },
                (Ok(_), Req::Stats) => true,
                (Ok(pa), Req::Swap { .. }) => same_generation(pa).is_some(),
            };
            v.sent += 1;
            v.wrong += u64::from(!ok);
            // A swap is a deploy, not a request: it has no latency limit.
            let limited = !matches!(req, Req::Swap { .. });
            v.slow += u64::from(ok && limited && po.lat_s > limit_s);
        }
    }
    v
}

pub fn run_serve<P: ServeSide, R: ServeSide>(
    spec: &ServeSpec,
    load: &Load,
    seed: u64,
    plan: &Plan,
    scratch_dir: &Path,
    tracer: &mut Tracer,
) -> Outcome {
    let inputs = inputs::serve_inputs(seed, spec.n_users, spec.n_items, spec.dim);
    let limit_s = match *load {
        Load::Closed { limit_s, .. } | Load::Open { limit_s, .. } => limit_s,
    };
    let (mut attempted, mut failed, mut compared, mut matched) = (0u64, 0u64, 0u64, 0u64);
    // Per pair: product ÷ reference of the slice's rate, p50 and tail.
    let (mut rate_x, mut p50_x, mut tail_x) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p_rates, mut r_rates, mut p_p50, mut p_tail) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ok_share, mut late) = (Vec::new(), Vec::new());
    let mut tail_pct = 100.0;
    let mut notes = Vec::new();
    let (mut setup_p, mut setup_r) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = f64::NAN;
    let (mut raw_quality, mut ref_quality) = (f64::NAN, 1.0);
    for g in 0..plan.generations {
        // Set-up, then untimed warm-up requests, in ABBA order over
        // generations.
        let (mut p, mut r) = in_order(
            product_first(g),
            || {
                tracer.enabled = plan.trace;
                let dir = scratch_dir.join(format!("p{g}"));
                let (mut p, s) = timed(|| {
                    tracer.span("duet.setup", g as u64, |_| P::setup(spec, &inputs, &dir))
                });
                setup_p.push(s);
                warm_up(p.conns(), seed, spec);
                if g == 0 {
                    peak_rss_mb = vm_hwm_mib();
                }
                p
            },
            || {
                let dir = scratch_dir.join(format!("r{g}"));
                let (mut r, s) = timed(|| R::setup(spec, &inputs, &dir));
                setup_r.push(s);
                warm_up(r.conns(), seed, spec);
                r
            },
        );
        for k in 0..plan.extra_setups {
            in_order(
                product_first(g + k + 1),
                || {
                    let (rig, t) = timed(|| P::setup(spec, &inputs, &scratch_dir.join("px")));
                    rig.shutdown();
                    setup_p.push(t);
                },
                || {
                    let (rig, t) = timed(|| R::setup(spec, &inputs, &scratch_dir.join("rx")));
                    rig.shutdown();
                    setup_r.push(t);
                },
            );
        }

        let mut swaps_done = 0u64;
        for j in 0..plan.pairs_per_generation {
            let i = g * plan.pairs_per_generation + j;
            let input = slice_input(load, spec, seed, i, &mut swaps_done);
            let (ps, rs) = in_order(
                product_first(i),
                || run_slice(p.conns(), load, &input),
                || run_slice(r.conns(), load, &input),
            );

            // Untimed from here: spans, the oracle and the pair's ratios.
            tracer.enabled = plan.trace && traced_pair(i);
            let slice_span = tracer.record("duet.slice", i as u64, None, ps.start, ps.end);
            for (c, ops) in ps.ops.iter().enumerate() {
                for (j, o) in ops.iter().enumerate() {
                    let op_id = ((i as u64) << 32) | ((c as u64) << 24) | j as u64;
                    let end = o.start + Duration::from_secs_f64(o.lat_s);
                    tracer.record("serve.op", op_id, slice_span, o.start, end);
                }
            }
            let v = check_pair(i, (&ps, &rs), &input, &mut r, &inputs, spec, limit_s, &mut notes);
            attempted += v.sent;
            failed += v.wrong;
            compared += v.compared;
            matched += v.matched;
            ok_share.push((v.sent - v.wrong - v.slow) as f64 / v.sent as f64);
            let (p_rate, r_rate) = (v.sent as f64 / ps.wall_s(), v.sent as f64 / rs.wall_s());
            notes.push(format!(
                "slice {i}: sent {} succeeded {} failed {} late {}, \
                 product {p_rate:.1}/s reference {r_rate:.1}/s",
                v.sent,
                v.sent - v.wrong,
                v.wrong,
                v.slow
            ));

            let (pl, rl) = (ps.request_latencies(&input), rs.request_latencies(&input));
            let (p50, (pt, pct)) = (stats::median(&pl), stats::tail(&pl));
            tail_pct = pct;
            p_rates.push(p_rate);
            r_rates.push(r_rate);
            p_p50.push(p50);
            p_tail.push(pt);
            rate_x.push(p_rate / r_rate);
            p50_x.push(p50 / stats::median(&rl));
            tail_x.push(pt / stats::at_percentile(&rl, pct));
            late.extend(ps.ops.iter().flatten().map(|o| o.late_s));
        }

        // IVF quality, outside the timed phase so that it repeats exactly:
        // each side's recall@10 against the exact f32 top-10.
        if spec.ivf && g + 1 == plan.generations {
            let mut rng = Rng64::new(seed ^ 0x0EC_A110);
            let (mut p_hits, mut r_hits) = (0usize, 0usize);
            for _ in 0..RECALL_USERS {
                let user = rng.below(spec.n_users as u32);
                let want = r.exact(&inputs, 0, user);
                let hits = |got: Result<Answer, String>| {
                    got.map_or(0, |a| a.items.iter().filter(|i| want.items.contains(i)).count())
                };
                p_hits += hits(p.conns()[0].call(&Req::Recommend { user }));
                r_hits += hits(r.conns()[0].call(&Req::Recommend { user }));
            }
            let total = (RECALL_USERS * TOP_K) as f64;
            (raw_quality, ref_quality) = (p_hits as f64 / total, r_hits as f64 / total);
        }
        p.shutdown();
        r.shutdown();
    }
    tracer.enabled = plan.trace;
    // Exact quality: the share of answers that matched the reference's at
    // the same generation (the reference's own is 1 by definition).
    if !spec.ivf {
        raw_quality = matched as f64 / compared.max(1) as f64;
    }
    let setup_ratios: Vec<f64> = setup_p.iter().zip(&setup_r).map(|(p, r)| p / r).collect();
    let inv_rate: Vec<f64> = rate_x.iter().map(|x| 1.0 / x).collect();
    Outcome {
        correct: matched == compared,
        attempted,
        failed,
        setup_x: duet_ratio(&setup_ratios),
        speed_x: duet_ratio(&rate_x),
        op_p50_x: duet_ratio(&p50_x),
        op_tail_x: duet_ratio(&tail_x),
        tail_pct,
        quality: raw_quality / ref_quality,
        raw_quality,
        slo_ok_ratio: stats::median(&ok_share),
        peak_rss_mb,
        work_per_s: stats::median(&p_rates),
        ref_work_per_s: stats::median(&r_rates),
        op_p50_ms: 1e3 * stats::median(&p_p50),
        op_tail_ms: 1e3 * stats::median(&p_tail),
        setup_s: stats::median(&setup_p),
        ref_setup_s: stats::median(&setup_r),
        pairs: plan.pairs(),
        late_p99_us: 1e6 * stats::quantile(&late, 0.99),
        trace_overhead_ratio: overhead_ratio(&inv_rate, plan.trace),
        notes,
    }
}
