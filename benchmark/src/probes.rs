//! Per-layer probes of the traced run: spans around the benchmark's own
//! calls into each layer's public functions, on the workload's shapes,
//! product side only. Every probe is repeated and reported as the p10 of
//! its repetitions: the floor a quiet host reaches, which host noise can
//! only raise.
//!
//! Every traced run runs every probe. A workload that does not exercise a
//! layer still measures it (on the shapes `Workload::probe_shapes` gives
//! it), so that a change to that layer can be shown to leave the workload's
//! end-to-end metrics alone.

use crate::duet::{self, Load};
use crate::inputs::{self, Req, Rng64, ServeInputs, TOP_K};
use crate::sides::product;
use crate::spec::{Conn, ServeSide, ServeSpec, TrainSide, TrainSpec};
use crate::stats;
use crate::trace::Tracer;
use bsl_core::engine::{Engine, Job, WorkerPool};
use bsl_core::Trainer;
use bsl_data::synth::generate;
use bsl_eval::evaluate_artifact;
use bsl_linalg::kernels::cosine_backward_into;
use bsl_linalg::simd::{
    cosine_backward_block, normalize_gather_into, scores_block, scores_block_i8,
};
use bsl_linalg::topk::{select_scored_into, TopK};
use bsl_losses::{LossConfig, ScoreBatch};
use bsl_models::{
    BackboneConfig, GradBuffer, Hyper, IvfIndex, ModelArtifact, ProbeScratch, ShardGrad,
};
use bsl_opt::Adam;
use bsl_sampling::{BatchIter, NegativeSampler, SamplerPool, TrainBatch, UniformSampler};
use bsl_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use bsl_serve::{Rec, RecommendRequest, ServeEngine, ServeScratch, ServeState};
use bsl_sparse::NormAdj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Metric name to value, in the unit `metrics::PER_LAYER` states.
pub type Values = BTreeMap<&'static str, f64>;

/// Repetitions of a probe: at least `MIN_REPS`, more while they fit
/// `PROBE_BUDGET`. A probe costing more than `HEAVY` per call (an index
/// build, a dataset generation, a 12 MB artifact copy) runs
/// `MIN_REPS_HEAVY` times instead: thirty of those would not fit a run.
const MIN_REPS: usize = 30;
const MIN_REPS_HEAVY: usize = 6;
const MAX_REPS: usize = 200;
const HEAVY: f64 = 0.02;
const PROBE_BUDGET: f64 = 0.15;
/// A repetition shorter than this loops its call, so that the clock's
/// resolution does not show in the value.
const MIN_REP_TIME: f64 = 50e-6;

struct Prober<'a> {
    tracer: &'a mut Tracer,
    op: u64,
}

impl Prober<'_> {
    /// p10 over repetitions of the time of one `f()`, in seconds. `prep`
    /// runs before each repetition, outside the span, but inside the budget
    /// that sets the repetition count.
    fn time_with<T>(
        &mut self,
        name: &'static str,
        mut prep: impl FnMut() -> T,
        mut f: impl FnMut(T),
    ) -> f64 {
        // The first call warms (first touch of scratch, lazy set-up); unless
        // it is heavy, a second one gives the estimate.
        let mut call = || {
            let t = Instant::now();
            let arg = prep();
            let called = Instant::now();
            f(arg);
            (t.elapsed().as_secs_f64(), called.elapsed().as_secs_f64().max(1e-9))
        };
        let first = call();
        let (with_prep, once) = if first.0 > HEAVY { first } else { call() };
        let inner = if once < MIN_REP_TIME { (MIN_REP_TIME / once).ceil() as usize } else { 1 };
        let min_reps = if with_prep > HEAVY { MIN_REPS_HEAVY } else { MIN_REPS };
        let reps = ((PROBE_BUDGET / (with_prep * inner as f64)) as usize).clamp(min_reps, MAX_REPS);
        let first_span = self.tracer.len();
        for _ in 0..reps {
            let mut args: Vec<T> = (0..inner).map(|_| prep()).collect();
            self.op += 1;
            self.tracer.span(name, self.op, |_| {
                while let Some(arg) = args.pop() {
                    f(arg);
                }
            });
        }
        let d: Vec<f64> = self.tracer.durations_since(first_span, name);
        stats::quantile(&d, 0.10) / inner as f64
    }

    fn time(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        self.time_with(name, || (), |()| f())
    }
}

/// The shapes one traced run probes on.
pub struct Shapes {
    pub train: TrainSpec,
    pub serve: ServeSpec,
}

/// Negatives per row the sampled-path probes use when the workload itself
/// trains in-batch.
const SAMPLED_NEGATIVES: usize = 64;
/// LightGCN depth and worker count of the graph and pool probes.
const LGN_LAYERS: usize = 2;
const POOL_WORKERS: usize = 2;

/// Runs every probe and fills `v`.
pub fn run(shapes: &Shapes, seed: u64, scratch_dir: &Path, tracer: &mut Tracer, v: &mut Values) {
    tracer.enabled = true;
    let mut p = Prober { tracer, op: 1 << 48 };
    train_probes(&shapes.train, seed, &mut p, v);
    serve_probes(&shapes.serve, seed, scratch_dir, &mut p, v);
}

fn train_probes(spec: &TrainSpec, seed: u64, p: &mut Prober, v: &mut Values) {
    let (b, d) = (spec.batch, spec.dim);
    let m = if spec.in_batch { SAMPLED_NEGATIVES } else { spec.negatives };
    let synth = product::synth_config(spec, seed);
    v.insert(
        "data.generate_ms",
        1e3 * p.time("data.generate", || drop(black_box(generate(&synth)))),
    );
    let ds = Arc::new(generate(&synth));
    let n_batches = ds.train.nnz().div_ceil(b);

    // sampling: one serial batch, and one epoch through the shard pool.
    let sampler = UniformSampler::new(ds.clone());
    let mut it = BatchIter::new(&ds, &sampler, b, m, seed);
    let mut batch: Option<TrainBatch> = None;
    let t_batch = p.time("sampling.batch", || {
        let next = it.next().filter(|nb| nb.len() == b);
        batch = Some(next.unwrap_or_else(|| {
            it = BatchIter::new(&ds, &sampler, b, m, seed);
            it.next().expect("an epoch has a full batch")
        }));
    });
    let batch = batch.expect("the probe ran");
    v.insert("sampling.batch_us", 1e6 * t_batch);
    v.insert("sampling.draws_per_s", (b * m) as f64 / t_batch);
    let shared: Arc<dyn NegativeSampler> = Arc::new(UniformSampler::new(ds.clone()));
    let pool = SamplerPool::new(POOL_WORKERS);
    let t_pool = p.time("sampling.pool_epoch", || {
        black_box(pool.start_epoch(&ds, &shared, b, 1, seed).count());
    });
    v.insert("sampling.pool_epoch_ms", 1e3 * t_pool);

    // The backbones: MF for the sampled path, LightGCN for the graph path;
    // `bb` is the one this workload trains.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mf = bsl_models::build(BackboneConfig::Mf, &ds, d, seed);
    let mut lgn = bsl_models::build(BackboneConfig::LightGcn { layers: LGN_LAYERS }, &ds, d, seed);
    mf.forward(&mut rng);
    let t_forward = p.time("models.forward", || lgn.forward(&mut rng));
    v.insert("models.forward_ms", 1e3 * t_forward);

    // linalg + losses on the sampled path, mirroring the trainer's two
    // passes over one batch.
    let (users, items) = (mf.user_factors(), mf.item_factors());
    let mut user_hat = vec![0.0f32; b * d];
    let mut user_norm = vec![0.0f32; b];
    let mut pos_hat = vec![0.0f32; b * d];
    let mut pos_norm = vec![0.0f32; b];
    let mut neg_hat = vec![0.0f32; b * m * d];
    let mut neg_norm = vec![0.0f32; b * m];
    normalize_gather_into(users, &batch.users, &mut user_hat, &mut user_norm);
    normalize_gather_into(items, &batch.pos, &mut pos_hat, &mut pos_norm);
    let t_gather = p.time("linalg.gather_norm", || {
        normalize_gather_into(items, &batch.negs, &mut neg_hat, &mut neg_norm);
    });
    v.insert("linalg.gather_norm_us", 1e6 * t_gather);
    let mut neg_scores = vec![0.0f32; b * m];
    let t_scores = p.time("linalg.scores", || {
        for row in 0..b {
            scores_block(
                &user_hat[row * d..(row + 1) * d],
                &neg_hat[row * m * d..(row + 1) * m * d],
                &mut neg_scores[row * m..(row + 1) * m],
            );
        }
    });
    v.insert("linalg.scores_gmacs", (b * m * d) as f64 / t_scores / 1e9);
    let pos_scores: Vec<f32> = (0..b)
        .map(|r| {
            bsl_linalg::kernels::dot(&user_hat[r * d..(r + 1) * d], &pos_hat[r * d..(r + 1) * d])
        })
        .collect();
    let loss = bsl_losses::build(LossConfig::Bsl { tau1: spec.tau1, tau2: spec.tau2 });
    let t_loss = p.time("losses.bsl", || {
        black_box(loss.compute(&ScoreBatch::new(&pos_scores, &neg_scores, m)));
    });
    v.insert("losses.bsl_ns_per_score", 1e9 * t_loss / (b * (m + 1)) as f64);
    let out = loss.compute(&ScoreBatch::new(&pos_scores, &neg_scores, m));
    let mut grads = GradBuffer::new(ds.n_users, ds.n_items, d);
    let t_backward = p.time("linalg.backward", || {
        grads.clear();
        for row in 0..b {
            let (u, i) = (batch.users[row], batch.pos[row]);
            let uhat = &user_hat[row * d..(row + 1) * d];
            let ihat = &pos_hat[row * d..(row + 1) * d];
            let (g, s) = (out.grad_pos[row], pos_scores[row]);
            cosine_backward_into(g, s, uhat, ihat, user_norm[row], grads.user_row_mut(u));
            cosine_backward_into(g, s, ihat, uhat, pos_norm[row], grads.item_row_mut(i));
            let gs = &out.grad_neg[row * m..(row + 1) * m];
            let ss = &neg_scores[row * m..(row + 1) * m];
            let nh = &neg_hat[row * m * d..(row + 1) * m * d];
            cosine_backward_block(gs, ss, uhat, user_norm[row], nh, grads.user_row_mut(u));
            for (jj, &j) in batch.negs_of(row).iter().enumerate() {
                let nj = &nh[jj * d..(jj + 1) * d];
                let norm = neg_norm[row * m + jj];
                cosine_backward_into(gs[jj], ss[jj], nj, uhat, norm, grads.item_row_mut(j));
            }
        }
    });
    v.insert("linalg.backward_us", 1e6 * t_backward);

    // The in-batch path: the B×B block and the loss over it.
    let mut sims = vec![0.0f32; b * b];
    let t_bxb = p.time("linalg.scores_bxb", || {
        for a in 0..b {
            scores_block(&user_hat[a * d..(a + 1) * d], &pos_hat, &mut sims[a * b..(a + 1) * b]);
        }
    });
    v.insert("linalg.scores_bxb_gmacs", (b * b * d) as f64 / t_bxb / 1e9);
    let diag: Vec<f32> = (0..b).map(|a| sims[a * b + a]).collect();
    let off: Vec<f32> = (0..b)
        .flat_map(|a| (0..b).filter(move |&c| c != a).map(move |c| (a, c)))
        .map(|(a, c)| sims[a * b + c])
        .collect();
    let t_loss_bxb = p.time("losses.bsl_bxb", || {
        black_box(loss.compute(&ScoreBatch::new(&diag, &off, b - 1)));
    });
    v.insert("losses.bsl_bxb_ns_per_score", 1e9 * t_loss_bxb / (b * b) as f64);
    let scores_per_batch = if spec.in_batch { b * b } else { b * (m + 1) };
    v.insert("losses.scores_per_op", (n_batches * scores_per_batch) as f64);

    // sparse: one propagation hop (R·items and Rᵀ·users).
    let adj = NormAdj::from_csr(ds.train.clone());
    let t_spmm = p.time("sparse.spmm", || drop(black_box(adj.propagate(users, items))));
    v.insert("sparse.spmm_ms", 1e3 * t_spmm);
    v.insert("sparse.spmm_gflops", (4 * ds.train.nnz() * d) as f64 / t_spmm / 1e9);

    // models + opt: shard merge, the optimizer step, export.
    let mut shard = ShardGrad::new(d);
    for row in 0..b {
        shard.user_row_mut(batch.users[row]).fill(1e-3);
        shard.item_row_mut(batch.pos[row]).fill(1e-3);
    }
    let mut merged = GradBuffer::new(ds.n_users, ds.n_items, d);
    let t_merge = p.time("models.shard_merge", || {
        shard.merge_into(&mut merged);
        merged.clear();
    });
    v.insert("models.shard_merge_ms", 1e3 * t_merge);
    let hyper = Hyper { lr: spec.lr, l2: 1e-6 };
    let bb = if spec.lightgcn_layers.is_some() { &mut lgn } else { &mut mf };
    let t_step = p.time("models.step", || {
        black_box(bb.step(&grads, &batch.users, &batch.pos, hyper, &mut rng));
    });
    v.insert("models.step_ms", 1e3 * t_step);
    bb.forward(&mut rng);
    let t_export = p.time("models.export", || drop(black_box(bb.export())));
    v.insert("models.export_ms", 1e3 * t_export);
    let mut adam = Adam::new(ds.n_items, d);
    let mut param = bb.item_factors().clone();
    let t_adam = p.time("opt.adam_rows", || {
        adam.step_rows(&mut param, grads.items(), grads.touched_items(), spec.lr);
    });
    v.insert("opt.adam_rows_us", 1e6 * t_adam);
    v.insert(
        "opt.rows_per_step",
        (grads.touched_users().len() + grads.touched_items().len()) as f64,
    );

    // eval: the full-ranking pass every op ends with.
    let artifact = bb.export();
    let t_eval = p.time("eval.evaluate", || {
        black_box(evaluate_artifact(&ds, &artifact, &bsl_core::trainer::EVAL_KS));
    });
    v.insert("eval.evaluate_ms", 1e3 * t_eval);
    v.insert("eval.users_per_s", ds.evaluable_users().len() as f64 / t_eval);

    // core: what a fresh trainer and one pool round-trip cost, then the op
    // against the sum of its stages.
    let cfg = product::train_config(spec, seed);
    let t_new = p.time("core.trainer_new", || {
        black_box(Trainer::new(cfg));
        if spec.threads > 1 {
            black_box(Engine::new(spec.threads));
        }
    });
    v.insert("core.trainer_new_us", 1e6 * t_new);
    let workers = WorkerPool::new(POOL_WORKERS);
    let t_dispatch = p.time("core.pool_dispatch", || {
        let jobs: Vec<Job> = (0..POOL_WORKERS).map(|_| Box::new(|| ()) as Job).collect();
        workers.run(jobs);
    });
    v.insert("core.pool_dispatch_us", 1e6 * t_dispatch);

    // Stage sum of one op of *this* workload: per batch, the stages probed
    // above on its path; per op, export and evaluation. What the trainer
    // spends outside them (and what overlap hides) is `core.self_ms`.
    let per_batch = if spec.in_batch {
        t_pool / n_batches as f64 + t_forward + t_bxb + t_loss_bxb + t_merge + t_step
    } else {
        t_batch + t_gather + t_scores + t_loss + t_backward + t_step
    };
    // One real op on these shapes, as the duet runs it.
    let mut rig = product::Train::setup(spec, seed);
    let mut chunk = 0;
    let op_s = p.time("core.op", || {
        chunk += 1;
        black_box(rig.op(chunk));
    });
    let stage_sum = n_batches as f64 * per_batch + t_new + t_export + t_eval;
    v.insert("core.op_ms", 1e3 * op_s);
    v.insert("core.stage_sum_ms", 1e3 * stage_sum);
    v.insert("core.self_ms", 1e3 * (op_s - stage_sum));
    v.insert("core.unaccounted_ratio", (op_s - stage_sum) / op_s);
}

/// Requests per rate of the open-loop ladder.
const LADDER_SECONDS: f64 = 1.2;
const LADDER_RATES: [(f64, &str); 3] =
    [(300.0, "serve.p99_ms_r300"), (600.0, "serve.p99_ms_r600"), (1200.0, "serve.p99_ms_r1200")];
/// The ladder's latency limit, the same as `serve_ivf_inproc_open`'s.
const LADDER_LIMIT_S: f64 = 0.005;

fn serve_probes(spec: &ServeSpec, seed: u64, scratch_dir: &Path, p: &mut Prober, v: &mut Values) {
    let si: ServeInputs = inputs::serve_inputs(seed, spec.n_users, spec.n_items, spec.dim);
    let (n, d) = (spec.n_items, spec.dim);
    let mut rng = Rng64::new(seed ^ 0x9E0B);
    let mut user = move || rng.below(spec.n_users as u32);
    std::fs::create_dir_all(scratch_dir).expect("creating the probes' scratch directory");

    // models: the artifact's life from tables to file and back.
    let art = product::artifact_of(&si, &si.users);
    v.insert(
        "models.quantize_ms",
        1e3 * p.time("models.quantize", || drop(black_box(art.quantize()))),
    );
    let mut art_ivf = art.quantize();
    v.insert(
        "models.ivf_build_ms",
        1e3 * p.time("models.ivf_build", || art_ivf.build_default_ivf()),
    );
    let path = scratch_dir.join("probe.bsla");
    v.insert("models.save_ms", 1e3 * p.time("models.save", || art.save(&path).expect("save")));
    v.insert(
        "models.load_ms",
        1e3 * p.time("models.load", || drop(black_box(ModelArtifact::load(&path).expect("load")))),
    );
    v.insert(
        "models.artifact_bytes",
        std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64),
    );

    // The exact path, layer by layer: scan, select, then the state that
    // wraps them.
    let mut scores = Vec::new();
    let t_scan = p.time("models.scan", || art.score_catalogue_into(user(), &mut scores));
    v.insert("models.scan_us", 1e6 * t_scan);
    v.insert("models.scan_gbps", (n * d * 4) as f64 / t_scan / 1e9);
    let (mut topk, mut ids) = (TopK::new(), Vec::new());
    let t_topk =
        p.time("linalg.topk", || topk.select_masked_into(&scores, TOP_K, |_| false, &mut ids));
    v.insert("linalg.topk_us", 1e6 * t_topk);
    let state = ServeState::new(art.clone());
    let (mut scratch, mut recs) = (ServeScratch::new(), Vec::new());
    let t_state = p.time("serve.state", || {
        state.recommend_into(&RecommendRequest::new(user(), TOP_K), &mut scratch, &mut recs);
    });
    v.insert("serve.state_us", 1e6 * t_state);
    v.insert("serve.state_self_us", 1e6 * (t_state - t_scan - t_topk));
    let mut outs = Vec::new();
    for (size, name, span) in [
        (2, "serve.batch2_us_per_req", "serve.batch2"),
        (32, "serve.batch32_us_per_req", "serve.batch32"),
    ] {
        let t = p.time_with(
            span,
            || (0..size).map(|_| RecommendRequest::new(user(), TOP_K)).collect::<Vec<_>>(),
            |reqs| state.recommend_batch_into(&reqs, &mut scratch, &mut outs),
        );
        v.insert(name, 1e6 * t / size as f64);
    }

    // The IVF path: int8 scan kernel, probe, shortlist rescore, select.
    let q8 = art_ivf.items_i8().expect("quantized items");
    let mut q = Vec::new();
    art_ivf.query_into(user(), &mut q);
    let mut scores_i8 = vec![0.0f32; n];
    let t_i8 =
        p.time("linalg.scores_i8", || scores_block_i8(&q, q8.data(), q8.scales(), &mut scores_i8));
    v.insert("linalg.scores_i8_gmacs", (n * d) as f64 / t_i8 / 1e9);
    let index: &IvfIndex = art_ivf.index().expect("index built above");
    let (mut probe_scratch, mut cands) = (ProbeScratch::default(), Vec::new());
    let mut cand_total = (0usize, 0usize);
    let t_probe = p.time("models.probe", || {
        art_ivf.query_into(user(), &mut q);
        index.probe_into(&q, index.default_nprobe(), &mut probe_scratch, &mut cands);
        cand_total = (cand_total.0 + cands.len(), cand_total.1 + 1);
    });
    v.insert("models.probe_us", 1e6 * t_probe);
    v.insert("models.shortlist_frac", cand_total.0 as f64 / (cand_total.1 * n) as f64);
    let mut cand_scores = Vec::new();
    let t_short =
        p.time("models.shortlist", || art_ivf.score_items_query_into(&q, &cands, &mut cand_scores));
    v.insert("models.shortlist_us", 1e6 * t_short);
    let mut pairs = Vec::new();
    let t_select = p.time("linalg.select_scored", || {
        select_scored_into(&cand_scores, &cands, TOP_K, |_| false, &mut pairs);
    });
    v.insert("linalg.select_scored_us", 1e6 * t_select);
    let state_ivf = ServeState::new(art_ivf.clone());
    let t_state_ivf = p.time("serve.state_ivf", || {
        state_ivf.recommend_into(&RecommendRequest::new(user(), TOP_K), &mut scratch, &mut recs);
    });
    v.insert("serve.state_ivf_us", 1e6 * t_state_ivf);

    // protocol: one recommend round trip through both codecs, no socket.
    let req = Request::Recommend { tenant: "default".into(), req: RecommendRequest::new(7, TOP_K) };
    let resp = Response::Recs {
        version: 1,
        recs: (0..TOP_K as u32).map(|i| Rec { item: i, score: 1.0 - i as f32 * 0.01 }).collect(),
    };
    let t_codec = p.time("serve.codec", || {
        black_box(decode_request(&encode_request(&req)).expect("request round trip"));
        black_box(decode_response(&encode_response(&resp)).expect("response round trip"));
    });
    v.insert("serve.codec_us", 1e6 * t_codec);

    // The exact rig over TCP: one connection's round trips, then swaps
    // beside a second connection's reads.
    let tcp_spec = ServeSpec { ivf: false, tcp_conns: 2, ..*spec };
    let mut rig = product::Serve::setup(&tcp_spec, &si, &scratch_dir.join("probe-tcp"));
    let t_tcp = p.time("serve.tcp", || {
        rig.conns()[0].call(&Req::Recommend { user: user() }).expect("recommend");
    });
    v.insert("serve.tcp_us", 1e6 * t_tcp);
    v.insert("serve.tcp_self_us", 1e6 * (t_tcp - t_state));
    let n_items = n as u32;
    let t_score_items = p.time("serve.score_items", || {
        let req =
            Req::ScoreItems { user: user(), items: [user() % n_items, (user() + 1) % n_items] };
        rig.conns()[0].call(&req).expect("score_items");
    });
    v.insert("serve.score_items_us", 1e6 * t_score_items);
    v.insert(
        "serve.stats_us",
        1e6 * p.time("serve.stats", || drop(rig.conns()[0].call(&Req::Stats).expect("stats"))),
    );
    let t_swap_load = p.time("serve.swap_load", || {
        let loaded = ModelArtifact::load(&path).expect("load");
        black_box(ServeState::with_seen_from(loaded, &state));
    });
    v.insert("serve.swap_load_ms", 1e3 * t_swap_load);
    let engine = ServeEngine::single_tenant(ServeState::new(art.clone()), Default::default());
    let t_publish = p.time_with(
        "serve.swap_publish",
        || ServeState::new(art.clone()),
        |next| {
            engine.swap(ServeEngine::DEFAULT_TENANT, next).expect("swap");
        },
    );
    engine.shutdown();
    v.insert("serve.swap_publish_us", 1e6 * t_publish);
    v.insert("serve.swap_stall_ms", 1e3 * swap_stall(&mut rig, spec, p));
    rig.shutdown();

    // The IVF rig in process: one caller's engine round trip, then the
    // open-loop ladder.
    let ivf_spec = ServeSpec { ivf: true, tcp_conns: 0, ..*spec };
    let mut rig = product::Serve::setup(&ivf_spec, &si, &scratch_dir.join("probe-ivf"));
    let t_engine = p.time("serve.engine", || {
        rig.conns()[0].call(&Req::Recommend { user: user() }).expect("recommend");
    });
    v.insert("serve.engine_us", 1e6 * t_engine);
    v.insert("serve.engine_self_us", 1e6 * (t_engine - t_state_ivf));
    let mut max_rate_ok = 0.0;
    for (rate, name) in LADDER_RATES {
        let per_slice = (rate * LADDER_SECONDS) as usize;
        let load = Load::Open { rate, per_slice, limit_s: LADDER_LIMIT_S };
        let (lat, late) = duet::product_slice(rig.conns(), &load, &ivf_spec, seed ^ rate as u64);
        let (tail, _) = stats::tail(&lat);
        v.insert(name, 1e3 * tail);
        // A rate is met when the tail stays under the limit and the last
        // requests went out on time (no backlog grew).
        let backlog = late[late.len() - late.len() / 10..].iter().copied().fold(0.0, f64::max);
        if tail <= LADDER_LIMIT_S && backlog <= LADDER_LIMIT_S {
            max_rate_ok = rate;
        }
    }
    v.insert("serve.max_rate_ok", max_rate_ok);
    v.insert("serve.engine_avg_batch", rig.avg_batch());
    rig.shutdown();
    let _ = std::fs::remove_dir_all(scratch_dir);
}

/// How long a `swap_artifact` on one connection stalls back-to-back reads
/// on another: the slowest read of the few milliseconds around the swap,
/// minus their median. p10 over repetitions, in seconds.
fn swap_stall(rig: &mut product::Serve, spec: &ServeSpec, p: &mut Prober) -> f64 {
    let (writer, reader) = rig.conns().split_at_mut(1);
    let (writer, reader) = (&mut writer[0], &mut reader[0]);
    let n_users = spec.n_users as u32;
    let mut stalls = Vec::with_capacity(MIN_REPS);
    for rep in 0..MIN_REPS {
        let stop = AtomicBool::new(false);
        let lat: Vec<f64> = std::thread::scope(|s| {
            let stop = &stop;
            let reader = &mut *reader;
            let h = s.spawn(move || {
                let mut out = Vec::new();
                let mut u = rep as u32;
                // Relaxed: the flag only ends the loop.
                while !stop.load(Ordering::Relaxed) {
                    u = (u * 31 + 7) % n_users;
                    let t = Instant::now();
                    reader.call(&Req::Recommend { user: u }).expect("read beside a swap");
                    out.push(t.elapsed().as_secs_f64());
                }
                out
            });
            std::thread::sleep(Duration::from_millis(5));
            p.op += 1;
            p.tracer.span("serve.swap", p.op, |_| {
                writer.call(&Req::Swap { to_b: rep % 2 == 0 }).expect("swap");
            });
            std::thread::sleep(Duration::from_millis(2));
            stop.store(true, Ordering::Relaxed);
            h.join().expect("reader thread")
        });
        let worst = lat.iter().copied().fold(0.0, f64::max);
        stalls.push((worst - stats::median(&lat)).max(0.0));
    }
    stats::quantile(&stalls, 0.10)
}
