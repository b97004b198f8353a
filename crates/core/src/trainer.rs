//! The training loop: backbone × loss × sampler × optimizer × evaluation.

use crate::config::{SamplingConfig, TrainConfig};
use crate::engine::{Engine, Job, WorkerPool};
use bsl_data::Dataset;
use bsl_eval::{evaluate_artifact, evaluate_artifact_on, EvalReport};
use bsl_linalg::kernels::{axpy, cosine_backward_into, dot, normalize_into, sq_dist};
use bsl_linalg::simd::{cosine_backward_row, gemm, normalize_gather_into, scores_gather, Op};
use bsl_linalg::Matrix;
use bsl_losses::{build as build_loss, scale_rows, RankingLoss, RowTerm, ScoreBatch};
use bsl_models::{
    build as build_backbone, Backbone, EvalScore, GradBuffer, GradSink, Hyper, ModelArtifact,
    ShardGrad, TrainScore,
};
use bsl_sampling::{
    BatchIter, NegativeSampler, NoisySampler, PopularitySampler, TrainBatch, UniformSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cutoffs every training run evaluates (Fig 7's @5/@10/@15 plus the
/// paper's headline @20).
pub const EVAL_KS: [usize; 4] = [5, 10, 15, 20];

/// Loss statistics of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean main-loss value over batches.
    pub loss: f64,
    /// Mean auxiliary (self-supervised) loss over batches.
    pub aux_loss: f64,
}

/// Result of a training run.
pub struct TrainOutcome {
    /// Final user embeddings at the best evaluation (raw, un-prepared —
    /// experiment harnesses inspect these; retrieval goes through
    /// [`artifact`](TrainOutcome::artifact)).
    pub user_emb: Matrix,
    /// Final item embeddings at the best evaluation.
    pub item_emb: Matrix,
    /// The backbone's test-time score function.
    pub eval_score: EvalScore,
    /// The frozen, servable export of the best epoch's embeddings:
    /// normalization / distance augmentation already applied, so repeated
    /// evaluations and serving never repay preparation. Save it with
    /// [`ModelArtifact::save`], serve it with `bsl_serve::ServeState`.
    pub artifact: ModelArtifact,
    /// The best evaluation report (by NDCG@20).
    pub best: EvalReport,
    /// Epoch (0-based) of the best evaluation.
    pub best_epoch: usize,
    /// Per-epoch loss statistics.
    pub history: Vec<EpochStats>,
    /// `(epoch, NDCG@20)` at each evaluation point.
    pub eval_history: Vec<(usize, f64)>,
}

impl TrainOutcome {
    /// Re-evaluates the stored best model on `ds` at the cutoffs `ks` —
    /// used by experiments that need metrics on a different split or at
    /// different cutoffs than the training loop recorded. Ranks through
    /// the pre-prepared [`artifact`](TrainOutcome::artifact), so repeated
    /// calls pay no per-call normalization.
    pub fn evaluate_on(&self, ds: &Dataset, ks: &[usize]) -> EvalReport {
        evaluate_artifact(ds, &self.artifact, ks)
    }
}

/// Trains a backbone with a ranking loss on a dataset.
pub struct Trainer {
    cfg: TrainConfig,
    /// Persistent execution engine (compute worker pool + sampling shard
    /// workers), created lazily on the first multi-threaded fit and then
    /// reused for every batch, epoch, and subsequent fit of this trainer
    /// — no per-batch or per-epoch thread spawning.
    engine: OnceLock<Engine>,
}

/// Contiguous row ranges splitting `n` rows across at most `k` workers
/// (fewer when `n < k`; never empty ranges).
fn row_chunks(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.min(n).max(1);
    let chunk = n.div_ceil(k);
    (0..n).step_by(chunk.max(1)).map(|s| s..(s + chunk).min(n)).collect()
}

/// Reusable step scratch: unit vectors, norms, scores and the in-batch
/// similarity matrix, all as flat row-major buffers. Sizing is
/// grow-only (every consumer slices the exact extent it needs), so after
/// the first full-sized batch no step re-zeroes or reallocates —
/// trailing partial batches and later epochs reuse the same storage.
///
/// The sampled cosine path keeps one unit vector per *distinct* negative
/// of the step, not per occurrence: `uniq` lists the step's distinct
/// negative ids in first-seen order, `neg_hat`/`neg_norms` hold their unit
/// rows and raw norms (at most `min(B·m, n_items)` rows), and `neg_slot`
/// maps each of the `B·m` occurrences to its row. Scoring and backward
/// read the table through `neg_slot`, so an item drawn many times in a
/// step is normalized once. Distance-scored backbones (CML) never touch
/// any of it.
///
/// The loss stage ([`loss_stage`]) writes the score gradients into
/// `grad_pos` / `grad_neg`, with its per-row terms and factors beside
/// them; both pass 2s read them from there.
///
/// Sampled pass 2 scatters a row's item-side gradients through
/// `sink_rows`, which holds, per row chunk, where in its sink's item block
/// each negative's row sits (see [`Backward::backward_rows`]). The
/// in-batch step keeps `V̂ᵀ` for its forward product and puts its `2·B`
/// gradient rows in `grad_rows`. Its two `B × B` blocks reuse the two
/// negative-side buffers, each once its content is dead: pass 1 computes
/// the similarities `S` in `grad_neg` before the loss writes the
/// gradients there, and pass 2 writes the score-gradient block `G` over
/// `neg_scores` (see [`pass1_in_batch_scores`] and [`pass2_in_batch`]).
#[derive(Default)]
struct StepScratch {
    /// Unit user vectors, `B × d` flat.
    user_hat: Vec<f32>,
    user_norm: Vec<f32>,
    /// Unit positive-item vectors, `B × d` flat.
    pos_hat: Vec<f32>,
    pos_norm: Vec<f32>,
    pos_scores: Vec<f32>,
    /// Negative scores, `B·m` flat; in-batch, from pass 2 on, `G`
    /// (`B × B`).
    neg_scores: Vec<f32>,
    /// Unit vectors of the step's distinct negatives, `uniq.len() × d`
    /// flat (sampled cosine path only).
    neg_hat: Vec<f32>,
    neg_norms: Vec<f32>,
    /// The step's distinct negative ids, first-seen order.
    uniq: Vec<u32>,
    /// Row of `neg_hat` for each of the `B·m` negative occurrences.
    neg_slot: Vec<u32>,
    /// Item id → row of `neg_hat`, `u32::MAX` = not drawn this step.
    /// Catalogue-sized like [`GradBuffer`]; all-`MAX` between steps.
    slot_of_item: Vec<u32>,
    /// In-batch only: the unit positives transposed, `d × B` flat.
    item_hat_t: Vec<f32>,
    /// In-batch only: the `B` user-side gradient rows, then the `B`
    /// item-side ones, `2·B × d` flat.
    grad_rows: Vec<f32>,
    /// One run of `m` entries per row chunk of sampled pass 2: the rows of
    /// the current batch row's occurrences.
    sink_rows: Vec<u32>,
    /// `∂L/∂pos`, `B`.
    grad_pos: Vec<f32>,
    /// `∂L/∂neg`, `B·m` flat; in-batch, in pass 1, `S` (`B × B`) first.
    grad_neg: Vec<f32>,
    /// The loss's row-phase term of each row, `B`.
    loss_terms: Vec<RowTerm>,
    /// The batch phase's factor for each row's negative gradients, `B`.
    row_scales: Vec<f32>,
}

/// A `sink_rows` entry whose item has not been touched in its sink.
const UNRESOLVED: u32 = u32::MAX;

/// Grows `v` to at least `n` elements (never shrinks).
fn grow<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

impl StepScratch {
    /// Sizes the sampled-path buffers; `table_rows` bounds the step's
    /// distinct negatives (0 on the distance-scored path).
    fn ensure_sampled(&mut self, b: usize, m: usize, d: usize, table_rows: usize) {
        grow(&mut self.user_hat, b * d);
        grow(&mut self.user_norm, b);
        grow(&mut self.pos_hat, b * d);
        grow(&mut self.pos_norm, b);
        grow(&mut self.pos_scores, b);
        grow(&mut self.neg_scores, b * m);
        grow(&mut self.neg_hat, table_rows * d);
        grow(&mut self.neg_norms, table_rows);
    }

    fn ensure_in_batch(&mut self, b: usize, d: usize) {
        grow(&mut self.user_hat, b * d);
        grow(&mut self.user_norm, b);
        grow(&mut self.pos_hat, b * d);
        grow(&mut self.pos_norm, b);
        grow(&mut self.pos_scores, b);
        grow(&mut self.neg_scores, b * b);
        grow(&mut self.grad_neg, b * b);
        grow(&mut self.item_hat_t, b * d);
        grow(&mut self.grad_rows, 2 * b * d);
    }

    /// Pass 0, indexing half: fills `uniq` with the distinct ids of `negs`
    /// in first-seen order and `neg_slot[k]` with the position of
    /// `negs[k]` in it. `slot_of_item` is reset by walking `uniq`, so the
    /// cost is `O(negs.len())`, never `O(n_items)`.
    fn index_negatives(&mut self, negs: &[u32], n_items: usize) {
        if self.slot_of_item.len() < n_items {
            self.slot_of_item.resize(n_items, u32::MAX);
        }
        if self.neg_slot.len() < negs.len() {
            self.neg_slot.resize(negs.len(), 0);
        }
        self.uniq.clear();
        self.uniq.reserve(negs.len().min(n_items));
        for (slot, &id) in self.neg_slot.iter_mut().zip(negs) {
            let seen = &mut self.slot_of_item[id as usize];
            if *seen == u32::MAX {
                *seen = self.uniq.len() as u32;
                self.uniq.push(id);
            }
            *slot = *seen;
        }
        for &id in &self.uniq {
            self.slot_of_item[id as usize] = u32::MAX;
        }
    }
}

/// Splits the first `n` elements off the front of `*rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    front
}

/// The pass-1 outputs of a contiguous run of batch rows.
struct ScoreRows<'a> {
    user_hat: &'a mut [f32],
    user_norm: &'a mut [f32],
    pos_hat: &'a mut [f32],
    pos_norm: &'a mut [f32],
    pos_scores: &'a mut [f32],
    neg_scores: &'a mut [f32],
}

impl<'a> ScoreRows<'a> {
    /// Splits the first `rows` rows off the front.
    fn take_rows(&mut self, rows: usize, m: usize, d: usize) -> ScoreRows<'a> {
        ScoreRows {
            user_hat: take_front(&mut self.user_hat, rows * d),
            user_norm: take_front(&mut self.user_norm, rows),
            pos_hat: take_front(&mut self.pos_hat, rows * d),
            pos_norm: take_front(&mut self.pos_norm, rows),
            pos_scores: take_front(&mut self.pos_scores, rows),
            neg_scores: take_front(&mut self.neg_scores, rows * m),
        }
    }
}

/// The pool and the batch's row chunks of a pooled step; `None` runs the
/// pass inline on the calling thread as the one chunk `0..b`.
type Pooled<'a> = Option<(&'a WorkerPool, &'a [Range<usize>])>;

/// Runs `body` over rows `0..n`: inline as one range, or with a pool as one
/// job per chunk, each on the part of `out` that `split` cuts off the front
/// for the chunk's row count.
fn run_rows<T: Send>(
    pool: Pooled,
    n: usize,
    mut out: T,
    split: impl Fn(&mut T, usize) -> T,
    body: impl Fn(Range<usize>, T) + Sync,
) {
    match pool {
        None => body(0..n, out),
        Some((pool, chunks)) => {
            let body = &body;
            let mut jobs: Vec<Job> = Vec::with_capacity(chunks.len());
            for range in chunks {
                let part = split(&mut out, range.len());
                let range = range.clone();
                jobs.push(Box::new(move || body(range, part)));
            }
            pool.run(jobs);
        }
    }
}

/// Passes 0 and 1 of a step with *sampled* negatives.
///
/// Pass 0 (cosine only) indexes the step's negatives on the calling
/// thread and gather-normalizes each *distinct* one once into
/// `scratch.neg_hat` — with a pool, as one extra round of row chunks over
/// the distinct ids. Pass 1 normalizes each row's user and positive and
/// scores the row against its negatives' table rows with one
/// [`scores_gather`], row-sharded into disjoint scratch slices.
#[allow(clippy::too_many_arguments)] // the pass mirrors the step state
fn pass1_sampled_scores(
    pool: Pooled,
    batch: &TrainBatch,
    users: &Matrix,
    items: &Matrix,
    score_kind: TrainScore,
    scratch: &mut StepScratch,
    b: usize,
    m: usize,
    d: usize,
) {
    // The distance-scored path keeps no unit vectors: an empty index.
    let (negs, n_items) = match score_kind {
        TrainScore::Cosine => (&batch.negs[..b * m], items.rows()),
        TrainScore::NegSqDist => (&[][..], 0),
    };
    scratch.ensure_sampled(b, m, d, negs.len().min(n_items));
    scratch.index_negatives(negs, n_items);
    let n = scratch.uniq.len();
    let uniq = &scratch.uniq[..];
    let id_chunks = pool.map(|(pool, _)| row_chunks(n, pool.n_workers()));
    run_rows(
        pool.map(|(pool, _)| pool).zip(id_chunks.as_deref()),
        n,
        (&mut scratch.neg_hat[..n * d], &mut scratch.neg_norms[..n]),
        |(hat, norms), rows| (take_front(hat, rows * d), take_front(norms, rows)),
        |range, (hat, norms)| normalize_gather_into(items, &uniq[range], hat, norms),
    );

    let table = &scratch.neg_hat[..n * d];
    let slots = &scratch.neg_slot[..];
    let rest = ScoreRows {
        user_hat: &mut scratch.user_hat[..b * d],
        user_norm: &mut scratch.user_norm[..b],
        pos_hat: &mut scratch.pos_hat[..b * d],
        pos_norm: &mut scratch.pos_norm[..b],
        pos_scores: &mut scratch.pos_scores[..b],
        neg_scores: &mut scratch.neg_scores[..b * m],
    };
    run_rows(
        pool,
        b,
        rest,
        |rest, rows| rest.take_rows(rows, m, d),
        |range, out| {
            for (li, row) in range.enumerate() {
                let u = batch.users[row] as usize;
                let i = batch.pos[row] as usize;
                let ns = &mut out.neg_scores[li * m..(li + 1) * m];
                match score_kind {
                    TrainScore::Cosine => {
                        let uh = &mut out.user_hat[li * d..(li + 1) * d];
                        let ph = &mut out.pos_hat[li * d..(li + 1) * d];
                        out.user_norm[li] = normalize_into(users.row(u), uh);
                        out.pos_norm[li] = normalize_into(items.row(i), ph);
                        out.pos_scores[li] = dot(uh, ph);
                        scores_gather(uh, table, &slots[row * m..(row + 1) * m], ns);
                    }
                    TrainScore::NegSqDist => {
                        out.pos_scores[li] = -sq_dist(users.row(u), items.row(i));
                        for (s, &j) in ns.iter_mut().zip(batch.negs_of(row)) {
                            *s = -sq_dist(users.row(u), items.row(j as usize));
                        }
                    }
                }
            }
        },
    );
}

/// Pass 1 of a step with *in-batch* negatives: row `a`'s negatives are the
/// other rows' positive items (paper Table V).
///
/// Round 1 gather-normalizes each row's user and positive item (one
/// blocked gather per side and chunk; `pos_hat`/`pos_norm` hold the item
/// side), and the calling thread transposes the unit items into `V̂ᵀ`.
/// Round 2 computes each chunk's rows of the `B × B` similarity matrix
/// `S = Û·V̂ᵀ`, `S[a][c] = cos(user_a, item_c)`, with one [`gemm`] into
/// `scratch.grad_neg` — hence the barrier between the rounds — and splits
/// each row into its diagonal (the positive score) and the `B − 1` entries
/// around it (the negative scores, in item-row order). By the kernel's
/// contract every score has the bits of one product over all rows,
/// whatever the chunking.
fn pass1_in_batch_scores(
    pool: Pooled,
    batch: &TrainBatch,
    users: &Matrix,
    items: &Matrix,
    scratch: &mut StepScratch,
    b: usize,
    d: usize,
) {
    let m = b - 1;
    scratch.ensure_in_batch(b, d);
    let rest = (
        &mut scratch.user_hat[..b * d],
        &mut scratch.user_norm[..b],
        &mut scratch.pos_hat[..b * d],
        &mut scratch.pos_norm[..b],
    );
    run_rows(
        pool,
        b,
        rest,
        |(uh, un, ih, inorm), rows| {
            let (uh, un) = (take_front(uh, rows * d), take_front(un, rows));
            (uh, un, take_front(ih, rows * d), take_front(inorm, rows))
        },
        |range, (uh, un, ih, inorm)| {
            normalize_gather_into(users, &batch.users[range.start..range.end], uh, un);
            normalize_gather_into(items, &batch.pos[range], ih, inorm);
        },
    );
    // Sixteen unit rows at a time: their reads stay in L1, and each write
    // is one 64-byte run of a row of `V̂ᵀ`.
    let item_hat_t = &mut scratch.item_hat_t[..b * d];
    for (c0, rows) in (0..b).step_by(16).zip(scratch.pos_hat[..b * d].chunks(16 * d)) {
        for p in 0..d {
            let run = &mut item_hat_t[p * b + c0..][..rows.len() / d];
            for (x, row) in run.iter_mut().zip(rows.chunks_exact(d)) {
                *x = row[p];
            }
        }
    }

    let (user_hat, item_hat_t) = (&scratch.user_hat[..b * d], &scratch.item_hat_t[..b * d]);
    let rest = (
        &mut scratch.grad_neg[..b * b],
        &mut scratch.pos_scores[..b],
        &mut scratch.neg_scores[..b * m],
    );
    run_rows(
        pool,
        b,
        rest,
        |(sims, pos, neg), rows| {
            (take_front(sims, rows * b), take_front(pos, rows), take_front(neg, rows * m))
        },
        |range, (sims, pos, neg)| {
            let user_rows = &user_hat[range.start * d..range.end * d];
            gemm(Op::N, user_rows, item_hat_t, b, 0..range.len(), sims);
            for (li, a) in range.enumerate() {
                let srow = &sims[li * b..(li + 1) * b];
                pos[li] = srow[a];
                let ns = &mut neg[li * m..(li + 1) * m];
                ns[..a].copy_from_slice(&srow[..a]);
                ns[a..].copy_from_slice(&srow[a + 1..]);
            }
        },
    );
}

/// Pass 2 of a step with *in-batch* negatives, as two blocked products.
///
/// `G` is the `B × B` score-gradient matrix: diagonal `grad_pos`, row
/// `a`'s `grad_neg` around it in column order. It is written over the
/// negative scores in `scratch.neg_scores`, which nothing reads after the
/// loss stage. As `∂cos(u, v)/∂u = (v̂ − cos·û)/‖u‖`, row `a`'s user
/// side is `((G·V̂)[a] − rowsum(G⊙S)[a]·û_a)/‖u_a‖` and column `c`'s item
/// side is `((Gᵀ·Û)[c] − colsum(G⊙S)[c]·v̂_c)/‖v_c‖`. And as `S = Û·V̂ᵀ`,
/// `rowsum(G⊙S)[a] = ⟨(G·V̂)[a], û_a⟩` and `colsum(G⊙S)[c] = ⟨(Gᵀ·Û)[c],
/// v̂_c⟩`: each side is its product row projected off its unit row
/// ([`tangent_rows`]), and no pass over `S` is needed for the sums.
///
/// Round 1 writes each chunk's rows of `G`, then its user rows; round 2,
/// after the barrier (`Gᵀ·Û` reads every row of `G`), each chunk's item
/// rows. Then the calling thread adds the `B` user rows, in row order, and
/// the `B` item rows, in column order, into `grads`: every batch user and
/// item is touched, as every item is some row's positive. Each element is
/// the same chain whatever the chunking, so the step has the same bits at
/// every thread count.
fn pass2_in_batch(
    pool: Pooled,
    batch: &TrainBatch,
    scratch: &mut StepScratch,
    grads: &mut GradBuffer,
    b: usize,
    d: usize,
) {
    let m = b - 1;
    let (user_hat, item_hat) = (&scratch.user_hat[..b * d], &scratch.pos_hat[..b * d]);
    let (user_norm, item_norm) = (&scratch.user_norm[..b], &scratch.pos_norm[..b]);
    let (grad_pos, grad_neg) = (&scratch.grad_pos[..b], &scratch.grad_neg[..b * m]);
    let (user_grad, item_grad) = scratch.grad_rows[..2 * b * d].split_at_mut(b * d);
    run_rows(
        pool,
        b,
        (&mut scratch.neg_scores[..b * b], &mut *user_grad),
        |(g, ug), rows| (take_front(g, rows * b), take_front(ug, rows * d)),
        |range, (g, ug)| {
            let (hat, norms) =
                (&user_hat[range.start * d..range.end * d], &user_norm[range.start..range.end]);
            for (g_row, a) in g.chunks_exact_mut(b).zip(range) {
                let gn = &grad_neg[a * m..(a + 1) * m];
                g_row[..a].copy_from_slice(&gn[..a]);
                g_row[a] = grad_pos[a];
                g_row[a + 1..].copy_from_slice(&gn[a..]);
            }
            gemm(Op::N, g, item_hat, d, 0..norms.len(), ug);
            tangent_rows(ug, hat, norms, d);
        },
    );
    let g = &scratch.neg_scores[..b * b];
    run_rows(
        pool,
        b,
        &mut *item_grad,
        |ig, rows| take_front(ig, rows * d),
        |range, ig| {
            let (hat, norms) =
                (&item_hat[range.start * d..range.end * d], &item_norm[range.start..range.end]);
            gemm(Op::T, g, user_hat, d, range, ig);
            tangent_rows(ig, hat, norms, d);
        },
    );
    for (row, &u) in user_grad.chunks_exact(d).zip(&batch.users) {
        axpy(1.0, row, grads.user_row_mut(u));
    }
    for (row, &i) in item_grad.chunks_exact(d).zip(&batch.pos) {
        axpy(1.0, row, grads.item_row_mut(i));
    }
}

/// The loss stage of a step: the row phase of `loss` over the batch's row
/// chunks, its batch phase on the calling thread, then each row's negative
/// gradients times its row factor, again one job per row chunk. Reads the
/// pass-1 scores, writes the score gradients into `scratch.grad_pos` /
/// `scratch.grad_neg` and returns the loss value. Each row is computed
/// alone in both pooled rounds, so the bits do not depend on the chunking.
fn loss_stage(
    pool: Pooled,
    loss: &dyn RankingLoss,
    scratch: &mut StepScratch,
    b: usize,
    m: usize,
) -> f64 {
    grow(&mut scratch.grad_pos, b);
    grow(&mut scratch.grad_neg, b * m);
    grow(&mut scratch.loss_terms, b);
    grow(&mut scratch.row_scales, b);
    let batch = ScoreBatch::new(&scratch.pos_scores[..b], &scratch.neg_scores[..b * m], m);
    let (grad_pos, grad_neg) = (&mut scratch.grad_pos[..b], &mut scratch.grad_neg[..b * m]);
    let (terms, scales) = (&mut scratch.loss_terms[..b], &mut scratch.row_scales[..b]);
    run_rows(
        pool,
        b,
        (&mut *grad_pos, &mut *grad_neg, &mut *terms),
        |(gp, gn, t), rows| (take_front(gp, rows), take_front(gn, rows * m), take_front(t, rows)),
        |range, (gp, gn, t)| loss.row_phase(&batch, range, gp, gn, t),
    );
    let value = loss.batch_phase(&batch, terms, grad_pos, scales);
    let scales = &*scales;
    run_rows(
        pool,
        b,
        grad_neg,
        |gn, rows| take_front(gn, rows * m),
        |range, gn| scale_rows(&scales[range], gn, m),
    );
    value
}

/// Turns each `d`-wide row `x` of `rows`, the score gradients' product
/// with the other side's unit rows, into the cosine gradient of its own
/// row: `x ← (x − ⟨x, ĥ⟩·ĥ)/‖h‖` for its unit row `ĥ` and raw norm `‖h‖`.
fn tangent_rows(rows: &mut [f32], hat: &[f32], norms: &[f32], d: usize) {
    for ((x, h), &norm) in rows.chunks_exact_mut(d).zip(hat.chunks_exact(d)).zip(norms) {
        let (r, inv) = (dot(x, h), 1.0 / norm.max(1e-12));
        for (xj, &hj) in x.iter_mut().zip(h) {
            *xj = (*xj - r * hj) * inv;
        }
    }
}

impl Trainer {
    /// Creates a trainer for `cfg`. Worker threads (for
    /// `cfg.threads != 1`) are spawned lazily on the first fit and reused
    /// by every later fit of this trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg, engine: OnceLock::new() }
    }

    /// The configuration this trainer runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Builds the configured backbone and trains it on `ds`.
    pub fn fit(&self, ds: &Arc<Dataset>) -> TrainOutcome {
        let mut backbone = build_backbone(self.cfg.backbone, ds, self.cfg.dim, self.cfg.seed);
        self.fit_backbone(ds, backbone.as_mut())
    }

    /// Trains a caller-provided backbone (for custom models or warm
    /// starts).
    ///
    /// # Panics
    /// Panics if `epochs` or `eval_every` is 0, or if
    /// [`SamplingConfig::InBatch`] is combined with a backbone whose
    /// training score is not cosine (CML): the in-batch similarity block
    /// would train a different objective than the one the model is
    /// projected, exported and evaluated under. Panics on the first step
    /// whose loss is not finite, naming the epoch, the batch index and the
    /// loss.
    pub fn fit_backbone(&self, ds: &Arc<Dataset>, backbone: &mut dyn Backbone) -> TrainOutcome {
        let cfg = &self.cfg;
        assert!(cfg.epochs > 0, "epochs must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        let loss = build_loss(cfg.loss);
        let sampler: Arc<dyn NegativeSampler> = match cfg.sampling {
            SamplingConfig::Uniform | SamplingConfig::InBatch => {
                Arc::new(UniformSampler::new(ds.clone()))
            }
            SamplingConfig::Popularity { alpha } => {
                Arc::new(PopularitySampler::new(ds.clone(), alpha))
            }
            SamplingConfig::Noisy { r_noise } => Arc::new(NoisySampler::new(ds.clone(), r_noise)),
        };
        let in_batch = cfg.sampling == SamplingConfig::InBatch;
        // The in-batch passes score, and chain gradients through, cosine
        // similarities only.
        assert!(
            !in_batch || backbone.train_score() == TrainScore::Cosine,
            "in-batch sampling needs a cosine-scored backbone, got {}",
            backbone.name()
        );
        // In-batch rows carry B−1 negatives each; the sampler's draws are
        // discarded, so sample the minimum.
        let m = if in_batch { 1 } else { cfg.negatives };

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB5F0_0B5F);
        // `threads == 1` must stay bit-identical to the historical serial
        // trainer, so the persistent engine only exists when threads > 1.
        let n_threads = cfg.resolved_threads();
        let engine: Option<&Engine> = if n_threads > 1 {
            Some(self.engine.get_or_init(|| Engine::new(n_threads)))
        } else {
            None
        };
        // Per-worker gradient shards of the sampled step are sized to the
        // batch footprint (grow-only sparse row maps), never to the
        // catalogue; the in-batch step needs none.
        let mut shard_grads: Vec<ShardGrad> = if n_threads > 1 && !in_batch {
            (0..n_threads).map(|_| ShardGrad::new(backbone.out_dim())).collect()
        } else {
            Vec::new()
        };
        // The dense accumulator the optimizer consumes.
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, backbone.out_dim());
        let hyper = Hyper { lr: cfg.lr, l2: cfg.l2 };
        let mut scratch = StepScratch::default();

        let mut history = Vec::new();
        let mut eval_history = Vec::new();
        let mut best_ndcg = f64::NEG_INFINITY;
        let mut best: Option<(EvalReport, Matrix, Matrix, usize, ModelArtifact)> = None;
        let mut stale = 0usize;

        'training: for epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0f64;
            let mut aux_sum = 0.0f64;
            let mut n_batches = 0usize;
            let epoch_seed = cfg.seed.wrapping_add(1 + epoch as u64);
            // Persistent sampling shards (threads > 1) overlap negative
            // drawing with the gradient work below without spawning any
            // thread; threads == 1 is the serial BatchIter.
            let batches: Box<dyn Iterator<Item = TrainBatch> + '_> = match engine {
                Some(e) => {
                    Box::new(e.samplers().start_epoch(ds, &sampler, cfg.batch_size, m, epoch_seed))
                }
                None => {
                    Box::new(BatchIter::new(ds, sampler.as_ref(), cfg.batch_size, m, epoch_seed))
                }
            };
            for batch in batches {
                if in_batch && batch.len() < 2 {
                    continue; // a single row has no in-batch negatives
                }
                backbone.forward_on(&mut rng, engine.map(Engine::pool));
                let (l, aux) = self.step(
                    backbone,
                    loss.as_ref(),
                    &batch,
                    &mut grads,
                    &mut shard_grads,
                    &mut scratch,
                    hyper,
                    &mut rng,
                    engine.map(Engine::pool),
                );
                // A NaN or infinite score reaches every loss's value, so
                // this one check stops a diverged run at its first bad step.
                assert!(
                    l.is_finite(),
                    "non-finite {} loss {l} at epoch {epoch}, batch {n_batches}",
                    loss.name()
                );
                loss_sum += l;
                aux_sum += aux;
                n_batches += 1;
            }
            let denom = n_batches.max(1) as f64;
            history.push(EpochStats { epoch, loss: loss_sum / denom, aux_loss: aux_sum / denom });

            if (epoch + 1) % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
                backbone.forward_on(&mut rng, engine.map(Engine::pool));
                // Freeze the epoch's embeddings and rank through the
                // artifact — the same prepared tables serving would use.
                let artifact = backbone.export();
                let report = match engine {
                    Some(e) => evaluate_artifact_on(ds, &artifact, &EVAL_KS, e.pool()),
                    None => evaluate_artifact(ds, &artifact, &EVAL_KS),
                };
                let ndcg = report.ndcg(20);
                eval_history.push((epoch, ndcg));
                if ndcg > best_ndcg {
                    best_ndcg = ndcg;
                    // The factor copies are allocated at the first
                    // improvement and overwritten in place from then on.
                    let (users, items) = (backbone.user_factors(), backbone.item_factors());
                    match &mut best {
                        Some((best, best_users, best_items, best_epoch, best_artifact)) => {
                            best_users.clone_from(users);
                            best_items.clone_from(items);
                            (*best, *best_epoch, *best_artifact) = (report, epoch, artifact);
                        }
                        None => {
                            best = Some((report, users.clone(), items.clone(), epoch, artifact))
                        }
                    }
                    stale = 0;
                } else {
                    stale += 1;
                    if cfg.patience > 0 && stale >= cfg.patience {
                        break 'training;
                    }
                }
            }
        }

        let (best, user_emb, item_emb, best_epoch, artifact) =
            best.expect("at least one evaluation ran (final epoch always evaluates)");
        TrainOutcome {
            user_emb,
            item_emb,
            eval_score: backbone.eval_score(),
            artifact,
            best,
            best_epoch,
            history,
            eval_history,
        }
    }

    /// One optimizer step on `batch`.
    ///
    /// Pass 1 fills the scratch with unit vectors and scores, from sampled
    /// negatives ([`pass1_sampled_scores`]) or in-batch ones
    /// ([`pass1_in_batch_scores`]) by `cfg.sampling`; the loss stage
    /// ([`loss_stage`]) turns scores into score gradients in the scratch,
    /// its row work on the same row chunks; pass 2 chains them into
    /// embedding-gradient rows; the backbone steps on `grads`, whose
    /// touched rows it visits in ascending id order.
    ///
    /// In-batch, pass 2 is two blocked products ([`pass2_in_batch`]) whose
    /// every element has the same bits at any thread count. Sampled, pass 2
    /// is [`Backward::backward_rows`]: without a pool it runs inline on the
    /// calling thread straight into the dense `grads` — allocation-free and
    /// bit-identical to the historical serial trainer; with one it runs as
    /// jobs over contiguous row chunks, each into one private
    /// batch-footprint [`ShardGrad`], merged into `grads` in shard order:
    /// the same arithmetic, only the f32 reduction order of gradient rows
    /// shared between shards follows the shard layout, so results are
    /// deterministic per `(seed, threads)`.
    ///
    /// # Panics
    /// Panics if a sampled step runs on a pool with more workers than
    /// `shard_grads` has shards.
    #[allow(clippy::too_many_arguments)] // the step signature mirrors the trainer state
    fn step(
        &self,
        backbone: &mut dyn Backbone,
        loss: &dyn RankingLoss,
        batch: &TrainBatch,
        grads: &mut GradBuffer,
        shard_grads: &mut [ShardGrad],
        scratch: &mut StepScratch,
        hyper: Hyper,
        rng: &mut StdRng,
        pool: Option<&WorkerPool>,
    ) -> (f64, f64) {
        let b = batch.len();
        let d = backbone.out_dim();
        let score_kind = backbone.train_score();
        let users = backbone.user_factors();
        let items = backbone.item_factors();
        let in_batch = self.cfg.sampling == SamplingConfig::InBatch;
        let m = if in_batch { b - 1 } else { batch.m };
        let chunks = pool.map(|pool| row_chunks(b, pool.n_workers()));
        let pooled = pool.zip(chunks.as_deref());
        if in_batch {
            pass1_in_batch_scores(pooled, batch, users, items, scratch, b, d);
        } else {
            pass1_sampled_scores(pooled, batch, users, items, score_kind, scratch, b, m, d);
        }

        let loss_value = loss_stage(pooled, loss, scratch, b, m);

        if in_batch {
            pass2_in_batch(pooled, batch, scratch, grads, b, d);
        } else {
            // Lent out of the scratch so that each chunk writes its own run
            // while all of them read the rest.
            let mut sink_rows = std::mem::take(&mut scratch.sink_rows);
            let n_chunks = chunks.as_ref().map_or(1, |c| c.len());
            if sink_rows.len() < n_chunks * m {
                sink_rows.resize(n_chunks * m, UNRESOLVED);
            }
            let pass2 = Backward { batch, users, items, score_kind, m, d, scratch: &*scratch };
            match pooled {
                None => pass2.backward_rows(0..b, grads, &mut sink_rows[..m]),
                Some((pool, chunks)) => {
                    pass2.run_sharded(pool, chunks, shard_grads, &mut sink_rows);
                    // Fixed shard merge order keeps runs deterministic per
                    // thread count.
                    for sg in shard_grads.iter_mut() {
                        sg.merge_into(grads);
                        sg.clear();
                    }
                }
            }
            scratch.sink_rows = sink_rows;
        }

        // Every touched row's update is independent of the others, so the
        // optimizer and the clear may sweep them in memory order.
        grads.order_touched();
        let aux = backbone.step_on(grads, &batch.users, &batch.pos, hyper, rng, pool);
        grads.clear();
        (loss_value, aux)
    }
}

/// Pass 2 of a step with sampled negatives — chaining score gradients into
/// embedding gradients — as a read-only view of the step state after pass
/// 1 and the loss stage.
struct Backward<'a> {
    batch: &'a TrainBatch,
    /// Raw embeddings; only the distance-scored arm reads them.
    users: &'a Matrix,
    items: &'a Matrix,
    score_kind: TrainScore,
    /// Negatives per row.
    m: usize,
    d: usize,
    scratch: &'a StepScratch,
}

impl Backward<'_> {
    /// Accumulates the gradient rows of batch rows `rows` into `sink`.
    ///
    /// Per row: the positive pair (user side, then item side), then every
    /// negative occurrence once, both sides, in one [`cosine_backward_row`]
    /// call. The kernel scatters the item side straight into the sink's
    /// item block, so each occurrence's row in that block is resolved
    /// first, into `sink_rows` (this chunk's run of the scratch). A
    /// negative whose score gradient is exactly 0 is skipped *before* its
    /// row is asked for — asking touches the row, and a touched row gets an
    /// optimizer (L2, Adam moment) update.
    fn backward_rows<S: GradSink>(&self, rows: Range<usize>, sink: &mut S, sink_rows: &mut [u32]) {
        let Self { batch, m, d, scratch, .. } = *self;
        let b = batch.len();
        let user_hat = &scratch.user_hat[..b * d];
        let pos_hat = &scratch.pos_hat[..b * d];
        let pos_norm = &scratch.pos_norm[..b];
        let n_table = scratch.uniq.len();
        let neg_hat = &scratch.neg_hat[..n_table * d];
        let neg_norms = &scratch.neg_norms[..n_table];
        for row in rows {
            let u = batch.users[row];
            let i = batch.pos[row];
            let gs = &scratch.grad_neg[row * m..(row + 1) * m];
            match self.score_kind {
                TrainScore::Cosine => {
                    let uhat = &user_hat[row * d..(row + 1) * d];
                    let ihat = &pos_hat[row * d..(row + 1) * d];
                    let unorm = scratch.user_norm[row];
                    let g = scratch.grad_pos[row];
                    let s = scratch.pos_scores[row];
                    cosine_backward_into(g, s, uhat, ihat, unorm, sink.user_row_mut(u));
                    cosine_backward_into(g, s, ihat, uhat, pos_norm[row], sink.item_row_mut(i));
                    // Touch the item of every occurrence that will be
                    // written, in occurrence order.
                    for ((&g, &id), r) in gs.iter().zip(batch.negs_of(row)).zip(&mut *sink_rows) {
                        *r = if g != 0.0 { sink.item_block_row(id) } else { UNRESOLVED };
                    }
                    let (gu, block) = sink.user_row_and_item_block(u);
                    cosine_backward_row(
                        gs,
                        &scratch.neg_scores[row * m..(row + 1) * m],
                        uhat,
                        unorm,
                        neg_hat,
                        neg_norms,
                        &scratch.neg_slot[row * m..(row + 1) * m],
                        block,
                        sink_rows,
                        gu,
                    );
                }
                TrainScore::NegSqDist => {
                    // s = −||u−i||² ⇒ ∂s/∂u = 2(i−u), ∂s/∂i = 2(u−i).
                    let urow = self.users.row(u as usize);
                    let mut apply = |g: f32, item: u32| {
                        if g == 0.0 {
                            return;
                        }
                        let irow = self.items.row(item as usize);
                        let gu = sink.user_row_mut(u);
                        axpy(2.0 * g, irow, gu);
                        axpy(-2.0 * g, urow, gu);
                        let gi = sink.item_row_mut(item);
                        axpy(2.0 * g, urow, gi);
                        axpy(-2.0 * g, irow, gi);
                    };
                    apply(scratch.grad_pos[row], i);
                    for (&g, &j) in gs.iter().zip(batch.negs_of(row)) {
                        apply(g, j);
                    }
                }
            }
        }
    }

    /// The pooled form of pass 2: one [`Backward::backward_rows`] job per
    /// row chunk, each into its own shard and its own `m` entries of
    /// `sink_rows` (private buffers, no write contention; the caller merges
    /// the shards).
    fn run_sharded(
        &self,
        pool: &WorkerPool,
        chunks: &[Range<usize>],
        shards: &mut [ShardGrad],
        mut sink_rows: &mut [u32],
    ) {
        assert!(chunks.len() <= shards.len(), "a sampled pooled step needs a shard per chunk");
        let mut jobs: Vec<Job> = Vec::with_capacity(chunks.len());
        for (range, shard) in chunks.iter().zip(shards.iter_mut()) {
            let range = range.clone();
            let sink_rows = take_front(&mut sink_rows, self.m);
            jobs.push(Box::new(move || self.backward_rows(range, shard, sink_rows)));
        }
        pool.run(jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_linalg::simd::{cosine_backward_block, scores_block};
    use bsl_losses::{Bsl, LossConfig};
    use bsl_models::BackboneConfig;

    fn tiny() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn random_baseline(ds: &Arc<Dataset>) -> f64 {
        // NDCG of untrained Xavier embeddings.
        let mut rng = StdRng::seed_from_u64(999);
        let u = Matrix::xavier_uniform(ds.n_users, 16, &mut rng);
        let i = Matrix::xavier_uniform(ds.n_items, 16, &mut rng);
        bsl_eval::evaluate(ds, &u, &i, EvalScore::Cosine, &[20]).ndcg(20)
    }

    #[test]
    fn mf_sl_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 12, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        let chance = random_baseline(&ds);
        assert!(
            out.best.ndcg(20) > chance * 2.0,
            "trained NDCG {:.4} vs random {:.4}",
            out.best.ndcg(20),
            chance
        );
        assert_eq!(out.history.len() as i64, 12);
    }

    #[test]
    fn mf_bsl_learns_signal() {
        let ds = tiny();
        // τ1 well above τ2: at this tiny scale the margins z_b spread over
        // several units, so a too-small τ1 concentrates the row weights and
        // slows early epochs (the same effect Fig 13 shows for tiny τ1/τ2).
        let cfg = TrainConfig {
            loss: LossConfig::Bsl { tau1: 0.5, tau2: 0.15 },
            epochs: 12,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 2.0);
    }

    #[test]
    fn lightgcn_bpr_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::LightGcn { layers: 2 },
            loss: LossConfig::Bpr,
            epochs: 10,
            negatives: 4,
            lr: 0.05,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn in_batch_sampling_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::InBatch,
            batch_size: 64,
            epochs: 10,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn cml_path_trains_and_evaluates() {
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            epochs: 10,
            lr: 0.05,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert_eq!(out.eval_score, bsl_models::EvalScore::NegSqDist);
        assert!(out.best.ndcg(20).is_finite());
        assert!(out.best.ndcg(20) > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        assert_eq!(a.best.ndcg(20), b.best.ndcg(20));
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
    }

    #[test]
    fn threads_one_replays_bit_for_bit() {
        // `threads: 1` is the historical serial path; two runs (and the
        // default config, which pins threads = 1) must agree bit-for-bit.
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, threads: 1, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        let default_cfg = Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::smoke() }).fit(&ds);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
        assert_eq!(a.item_emb.as_slice(), b.item_emb.as_slice());
        assert_eq!(a.user_emb.as_slice(), default_cfg.user_emb.as_slice());
        assert_eq!(a.best.ndcg(20), default_cfg.best.ndcg(20));
    }

    /// Records the touched-row lists and the dense user and item gradients
    /// every optimizer step receives, in order: `Trainer::step` clears the
    /// gradient buffer before returning.
    struct Recording {
        inner: Box<dyn Backbone>,
        touched: Vec<(Vec<u32>, Vec<u32>)>,
        grads: Vec<(Vec<f32>, Vec<f32>)>,
    }

    impl Recording {
        fn new(inner: Box<dyn Backbone>) -> Self {
            Self { inner, touched: Vec::new(), grads: Vec::new() }
        }
    }

    impl Backbone for Recording {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn n_users(&self) -> usize {
            self.inner.n_users()
        }
        fn n_items(&self) -> usize {
            self.inner.n_items()
        }
        fn out_dim(&self) -> usize {
            self.inner.out_dim()
        }
        fn forward(&mut self, rng: &mut StdRng) {
            self.inner.forward(rng)
        }
        fn user_factors(&self) -> &Matrix {
            self.inner.user_factors()
        }
        fn item_factors(&self) -> &Matrix {
            self.inner.item_factors()
        }
        fn step(&mut self, g: &GradBuffer, u: &[u32], i: &[u32], hp: Hyper, r: &mut StdRng) -> f64 {
            self.touched.push((g.touched_users().to_vec(), g.touched_items().to_vec()));
            self.grads.push((g.users().as_slice().to_vec(), g.items().as_slice().to_vec()));
            self.inner.step(g, u, i, hp, r)
        }
        fn train_score(&self) -> TrainScore {
            self.inner.train_score()
        }
        fn eval_score(&self) -> EvalScore {
            self.inner.eval_score()
        }
    }

    /// The per-occurrence step the distinct-row table and the fused row
    /// kernel replaced, rebuilt from the public block kernels: every
    /// occurrence of a negative is normalized into its own row of a `B·m·d`
    /// block, the user side runs over that block and the item side is one
    /// `cosine_backward_into` per occurrence. In-batch, row `a`'s negatives
    /// are the other rows' positives in column order. Returns how many of
    /// the `grad_neg` entries were exactly 0, and how many there are.
    fn oracle_step(
        backbone: &mut dyn Backbone,
        loss: &dyn RankingLoss,
        batch: &TrainBatch,
        in_batch: bool,
        hyper: Hyper,
        rng: &mut StdRng,
    ) -> (usize, usize) {
        let (b, d) = (batch.len(), backbone.out_dim());
        let m = if in_batch { b - 1 } else { batch.m };
        let negs: Vec<u32> = if in_batch {
            (0..b).flat_map(|a| (0..b).filter(move |&c| c != a).map(|c| batch.pos[c])).collect()
        } else {
            batch.negs.clone()
        };
        let users = backbone.user_factors();
        let items = backbone.item_factors();
        let mut grads = GradBuffer::new(users.rows(), items.rows(), d);
        let (mut uh, mut ph, mut nh) = (vec![0.0; b * d], vec![0.0; b * d], vec![0.0; b * m * d]);
        let (mut un, mut pn, mut nn) = (vec![0.0; b], vec![0.0; b], vec![0.0; b * m]);
        let (mut ps, mut ns) = (vec![0.0; b], vec![0.0; b * m]);
        for row in 0..b {
            let r = row * d..(row + 1) * d;
            un[row] = normalize_into(users.row(batch.users[row] as usize), &mut uh[r.clone()]);
            pn[row] = normalize_into(items.row(batch.pos[row] as usize), &mut ph[r]);
        }
        for row in 0..b {
            let (r, rm) = (row * d..(row + 1) * d, row * m..(row + 1) * m);
            let block = &mut nh[row * m * d..(row + 1) * m * d];
            normalize_gather_into(items, &negs[rm.clone()], block, &mut nn[rm.clone()]);
            if in_batch {
                // A score's bits depend on its row's place in the block
                // kernel's pairing: score the whole positive block, as the
                // in-batch pass does, and cut the diagonal out.
                let mut sims = vec![0.0; b];
                scores_block(&uh[r], &ph, &mut sims);
                ps[row] = sims.remove(row);
                ns[rm].copy_from_slice(&sims);
            } else {
                ps[row] = dot(&uh[r.clone()], &ph[r.clone()]);
                scores_block(&uh[r], block, &mut ns[rm]);
            }
        }
        let out = loss.compute(&ScoreBatch::new(&ps, &ns, m));
        for row in 0..b {
            let (u, i) = (batch.users[row], batch.pos[row]);
            let (uhat, ihat) = (&uh[row * d..(row + 1) * d], &ph[row * d..(row + 1) * d]);
            let (g, s) = (out.grad_pos[row], ps[row]);
            cosine_backward_into(g, s, uhat, ihat, un[row], grads.user_row_mut(u));
            cosine_backward_into(g, s, ihat, uhat, pn[row], grads.item_row_mut(i));
            let (gs, ss) = (&out.grad_neg[row * m..(row + 1) * m], &ns[row * m..(row + 1) * m]);
            let block = &nh[row * m * d..(row + 1) * m * d];
            // In-batch, the user side is two runs around the diagonal, each
            // closed by its own `−(Σ g·s)·û` term; sampled, one run.
            let cut = if in_batch { row } else { m };
            let gu = grads.user_row_mut(u);
            cosine_backward_block(&gs[..cut], &ss[..cut], uhat, un[row], &block[..cut * d], gu);
            cosine_backward_block(&gs[cut..], &ss[cut..], uhat, un[row], &block[cut * d..], gu);
            for (jj, &j) in negs[row * m..(row + 1) * m].iter().enumerate() {
                if gs[jj] == 0.0 {
                    continue;
                }
                let nhat = &block[jj * d..(jj + 1) * d];
                let sink = grads.item_row_mut(j);
                cosine_backward_into(gs[jj], ss[jj], nhat, uhat, nn[row * m + jj], sink);
            }
        }
        grads.order_touched();
        backbone.step(&grads, &batch.users, &batch.pos, hyper, rng);
        (out.grad_neg.iter().filter(|&&g| g == 0.0).count(), out.grad_neg.len())
    }

    /// How far the in-batch step may sit from the per-occurrence oracle.
    /// Its products sum each gradient element in another order than the
    /// oracle's occurrence sequence, and its scores come out of another
    /// kernel. So on the first step, where both start from the same
    /// embeddings, every gradient element must lie within
    /// `IN_BATCH_TOL × max |g|` of the oracle's (the largest element of the
    /// step's user or item gradient), and after both steps every embedding
    /// within `IN_BATCH_TOL` of it. Reassociating the `B` terms of one
    /// element moves it by a few units of `2⁻²⁴ ≈ 6e-8` of that scale
    /// (measured: at most 3.2e-7 on these batches). The second step's
    /// gradients are not compared: the runs enter it from embeddings that
    /// differ by rounding, and at τ2 = 1e-3 they can be a cancellation
    /// residual of that size.
    const IN_BATCH_TOL: f32 = 2e-6;

    /// Largest `|x − y|` over two equally long slices, and the largest `|y|`.
    fn max_diff(x: &[f32], y: &[f32]) -> (f32, f32) {
        assert_eq!(x.len(), y.len());
        x.iter()
            .zip(y)
            .fold((0.0f32, 0.0f32), |(d, s), (a, b)| (d.max((a - b).abs()), s.max(b.abs())))
    }

    /// Two steps on `batch` — the second on a reused scratch, index and
    /// shard — through the serial step, the one-chunk pooled step and the
    /// oracle. Both hand the optimizer their touched rows in ascending id
    /// order, so the touched-row lists must be equal on either path.
    /// Sampled, the steps must also agree exactly: equal embedding bits.
    /// In-batch, within [`IN_BATCH_TOL`]. `want_zeros`: whether some
    /// `grad_neg` must underflow to exactly 0, so that the skip decides
    /// which rows the optimizer updates.
    fn assert_steps_replay_the_oracle(
        batch: &TrainBatch,
        sampling: SamplingConfig,
        loss: LossConfig,
        want_zeros: bool,
    ) {
        let ds = tiny();
        let cfg = TrainConfig {
            loss,
            sampling,
            l2: 1e-3, // a touched row moves even under a zero gradient
            ..TrainConfig::smoke()
        };
        let in_batch = sampling == SamplingConfig::InBatch;
        let label = format!("{sampling:?}, {loss:?}");
        let loss = build_loss(cfg.loss);
        let hyper = Hyper { lr: cfg.lr, l2: cfg.l2 };
        let fresh = || Recording::new(build_backbone(cfg.backbone, &ds, cfg.dim, 5));
        let trainer = Trainer::new(cfg);
        let pool = WorkerPool::new(1);

        let mut oracle = fresh();
        for step in 0..2 {
            let mut rng = StdRng::seed_from_u64(step);
            let (zeros, of) =
                oracle_step(&mut oracle, loss.as_ref(), batch, in_batch, hyper, &mut rng);
            assert_eq!(want_zeros, zeros > 0, "{label}: {zeros} zero grad_neg entries");
            assert!(zeros < of, "{label}: every negative gradient vanished");
        }

        for pool in [None, Some(&pool)] {
            let label = format!("{label}, pooled {}", pool.is_some());
            let mut stepped = fresh();
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, cfg.dim);
            let mut shards = [ShardGrad::new(cfg.dim)];
            let mut scratch = StepScratch::default();
            for step in 0..2 {
                let mut rng = StdRng::seed_from_u64(step);
                trainer.step(
                    &mut stepped,
                    loss.as_ref(),
                    batch,
                    &mut grads,
                    &mut shards,
                    &mut scratch,
                    hyper,
                    &mut rng,
                    pool,
                );
            }
            assert_eq!(stepped.touched, oracle.touched, "{label}: touched rows, in order");
            if !in_batch {
                assert_eq!(bits(stepped.user_factors()), bits(oracle.user_factors()), "{label}");
                assert_eq!(bits(stepped.item_factors()), bits(oracle.item_factors()), "{label}");
                continue;
            }
            let (got, want) = (&stepped.grads[0], &oracle.grads[0]);
            let ((du, su), (di, si)) = (max_diff(&got.0, &want.0), max_diff(&got.1, &want.1));
            let scale = su.max(si);
            assert!(
                du.max(di) <= IN_BATCH_TOL * scale,
                "{label}: gradients {du} / {di} off the oracle, of {scale}"
            );
            for (side, got, want) in [
                ("users", stepped.user_factors(), oracle.user_factors()),
                ("items", stepped.item_factors(), oracle.item_factors()),
            ] {
                let (diff, _) = max_diff(got.as_slice(), want.as_slice());
                assert!(diff <= IN_BATCH_TOL, "{label}: {side} moved {diff} off the oracle");
            }
        }
    }

    #[test]
    fn table_step_replays_the_per_occurrence_step_bit_for_bit() {
        let (b, m) = (4usize, 5usize);
        let same_id = vec![7u32; b * m];
        let all_distinct: Vec<u32> = (0..(b * m) as u32).map(|k| (k * 7 + 2) % 50).collect();
        let mixed: Vec<u32> = (0..(b * m) as u32).map(|k| (k * k + 3) % 11).collect();
        let cases = [
            (same_id, 0.2f32, false),
            (all_distinct.clone(), 0.2, false),
            (mixed.clone(), 0.2, false),
            (all_distinct, 0.001, true),
            (mixed, 0.001, true),
        ];
        for (negs, tau2, want_zeros) in cases {
            let batch = TrainBatch { users: vec![3, 9, 3, 20], pos: vec![1, 7, 12, 7], negs, m };
            let bsl = LossConfig::Bsl { tau1: 0.3, tau2 };
            assert_steps_replay_the_oracle(&batch, SamplingConfig::Uniform, bsl, want_zeros);
        }
    }

    #[test]
    fn in_batch_step_matches_the_per_occurrence_step_within_tolerance() {
        // Items 7 and 12 are each two rows' positive: two columns of a row
        // write to one gradient row, and a row's own positive is also one of
        // its negatives. The sampler's one draw per row is discarded.
        let users = vec![3, 9, 3, 20, 11, 9];
        let pos = vec![1, 7, 12, 7, 30, 12];
        let batch = TrainBatch { negs: vec![0; users.len()], users, pos, m: 1 };
        for (tau2, want_zeros) in [(0.2f32, false), (0.001, true)] {
            let bsl = LossConfig::Bsl { tau1: 0.3, tau2 };
            assert_steps_replay_the_oracle(&batch, SamplingConfig::InBatch, bsl, want_zeros);
        }
    }

    /// BSL's τ1/τ2 analysis lives at the temperature extremes: on a
    /// B = 64 in-batch step, every (τ1, τ2) pair of {1e-3, 0.05, 1, 10}
    /// gives a finite loss and finite gradient rows. At τ2 = 1e-3 most of
    /// `G`'s off-diagonal entries are exact zeros, and the step still sits
    /// within the oracle's tolerance.
    #[test]
    fn in_batch_step_is_finite_at_the_temperature_extremes() {
        let ds = tiny();
        let sampler = UniformSampler::new(ds.clone());
        let batch = BatchIter::new(&ds, &sampler, 64, 1, 0).next().expect("a first batch");
        assert_eq!(batch.len(), 64);
        let taus = [1e-3f32, 0.05, 1.0, 10.0];
        for (tau1, tau2) in taus.iter().flat_map(|&t1| taus.map(|t2| (t1, t2))) {
            let cfg = TrainConfig {
                loss: LossConfig::Bsl { tau1, tau2 },
                sampling: SamplingConfig::InBatch,
                batch_size: 64,
                ..TrainConfig::smoke()
            };
            let mut backbone = Recording::new(build_backbone(cfg.backbone, &ds, cfg.dim, 5));
            let (l, _) = Trainer::new(cfg).step(
                &mut backbone,
                build_loss(cfg.loss).as_ref(),
                &batch,
                &mut GradBuffer::new(ds.n_users, ds.n_items, cfg.dim),
                &mut [],
                &mut StepScratch::default(),
                Hyper { lr: cfg.lr, l2: cfg.l2 },
                &mut StdRng::seed_from_u64(1),
                None,
            );
            assert!(l.is_finite(), "τ1 {tau1}, τ2 {tau2}: loss {l}");
            let (users, items) = &backbone.grads[0];
            assert!(
                users.iter().chain(items).all(|g| g.is_finite()),
                "τ1 {tau1}, τ2 {tau2}: a non-finite gradient row"
            );
        }
        for tau1 in taus {
            let bsl = LossConfig::Bsl { tau1, tau2: 1e-3 };
            assert_steps_replay_the_oracle(&batch, SamplingConfig::InBatch, bsl, true);
        }
    }

    /// The sampled twin of the in-batch test above: on a B = 64, m = 16
    /// step at every (τ1, τ2) pair of {1e-3, 10}, MF with BSL and with SL
    /// and CML (distance scores) with BSL give a finite loss and finite
    /// gradient rows, and BSL's positive-side weights over the step's own
    /// scores sum to 1 within 1e-6.
    #[test]
    fn sampled_step_is_finite_at_the_temperature_extremes() {
        let ds = tiny();
        let sampler = UniformSampler::new(ds.clone());
        let m = 16;
        let batch = BatchIter::new(&ds, &sampler, 64, m, 0).next().expect("a first batch");
        let b = batch.len();
        assert_eq!(b, 64);
        let taus = [1e-3f32, 10.0];
        for (tau1, tau2) in taus.iter().flat_map(|&t1| taus.map(|t2| (t1, t2))) {
            let bsl = LossConfig::Bsl { tau1, tau2 };
            let cases = [
                (BackboneConfig::Mf, bsl),
                (BackboneConfig::Mf, LossConfig::Sl { tau: tau2 }),
                (BackboneConfig::Cml, bsl),
            ];
            for (backbone, loss) in cases {
                let label = format!("{backbone:?}, {loss:?}");
                let cfg = TrainConfig {
                    backbone,
                    loss,
                    batch_size: b,
                    negatives: m,
                    ..TrainConfig::smoke()
                };
                let mut stepped = Recording::new(build_backbone(cfg.backbone, &ds, cfg.dim, 5));
                let mut scratch = StepScratch::default();
                let (l, _) = Trainer::new(cfg).step(
                    &mut stepped,
                    build_loss(cfg.loss).as_ref(),
                    &batch,
                    &mut GradBuffer::new(ds.n_users, ds.n_items, cfg.dim),
                    &mut [],
                    &mut scratch,
                    Hyper { lr: cfg.lr, l2: cfg.l2 },
                    &mut StdRng::seed_from_u64(1),
                    None,
                );
                assert!(l.is_finite(), "{label}: loss {l}");
                let (users, items) = &stepped.grads[0];
                assert!(
                    users.iter().chain(items).all(|g| g.is_finite()),
                    "{label}: a non-finite gradient row"
                );
                if loss == bsl {
                    let (pos, neg) = (&scratch.pos_scores[..b], &scratch.neg_scores[..b * m]);
                    let (_, w) = Bsl::new(tau1, tau2).row_weights(&ScoreBatch::new(pos, neg, m));
                    let sum: f64 = w.iter().map(|&x| f64::from(x)).sum();
                    assert!((sum - 1.0).abs() <= 1e-6, "{label}: weights sum to {sum}");
                }
            }
        }
    }

    #[test]
    fn negative_table_is_bounded_and_stops_growing_after_the_first_full_batch() {
        let ds = tiny();
        // Below and above the catalogue size (50 items): B·m = 32 and 512.
        for (batch_size, m) in [(8usize, 4usize), (32, 16)] {
            let cfg = TrainConfig { batch_size, negatives: m, ..TrainConfig::smoke() };
            let bound = (batch_size * m).min(ds.n_items) * cfg.dim;
            let loss = build_loss(cfg.loss);
            let hyper = Hyper { lr: cfg.lr, l2: cfg.l2 };
            let mut backbone = build_backbone(cfg.backbone, &ds, cfg.dim, cfg.seed);
            let mut grads = GradBuffer::new(ds.n_users, ds.n_items, cfg.dim);
            let mut scratch = StepScratch::default();
            let mut rng = StdRng::seed_from_u64(1);
            let trainer = Trainer::new(cfg);
            let sampler = UniformSampler::new(ds.clone());
            let mut after_first: Option<[usize; 5]> = None;
            // Each epoch ends in a partial batch; the first batch is full.
            for epoch in 0..2 {
                for batch in BatchIter::new(&ds, &sampler, batch_size, m, epoch) {
                    trainer.step(
                        backbone.as_mut(),
                        loss.as_ref(),
                        &batch,
                        &mut grads,
                        &mut [],
                        &mut scratch,
                        hyper,
                        &mut rng,
                        None,
                    );
                    assert!(scratch.slot_of_item.iter().all(|&s| s == u32::MAX));
                    let sizes = [
                        scratch.neg_hat.capacity(),
                        scratch.neg_norms.capacity(),
                        scratch.uniq.capacity(),
                        scratch.neg_slot.capacity(),
                        scratch.slot_of_item.capacity(),
                    ];
                    assert_eq!(*after_first.get_or_insert(sizes), sizes, "scratch grew");
                    assert_eq!(scratch.neg_hat.len(), bound);
                }
            }
        }
    }

    /// Steps a fresh `cfg` backbone through seed 3's first epoch of batches,
    /// inline or on `pool`: per-step loss bits, then user and item
    /// embedding bits.
    fn replay_steps(
        cfg: TrainConfig,
        ds: &Arc<Dataset>,
        pool: Option<&WorkerPool>,
    ) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
        let m = if cfg.sampling == SamplingConfig::InBatch { 1 } else { cfg.negatives };
        let sampler = UniformSampler::new(ds.clone());
        let batches: Vec<TrainBatch> = BatchIter::new(ds, &sampler, cfg.batch_size, m, 3).collect();
        assert!(batches.len() >= 2, "the second step reuses scratch and shards");
        let loss = build_loss(cfg.loss);
        let hyper = Hyper { lr: cfg.lr, l2: cfg.l2 };
        let mut backbone = build_backbone(cfg.backbone, ds, cfg.dim, cfg.seed);
        let mut grads = GradBuffer::new(ds.n_users, ds.n_items, cfg.dim);
        let n_shards = pool.map_or(1, WorkerPool::n_workers);
        let mut shards: Vec<ShardGrad> = (0..n_shards).map(|_| ShardGrad::new(cfg.dim)).collect();
        let mut scratch = StepScratch::default();
        let mut rng = StdRng::seed_from_u64(7);
        let trainer = Trainer::new(cfg);
        let mut losses = Vec::new();
        for batch in &batches {
            backbone.forward_on(&mut rng, pool);
            let (l, _) = trainer.step(
                backbone.as_mut(),
                loss.as_ref(),
                batch,
                &mut grads,
                &mut shards,
                &mut scratch,
                hyper,
                &mut rng,
                pool,
            );
            losses.push(l.to_bits());
        }
        (losses, bits(backbone.user_factors()), bits(backbone.item_factors()))
    }

    #[test]
    fn pooled_step_with_one_chunk_replays_the_inline_step_bit_for_bit() {
        // "Serial is the one-chunk case": a one-worker pool with one shard
        // runs the same rows in the same order as the inline arm, through
        // a `ShardGrad` and a merge instead of straight into `grads`. The
        // in-batch step has the inline bits on two and three workers too:
        // both passes by the GEMM contract, the loss stage because each
        // row's row phase and factor are computed alone.
        let ds = tiny();
        let bsl = LossConfig::Bsl { tau1: 0.3, tau2: 0.15 };
        let base = TrainConfig { l2: 1e-3, ..TrainConfig::smoke() }; // a wrongly touched row moves
        let in_batch = TrainConfig { sampling: SamplingConfig::InBatch, batch_size: 64, ..base };
        let cases = [
            (TrainConfig { loss: bsl, ..base }, &[1][..]),
            (in_batch, &[1, 2, 3]),
            (TrainConfig { loss: bsl, ..in_batch }, &[1, 2, 3]),
            (
                TrainConfig {
                    backbone: BackboneConfig::Cml,
                    loss: LossConfig::Hinge { margin: 0.5 },
                    ..base
                },
                &[1],
            ),
        ];
        for (cfg, workers) in cases {
            let inline = replay_steps(cfg, &ds, None);
            for &n in workers {
                let label = format!("{} {:?} on {n} workers", cfg.label(), cfg.sampling);
                let pooled = replay_steps(cfg, &ds, Some(&WorkerPool::new(n)));
                assert_eq!(inline.0, pooled.0, "{label}: per-step loss");
                assert_eq!(inline.1, pooled.1, "{label}: users");
                assert_eq!(inline.2, pooled.2, "{label}: items");
            }
        }
    }

    #[test]
    #[should_panic(expected = "in-batch sampling needs a cosine-scored backbone, got CML")]
    fn in_batch_sampling_rejects_a_distance_scored_backbone() {
        let cfg = TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            sampling: SamplingConfig::InBatch,
            ..TrainConfig::smoke()
        };
        Trainer::new(cfg).fit(&tiny());
    }

    /// Step 0 scores finite embeddings; its NaN-lr update poisons them, so
    /// step 1 is the first to see a NaN score.
    #[test]
    #[should_panic(expected = "non-finite BSL loss NaN at epoch 0, batch 1")]
    fn a_non_finite_step_loss_stops_the_run_naming_the_step() {
        let cfg = TrainConfig {
            loss: LossConfig::Bsl { tau1: 0.3, tau2: 0.15 },
            batch_size: 64,
            lr: f32::NAN,
            ..TrainConfig::smoke()
        };
        Trainer::new(cfg).fit(&tiny());
    }

    #[test]
    fn parallel_trainer_is_deterministic_per_thread_count() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, threads: 3, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
        assert_eq!(a.best.ndcg(20), b.best.ndcg(20));
    }

    #[test]
    fn sharded_step_matches_serial_math_on_identical_batches() {
        // With a single batch per epoch, every batch index maps to shard 0,
        // whose RNG stream continues the shuffle stream — i.e. the sampled
        // negatives are *identical* to the serial iterator's (and in-batch
        // ones are the batch itself). Any remaining sampled difference is
        // purely the sharded step's f32 reduction order; the in-batch step
        // computes every element in one order at any thread count, so it
        // must agree exactly.
        let ds = tiny();
        for (sampling, threads) in [(SamplingConfig::Uniform, 4), (SamplingConfig::InBatch, 2)] {
            let one_batch = TrainConfig {
                sampling,
                epochs: 3,
                batch_size: 100_000, // the whole epoch in one batch
                ..TrainConfig::smoke()
            };
            let serial = Trainer::new(TrainConfig { threads: 1, ..one_batch }).fit(&ds);
            let sharded = Trainer::new(TrainConfig { threads, ..one_batch }).fit(&ds);
            if sampling == SamplingConfig::InBatch {
                let losses = |out: &TrainOutcome| -> Vec<u64> {
                    out.history.iter().map(|e| e.loss.to_bits()).collect()
                };
                assert_eq!(losses(&serial), losses(&sharded), "in-batch epoch losses");
                assert_eq!(bits(&serial.user_emb), bits(&sharded.user_emb), "in-batch users");
                assert_eq!(bits(&serial.item_emb), bits(&sharded.item_emb), "in-batch items");
                continue;
            }
            for (epoch_s, epoch_p) in serial.history.iter().zip(sharded.history.iter()) {
                assert!(
                    (epoch_s.loss - epoch_p.loss).abs() < 1e-4 * (1.0 + epoch_s.loss.abs()),
                    "{sampling:?}: epoch {} loss {} vs {}",
                    epoch_s.epoch,
                    epoch_s.loss,
                    epoch_p.loss
                );
            }
            let max_diff = serial
                .user_emb
                .as_slice()
                .iter()
                .zip(sharded.user_emb.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff < 1e-3,
                "{sampling:?}: embeddings drifted {max_diff} beyond f32 reduction noise"
            );
        }
    }

    #[test]
    fn parallel_ndcg_within_tolerance_of_serial() {
        // Different shard counts run different negative-sampling streams,
        // so metrics move like a seed change — bounded, not bit-equal.
        let ds = tiny();
        let cfg = TrainConfig { epochs: 12, ..TrainConfig::smoke() };
        let serial = Trainer::new(TrainConfig { threads: 1, ..cfg }).fit(&ds);
        let parallel = Trainer::new(TrainConfig { threads: 4, ..cfg }).fit(&ds);
        let chance = random_baseline(&ds);
        assert!(parallel.best.ndcg(20) > chance * 2.0, "parallel run failed to learn");
        let gap = (serial.best.ndcg(20) - parallel.best.ndcg(20)).abs();
        assert!(
            gap < 0.15,
            "serial {:.4} vs parallel {:.4} NDCG@20 gap {gap:.4}",
            serial.best.ndcg(20),
            parallel.best.ndcg(20)
        );
    }

    #[test]
    fn parallel_in_batch_sampling_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::InBatch,
            batch_size: 64,
            epochs: 10,
            threads: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn parallel_cml_path_trains() {
        // Exercises the NegSqDist branch of the sharded step.
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            epochs: 6,
            lr: 0.05,
            threads: 2,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
        assert!(out.best.ndcg(20) > 0.0);
    }

    #[test]
    fn auto_threads_runs() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 2, threads: 0, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }

    #[test]
    fn early_stopping_can_truncate() {
        let ds = tiny();
        let cfg = TrainConfig {
            epochs: 40,
            eval_every: 1,
            patience: 2,
            lr: 0.1, // aggressive LR so NDCG plateaus/oscillates early
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.history.len() <= 40);
        assert!(!out.eval_history.is_empty());
    }

    #[test]
    fn evaluate_on_matches_best_report() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        let re = out.evaluate_on(&ds, &[20]);
        assert!((re.ndcg(20) - out.best.ndcg(20)).abs() < 1e-12);
    }

    #[test]
    fn noisy_sampling_config_runs() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::Noisy { r_noise: 2.0 },
            epochs: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }

    #[test]
    fn popularity_sampling_config_runs() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::Popularity { alpha: 1.0 },
            epochs: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }
}
