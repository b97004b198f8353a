//! IVF-flat coarse quantizer over a prepared item table.
//!
//! An [`IvfIndex`] partitions the catalogue into `nlist` inverted lists by
//! k-means on the artifact's *prepared* rows (unit-norm for cosine
//! backbones, distance-augmented for CML — so Euclidean clustering is the
//! right geometry for the dot products retrieval actually runs). A query
//! probes the `nprobe` lists whose centroids score highest and rescores
//! only their members with the exact blocked kernel — O(nlist +
//! n·nprobe/nlist) work instead of O(n) per request.
//!
//! Invariants (enforced by [`IvfIndex::from_parts`], the codec's entry
//! point, and property-tested below):
//!
//! * `list_offsets` is monotone, starts at 0, ends at `n_items`;
//! * the concatenated lists are a **partition** of `0..n_items` — every
//!   item in exactly one list, each list sorted ascending (so probing all
//!   lists enumerates every candidate exactly once);
//! * `centroids` is `nlist × dim` with finite entries.
//!
//! Construction is deterministic: k-means++ seeding and Lloyd iterations
//! run on a fixed-seed RNG, so the same table always builds the same
//! index (and the codec round-trips it bit for bit). The Lloyd
//! assignments and mean updates run on a call-local [`WorkerPool`], and
//! every score, argmax and sum sees the same operands in the same order
//! on any number of lanes, so the index does not depend on the host's
//! lane count either.

use bsl_linalg::pool::{host_workers, Job, WorkerPool};
use bsl_linalg::simd::{dot, scores_block, scores_block_multi, sq_dist};
use bsl_linalg::topk::select_scored_into;
use bsl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// Lloyd iterations after seeding (k-means converges fast on embedding
/// tables; recall is insensitive to a few extra refinements).
const KMEANS_ITERS: usize = 10;

/// An IVF-flat index: `nlist` k-means centroids plus inverted lists in
/// CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct IvfIndex {
    centroids: Matrix,
    /// CSR offsets: list `l` is `list_items[list_offsets[l] ..
    /// list_offsets[l + 1]]`.
    list_offsets: Vec<usize>,
    /// Concatenated inverted lists (a permutation of `0..n_items`; each
    /// list sorted ascending).
    list_items: Vec<u32>,
}

/// Reusable probe scratch: centroid scores, the identity id table the
/// selector walks, and the selected `(list, score)` pairs. One per
/// thread (inside `bsl-serve`'s `ServeScratch`) — probing allocates
/// nothing once warm.
#[derive(Default)]
pub struct ProbeScratch {
    centroid_scores: Vec<f32>,
    list_ids: Vec<u32>,
    lists: Vec<(u32, f32)>,
}

impl IvfIndex {
    /// The default list count for an `n_items` catalogue: `√n`, the
    /// classic IVF balance point (probe cost ≈ list-scan cost).
    pub fn default_nlist(n_items: usize) -> usize {
        ((n_items as f64).sqrt().round() as usize).clamp(1, n_items.max(1))
    }

    /// The default probe width: a quarter of the lists — empirically past
    /// 0.95 recall@10 on trained artifacts (see `tests/retrieval.rs`)
    /// while skipping ~¾ of the catalogue.
    pub fn default_nprobe(&self) -> usize {
        (self.nlist() / 4).max(1)
    }

    /// Builds an index over `items` (one prepared row per catalogue item)
    /// with `nlist` lists, deterministically.
    ///
    /// The Lloyd rounds run on a call-local [`WorkerPool`] of
    /// [`host_workers`] lanes (the calling thread is lane 0); the index
    /// does not depend on how many.
    ///
    /// # Panics
    /// Panics if `items` is empty or `nlist` is 0 or exceeds the row count.
    pub fn build(items: &Matrix, nlist: usize) -> Self {
        Self::build_on(items, nlist, &WorkerPool::new(host_workers()))
    }

    /// [`IvfIndex::build`] on the lanes of `pool`. Each Lloyd assignment
    /// and each mean update is one round in which the lanes claim chunks
    /// of items ([`ITEM_CHUNK`]) or centroids ([`CENTROID_CHUNK`]) until
    /// none is left, and a centroid's mean adds its members in ascending
    /// id order: every operand meets the same others in the same order at
    /// any lane count.
    fn build_on(items: &Matrix, nlist: usize, pool: &WorkerPool) -> Self {
        let (n, d) = items.shape();
        assert!(n > 0, "cannot index an empty catalogue");
        assert!(nlist >= 1 && nlist <= n, "nlist must be in 1..=n_items (got {nlist} for {n})");
        let mut rng = StdRng::seed_from_u64(0x1f0f_5eed);
        let mut centroids = kmeans_pp_init(items, nlist, &mut rng);
        let mut assign = vec![0u32; n];
        let mut scratch: Vec<Lane> = (0..pool.n_workers())
            .map(|_| Lane { scores: vec![0.0; GROUP * nlist], moved: false })
            .collect();
        let mut half_norms = vec![0.0f32; nlist];
        let mut list_offsets = vec![0usize; nlist + 1];
        let mut list_items = vec![0u32; n];
        for _ in 0..KMEANS_ITERS {
            // Assignment: nearest centroid in Euclidean distance, via the
            // blocked dot kernel (argmin ‖x−c‖² = argmax <x,c> − ‖c‖²/2).
            for (l, h) in half_norms.iter_mut().enumerate() {
                let c = centroids.row(l);
                *h = 0.5 * dot(c, c);
            }
            scratch.iter_mut().for_each(|lane| lane.moved = false);
            let (table, half_norms) = (centroids.as_slice(), &half_norms[..]);
            round(pool, &mut assign, ITEM_CHUNK, &mut scratch, |start, assign, lane| {
                lane.moved |= assign_nearest(items, start, table, half_norms, assign, lane);
            });
            let moved = scratch.iter().any(|lane| lane.moved);
            fix_empty_lists(items, &centroids, &mut assign, nlist);
            if !moved {
                break;
            }
            // Update: each centroid becomes its members' mean.
            fill_lists(&assign, &mut list_offsets, &mut list_items);
            let (offsets, members) = (&list_offsets[..], &list_items[..]);
            let table = centroids.as_mut_slice();
            round(pool, table, CENTROID_CHUNK * d, &mut scratch, |start, rows, _| {
                for (l, row) in (start / d..).zip(rows.chunks_exact_mut(d)) {
                    mean_into(items, &members[offsets[l]..offsets[l + 1]], row);
                }
            });
        }
        // Inverted lists in CSR form; ascending ids inside each list.
        fill_lists(&assign, &mut list_offsets, &mut list_items);
        Self { centroids, list_offsets, list_items }
    }

    /// Rebuilds an index from stored parts, validating every structural
    /// invariant (the codec calls this before trusting decoded bytes).
    pub fn from_parts(
        centroids: Matrix,
        list_offsets: Vec<usize>,
        list_items: Vec<u32>,
    ) -> Result<Self, &'static str> {
        let nlist = centroids.rows();
        if nlist == 0 {
            return Err("index has zero lists");
        }
        if centroids.as_slice().iter().any(|x| !x.is_finite()) {
            return Err("non-finite centroid");
        }
        if list_offsets.len() != nlist + 1 {
            return Err("offset table length != nlist + 1");
        }
        if list_offsets[0] != 0 || *list_offsets.last().expect("non-empty") != list_items.len() {
            return Err("offset table does not span the item list");
        }
        if list_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset table is not monotone");
        }
        let n = list_items.len();
        let mut seen = vec![false; n];
        for w in list_offsets.windows(2) {
            let list = &list_items[w[0]..w[1]];
            if list.windows(2).any(|p| p[0] >= p[1]) {
                return Err("inverted list not strictly ascending");
            }
            for &i in list {
                let i = i as usize;
                if i >= n {
                    return Err("inverted list item out of range");
                }
                if seen[i] {
                    return Err("item appears in two lists");
                }
                seen[i] = true;
            }
        }
        // seen is all-true here: n ids were inserted without duplicates.
        Ok(Self { centroids, list_offsets, list_items })
    }

    /// Number of inverted lists.
    #[inline]
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Number of indexed items.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.list_items.len()
    }

    /// Width of the indexed rows.
    #[inline]
    pub fn dim(&self) -> usize {
        self.centroids.cols()
    }

    /// The centroid table (`nlist × dim`).
    #[inline]
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// The CSR offsets of the inverted lists.
    #[inline]
    pub fn list_offsets(&self) -> &[usize] {
        &self.list_offsets
    }

    /// The concatenated inverted lists.
    #[inline]
    pub fn list_items(&self) -> &[u32] {
        &self.list_items
    }

    /// The members of list `l` (ascending item ids).
    #[inline]
    pub fn list(&self, l: usize) -> &[u32] {
        &self.list_items[self.list_offsets[l]..self.list_offsets[l + 1]]
    }

    /// Appends the candidate items of the `nprobe` best-scoring lists for
    /// query `q` into `candidates` (cleared first; probed-list order, ties
    /// between equal centroid scores toward the smaller list id).
    ///
    /// # Panics
    /// Panics if `q.len() != dim`.
    pub fn probe_into(
        &self,
        q: &[f32],
        nprobe: usize,
        scratch: &mut ProbeScratch,
        candidates: &mut Vec<u32>,
    ) {
        assert_eq!(q.len(), self.dim(), "query width != index dim");
        candidates.clear();
        let nprobe = nprobe.clamp(1, self.nlist());
        scratch.centroid_scores.resize(self.nlist(), 0.0);
        scores_block(q, self.centroids.as_slice(), &mut scratch.centroid_scores);
        if scratch.list_ids.len() != self.nlist() {
            scratch.list_ids = (0..self.nlist() as u32).collect();
        }
        select_scored_into(
            &scratch.centroid_scores,
            &scratch.list_ids,
            nprobe,
            |_| false,
            &mut scratch.lists,
        );
        for &(l, _) in &scratch.lists {
            candidates.extend_from_slice(self.list(l as usize));
        }
    }
}

/// Items scored in one pass over the centroids: the query count of
/// [`scores_block_multi`]'s register tile.
const GROUP: usize = 4;

/// Items a lane claims at a time in an assignment round: a multiple of
/// [`GROUP`], and about a third of a millisecond of scoring at 195 lists.
const ITEM_CHUNK: usize = 64 * GROUP;

/// Centroids a lane claims at a time in a mean-update round.
const CENTROID_CHUNK: usize = 8;

/// One lane's assignment buffers, made once per build.
struct Lane {
    /// A group's centroid scores, one run of `nlist` per item.
    scores: Vec<f32>,
    /// Whether the lane moved an item in the current assignment round.
    moved: bool,
}

/// Runs `f(start, chunk, lane)` as one `pool` round over `data` cut into
/// chunks of `chunk` elements (`start` is the chunk's first element).
/// Every lane claims the next unclaimed chunk until none is left, so a
/// lane that starts late, or runs on a CPU it shares, leaves its share to
/// the others instead of holding up the round.
fn round<T: Send, S: Send>(
    pool: &WorkerPool,
    data: &mut [T],
    chunk: usize,
    lanes: &mut [S],
    f: impl Fn(usize, &mut [T], &mut S) + Sync,
) {
    let chunks = Mutex::new(data.chunks_mut(chunk).enumerate());
    let (chunks, f) = (&chunks, &f);
    let jobs: Vec<Job> = lanes
        .iter_mut()
        .map(|lane| {
            Box::new(move || {
                while let Some((k, data)) = claim(chunks) {
                    f(k * chunk, data, lane);
                }
            }) as Job
        })
        .collect();
    pool.run(jobs);
}

/// The next item of a shared iterator; the lock is released on return.
fn claim<I: Iterator>(it: &Mutex<I>) -> Option<I::Item> {
    it.lock().unwrap_or_else(PoisonError::into_inner).next()
}

/// Assigns items `start..start + assign.len()` to their nearest
/// centroid, [`GROUP`] items per pass over `centroids`; whether any
/// assignment changed. Ties go to the smaller list id.
fn assign_nearest(
    items: &Matrix,
    start: usize,
    centroids: &[f32],
    half_norms: &[f32],
    assign: &mut [u32],
    lane: &mut Lane,
) -> bool {
    let nlist = half_norms.len();
    let mut moved = false;
    for (first, group) in (start..).step_by(GROUP).zip(assign.chunks_mut(GROUP)) {
        let mut qs: [&[f32]; GROUP] = [&[]; GROUP];
        for (i, q) in (first..).zip(&mut qs[..group.len()]) {
            *q = items.row(i);
        }
        let scores = &mut lane.scores[..group.len() * nlist];
        scores_block_multi(&qs[..group.len()], centroids, scores);
        for (a, scores) in group.iter_mut().zip(scores.chunks_exact(nlist)) {
            let mut best = 0usize;
            let mut best_s = f32::NEG_INFINITY;
            for (l, (&s, &h)) in scores.iter().zip(half_norms).enumerate() {
                let s = s - h;
                if s > best_s {
                    best_s = s;
                    best = l;
                }
            }
            if *a != best as u32 {
                *a = best as u32;
                moved = true;
            }
        }
    }
    moved
}

/// Writes the mean of the `members` rows into `row`, summing them in the
/// given order; an empty list leaves `row` as it is.
fn mean_into(items: &Matrix, members: &[u32], row: &mut [f32]) {
    if members.is_empty() {
        return;
    }
    row.fill(0.0);
    for &i in members {
        for (s, &x) in row.iter_mut().zip(items.row(i as usize)) {
            *s += x;
        }
    }
    let inv = 1.0 / members.len() as f32;
    for s in row.iter_mut() {
        *s *= inv;
    }
}

/// Groups the items by list in CSR form: `offsets` (`nlist + 1` long)
/// and `members` (one entry per item), ascending ids inside each list.
fn fill_lists(assign: &[u32], offsets: &mut [usize], members: &mut [u32]) {
    offsets.fill(0);
    for &a in assign {
        offsets[a as usize + 1] += 1;
    }
    for l in 1..offsets.len() {
        offsets[l] += offsets[l - 1];
    }
    let mut cursor = offsets.to_vec();
    for (i, &a) in assign.iter().enumerate() {
        members[cursor[a as usize]] = i as u32;
        cursor[a as usize] += 1;
    }
}

/// k-means++ seeding: first centroid uniform, the rest D²-weighted. It
/// stays on the calling thread: each centroid's pick needs the previous
/// one's distances, so a pooled form would take `nlist` rounds of a
/// fraction of a millisecond each, and a round waits for its slowest lane.
fn kmeans_pp_init(items: &Matrix, nlist: usize, rng: &mut StdRng) -> Matrix {
    let (n, d) = items.shape();
    let mut centroids = Matrix::zeros(nlist, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(items.row(first));
    // d2[i] = distance to the nearest chosen centroid so far; `total` is
    // their f64 sum in item order, taken in the same pass.
    let mut d2 = vec![0.0f32; n];
    let mut total = 0.0f64;
    for (i, x) in d2.iter_mut().enumerate() {
        *x = sq_dist(items.row(i), centroids.row(0));
        total += *x as f64;
    }
    for c in 1..nlist {
        let pick = if total > 0.0 {
            let mut t = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &x) in d2.iter().enumerate() {
                t -= x as f64;
                if t <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        } else {
            // Degenerate table (all rows identical): spread uniformly.
            rng.gen_range(0..n)
        };
        centroids.row_mut(c).copy_from_slice(items.row(pick));
        total = 0.0;
        for (i, x) in d2.iter_mut().enumerate() {
            *x = x.min(sq_dist(items.row(i), centroids.row(c)));
            total += *x as f64;
        }
    }
    centroids
}

/// Reassigns the farthest-from-home items into any empty lists so every
/// centroid keeps at least one member (deterministic: scans in id order).
fn fix_empty_lists(items: &Matrix, centroids: &Matrix, assign: &mut [u32], nlist: usize) {
    let mut counts = vec![0usize; nlist];
    for &a in assign.iter() {
        counts[a as usize] += 1;
    }
    for l in 0..nlist {
        if counts[l] > 0 {
            continue;
        }
        // Steal the item farthest from its current centroid, from a list
        // that can spare one.
        let mut worst: Option<(usize, f32)> = None;
        for (i, &a) in assign.iter().enumerate() {
            if counts[a as usize] <= 1 {
                continue;
            }
            let dist = sq_dist(items.row(i), centroids.row(a as usize));
            if worst.is_none_or(|(_, w)| dist > w) {
                worst = Some((i, dist));
            }
        }
        if let Some((i, _)) = worst {
            counts[assign[i] as usize] -= 1;
            assign[i] = l as u32;
            counts[l] = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::gaussian(n, d, 1.0, &mut rng)
    }

    #[test]
    fn lists_partition_the_catalogue() {
        let items = table(200, 9, 3);
        let idx = IvfIndex::build(&items, 14);
        assert_eq!(idx.nlist(), 14);
        assert_eq!(idx.n_items(), 200);
        let mut seen = [false; 200];
        for l in 0..idx.nlist() {
            let list = idx.list(l);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list {l} not ascending");
            for &i in list {
                assert!(!seen[i as usize], "item {i} in two lists");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some item in no list");
    }

    #[test]
    fn build_is_deterministic() {
        let items = table(120, 7, 9);
        assert_eq!(IvfIndex::build(&items, 10), IvfIndex::build(&items, 10));
    }

    #[test]
    fn no_list_is_empty() {
        // Heavily clustered data tempts k-means into empty lists.
        let items = Matrix::from_fn(64, 4, |r, c| if r < 60 { 0.0 } else { (r + c) as f32 });
        let idx = IvfIndex::build(&items, 8);
        for l in 0..idx.nlist() {
            assert!(!idx.list(l).is_empty(), "list {l} empty");
        }
    }

    #[test]
    fn probing_all_lists_yields_every_item() {
        let items = table(90, 6, 1);
        let idx = IvfIndex::build(&items, 9);
        let mut scratch = ProbeScratch::default();
        let mut cand = Vec::new();
        idx.probe_into(items.row(0), idx.nlist(), &mut scratch, &mut cand);
        assert_eq!(cand.len(), 90);
        let mut sorted = cand.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..90u32).collect::<Vec<_>>());
    }

    #[test]
    fn probe_prefers_the_query_home_list() {
        // Two obvious clusters; a query deep inside one must probe that
        // cluster's list first.
        let items = Matrix::from_fn(40, 2, |r, _| if r < 20 { 5.0 } else { -5.0 });
        let idx = IvfIndex::build(&items, 2);
        let mut scratch = ProbeScratch::default();
        let mut cand = Vec::new();
        idx.probe_into(&[5.0, 5.0], 1, &mut scratch, &mut cand);
        assert!(cand.contains(&0), "home cluster must be probed");
        assert!(!cand.contains(&39), "far cluster must not be probed at nprobe=1");
    }

    #[test]
    fn from_parts_validates_structure() {
        let items = table(30, 4, 5);
        let idx = IvfIndex::build(&items, 5);
        // A faithful rebuild passes.
        assert!(IvfIndex::from_parts(
            idx.centroids().clone(),
            idx.list_offsets().to_vec(),
            idx.list_items().to_vec(),
        )
        .is_ok());
        // Truncated item list.
        let short = idx.list_items()[..idx.n_items() - 1].to_vec();
        assert!(IvfIndex::from_parts(idx.centroids().clone(), idx.list_offsets().to_vec(), short)
            .is_err());
        // Duplicated item.
        let mut dup = idx.list_items().to_vec();
        dup[0] = dup[1];
        assert!(IvfIndex::from_parts(idx.centroids().clone(), idx.list_offsets().to_vec(), dup)
            .is_err());
        // Non-monotone offsets.
        let mut bad = idx.list_offsets().to_vec();
        bad[1] = bad[2] + 1;
        assert!(
            IvfIndex::from_parts(idx.centroids().clone(), bad, idx.list_items().to_vec()).is_err()
        );
        // Non-finite centroid.
        let mut c = idx.centroids().clone();
        c.set(0, 0, f32::NAN);
        assert!(IvfIndex::from_parts(c, idx.list_offsets().to_vec(), idx.list_items().to_vec())
            .is_err());
    }

    /// An index's centroid bits, offsets and list items.
    fn bits(idx: &IvfIndex) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        let centroids = idx.centroids().as_slice().iter().map(|c| c.to_bits()).collect();
        (centroids, idx.list_offsets().to_vec(), idx.list_items().to_vec())
    }

    /// FNV-1a 64 over [`bits`], little-endian, offsets as `u64`.
    fn fingerprint(idx: &IvfIndex) -> u64 {
        let (centroids, offsets, items) = bits(idx);
        let mut bytes = Vec::new();
        centroids.iter().for_each(|c| bytes.extend_from_slice(&c.to_le_bytes()));
        offsets.iter().for_each(|&o| bytes.extend_from_slice(&(o as u64).to_le_bytes()));
        items.iter().for_each(|i| bytes.extend_from_slice(&i.to_le_bytes()));
        crate::artifact::fnv1a64(&bytes)
    }

    #[test]
    fn pooled_builds_are_bit_equal_at_every_lane_count() {
        // Seven distinct rows for eight lists: an empty list is refilled.
        let duplicated =
            Matrix::from_fn(64, 4, |r, c| if r < 60 { (r % 3) as f32 } else { (r + c) as f32 });
        // Four far-apart clusters: Lloyd settles before its last pass.
        let clustered =
            Matrix::from_fn(80, 6, |r, c| (r % 4) as f32 * 10.0 + (r * c) as f32 * 1e-3);
        let cases = [
            (table(37, 5, 1), 6),    // n not a multiple of 4 · lanes
            (table(101, 64, 2), 11), // full 8-wide tiles, an odd list count
            (table(257, 33, 3), 16), // a masked tail in every score
            (table(7, 3, 4), 3),     // n < 4 · lanes: idle lanes
            (table(1, 5, 5), 1),     // one item
            (table(23, 16, 6), 1),   // nlist = 1
            (table(13, 9, 7), 13),   // nlist = n
            (duplicated, 8),
            (clustered, 4),
        ];
        let pools: Vec<WorkerPool> = (1..=3).map(WorkerPool::new).collect();
        for (items, nlist) in &cases {
            let want = bits(&IvfIndex::build_on(items, *nlist, &pools[0]));
            for pool in &pools[1..] {
                let got = bits(&IvfIndex::build_on(items, *nlist, pool));
                let lanes = pool.n_workers();
                assert!(got == want, "{:?} nlist {nlist}, {lanes} lanes", items.shape());
            }
        }
    }

    #[test]
    fn default_build_of_a_seeded_int8_artifact_keeps_its_fingerprint() {
        use crate::{EvalScore, ModelArtifact};
        use bsl_linalg::simd::{active, SimdLevel};
        let mut art = ModelArtifact::from_embeddings(
            "MF",
            &table(3, 40, 12),
            &table(3001, 40, 13),
            EvalScore::Cosine,
        )
        .quantize();
        art.build_default_ivf();
        let idx = art.index().expect("an index");
        assert_eq!(idx.nlist(), 55);
        let got = fingerprint(idx);
        let want = match active() {
            SimdLevel::Scalar => 0x9d1a_9d83_3023_dab6,
            SimdLevel::Portable => 0x82fa_0dfc_3f3d_7854,
            SimdLevel::Avx2Fma => 0xb275_6430_eff5_dd03,
        };
        assert_eq!(got, want, "index fingerprint {got:#018x} at {:?}", active());
    }

    #[test]
    fn default_parameters_are_sane() {
        assert_eq!(IvfIndex::default_nlist(0), 1);
        assert_eq!(IvfIndex::default_nlist(1), 1);
        assert_eq!(IvfIndex::default_nlist(800), 28);
        let items = table(100, 4, 2);
        let idx = IvfIndex::build(&items, IvfIndex::default_nlist(100));
        assert_eq!(idx.nlist(), 10);
        assert_eq!(idx.default_nprobe(), 2);
    }
}
