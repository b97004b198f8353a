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
//! index (and the codec round-trips it bit for bit).

use bsl_linalg::simd::{dot, scores_block};
use bsl_linalg::topk::select_scored_into;
use bsl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// # Panics
    /// Panics if `items` is empty or `nlist` is 0 or exceeds the row count.
    pub fn build(items: &Matrix, nlist: usize) -> Self {
        let (n, d) = items.shape();
        assert!(n > 0, "cannot index an empty catalogue");
        assert!(nlist >= 1 && nlist <= n, "nlist must be in 1..=n_items (got {nlist} for {n})");
        let mut rng = StdRng::seed_from_u64(0x1f0f_5eed);
        let mut centroids = kmeans_pp_init(items, nlist, &mut rng);
        let mut assign = vec![0u32; n];
        let mut scores = vec![0.0f32; nlist];
        let mut half_norms = vec![0.0f32; nlist];
        for _ in 0..KMEANS_ITERS {
            // Assignment: nearest centroid in Euclidean distance, via the
            // blocked dot kernel (argmin ‖x−c‖² = argmax <x,c> − ‖c‖²/2).
            for (l, h) in half_norms.iter_mut().enumerate() {
                let c = centroids.row(l);
                *h = 0.5 * dot(c, c);
            }
            let mut moved = false;
            for (i, a) in assign.iter_mut().enumerate() {
                scores_block(items.row(i), centroids.as_slice(), &mut scores);
                let mut best = 0usize;
                let mut best_s = f32::NEG_INFINITY;
                for (l, &s) in scores.iter().enumerate() {
                    let s = s - half_norms[l];
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
            fix_empty_lists(items, &centroids, &mut assign, nlist);
            if !moved {
                break;
            }
            // Update: each centroid becomes its members' mean.
            let mut counts = vec![0usize; nlist];
            let mut sums = Matrix::zeros(nlist, d);
            for (i, &a) in assign.iter().enumerate() {
                counts[a as usize] += 1;
                let row = sums.row_mut(a as usize);
                for (s, &x) in row.iter_mut().zip(items.row(i).iter()) {
                    *s += x;
                }
            }
            for (l, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    let (src, dst) = (sums.row(l), centroids.row_mut(l));
                    for (o, &s) in dst.iter_mut().zip(src.iter()) {
                        *o = s * inv;
                    }
                }
            }
        }
        // Inverted lists in CSR form; ascending ids inside each list
        // (items are visited in id order).
        let mut counts = vec![0usize; nlist];
        for &a in &assign {
            counts[a as usize] += 1;
        }
        let mut list_offsets = vec![0usize; nlist + 1];
        for l in 0..nlist {
            list_offsets[l + 1] = list_offsets[l] + counts[l];
        }
        let mut cursor = list_offsets.clone();
        let mut list_items = vec![0u32; n];
        for (i, &a) in assign.iter().enumerate() {
            list_items[cursor[a as usize]] = i as u32;
            cursor[a as usize] += 1;
        }
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

/// k-means++ seeding: first centroid uniform, the rest D²-weighted.
fn kmeans_pp_init(items: &Matrix, nlist: usize, rng: &mut StdRng) -> Matrix {
    use bsl_linalg::simd::sq_dist;
    let (n, d) = items.shape();
    let mut centroids = Matrix::zeros(nlist, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(items.row(first));
    // d2[i] = distance to the nearest chosen centroid so far.
    let mut d2: Vec<f32> = (0..n).map(|i| sq_dist(items.row(i), centroids.row(0))).collect();
    for c in 1..nlist {
        let total: f64 = d2.iter().map(|&x| x as f64).sum();
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
        for (i, x) in d2.iter_mut().enumerate() {
            *x = x.min(sq_dist(items.row(i), centroids.row(c)));
        }
    }
    centroids
}

/// Reassigns the farthest-from-home items into any empty lists so every
/// centroid keeps at least one member (deterministic: scans in id order).
fn fix_empty_lists(items: &Matrix, centroids: &Matrix, assign: &mut [u32], nlist: usize) {
    use bsl_linalg::simd::sq_dist;
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
            if worst.map_or(true, |(_, w)| dist > w) {
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
