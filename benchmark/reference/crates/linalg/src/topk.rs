//! Top-k selection for ranking evaluation.
//!
//! Full-ranking evaluation scores every item for a user and keeps the best
//! `k`; with |I| in the tens of thousands and k = 20 a bounded min-heap is
//! the right tool (O(|I| log k)).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `f32` wrapper with a total order (NaN sorts below everything, including
/// `-inf`), so scores can live in heaps and sorts without `partial_cmp`
/// unwraps and a NaN score can never win a ranking slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF32(pub f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> Ordering {
        fn key(x: f32) -> (u8, f32) {
            if x.is_nan() {
                (0, 0.0)
            } else {
                (1, x)
            }
        }
        let (ta, va) = key(self.0);
        let (tb, vb) = key(other.0);
        ta.cmp(&tb).then(va.total_cmp(&vb))
    }
}

/// A reusable top-k selector: the bounded min-heap and the sort scratch
/// survive across calls, so steady-state selection (one call per served
/// request or evaluated user) allocates nothing once warm.
///
/// [`top_k_masked`] is the one-shot convenience wrapper; `bsl-serve`'s
/// `Recommender` and `bsl-eval`'s ranking loop hold a `TopK` per
/// thread/instance.
#[derive(Default)]
pub struct TopK {
    // Min-heap of the current best k: BinaryHeap is a max-heap, so store
    // (Reverse(score), idx) — the top is then the smallest score and,
    // among tied smallest scores, the LARGEST index. That is exactly the
    // element "ties break toward the smaller index" wants evicted first
    // when a better score arrives.
    heap: BinaryHeap<(std::cmp::Reverse<OrdF32>, usize)>,
    sorted: Vec<(OrdF32, usize)>,
}

impl TopK {
    /// A fresh selector (equivalent to `TopK::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the indices of the `k` largest entries of `scores` into
    /// `out` (cleared first), ordered best to worst; ties break toward the
    /// smaller index. Entries whose index is flagged by `mask` (`true` =
    /// exclude) are skipped.
    pub fn select_masked_into(
        &mut self,
        scores: &[f32],
        k: usize,
        mask: impl Fn(usize) -> bool,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        self.heap.clear();
        for (i, &s) in scores.iter().enumerate() {
            if mask(i) {
                continue;
            }
            if self.heap.len() < k {
                self.heap.push((std::cmp::Reverse(OrdF32(s)), i));
            } else if let Some(&(std::cmp::Reverse(worst), wi)) = self.heap.peek() {
                // Strictly better score, or equal score with smaller index
                // (the latter cannot fire on this forward scan — i only
                // grows — but keeps the invariant explicit).
                let cand = OrdF32(s);
                if cand > worst || (cand == worst && i < wi) {
                    self.heap.pop();
                    self.heap.push((std::cmp::Reverse(cand), i));
                }
            }
        }
        self.sorted.clear();
        self.sorted.extend(self.heap.drain().map(|(std::cmp::Reverse(s), i)| (s, i)));
        // Best first; ties by ascending index.
        self.sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        out.extend(self.sorted.iter().map(|&(_, i)| i as u32));
    }
}

/// `(score, id)` comparison for [`select_scored_into`]: higher score wins,
/// equal scores break toward the smaller id (NaN loses to everything).
#[inline]
fn beats(s: f32, id: u32, ws: f32, wid: u32) -> bool {
    match OrdF32(s).cmp(&OrdF32(ws)) {
        Ordering::Greater => true,
        Ordering::Equal => id < wid,
        Ordering::Less => false,
    }
}

/// Writes the `k` best `(id, score)` pairs of a scored candidate list into
/// `out` (cleared first), best first; equal scores break toward the
/// *smaller id*. Candidates whose position is flagged by `mask` (`true` =
/// exclude) are skipped.
///
/// Because the tie-break is on the id **value** (not the scan position),
/// the result is independent of candidate order — IVF shortlists need no
/// sort before selection, and the outcome matches a full-catalogue
/// [`TopK`] scan restricted to the same candidates. `out` doubles as the
/// insertion buffer: for shortlist-sized inputs and small `k` the
/// maintain-a-sorted-prefix scan beats a heap (one branchy `f32` compare
/// rejects a losing candidate *before* the mask closure runs, so an
/// expensive mask — e.g. a seen-items binary search — is only paid for
/// potential winners).
///
/// # Panics
/// Panics if `scores` and `ids` lengths disagree.
pub fn select_scored_into(
    scores: &[f32],
    ids: &[u32],
    k: usize,
    mask: impl Fn(usize) -> bool,
    out: &mut Vec<(u32, f32)>,
) {
    assert_eq!(scores.len(), ids.len(), "select_scored_into length mismatch");
    out.clear();
    if k == 0 {
        return;
    }
    for (p, (&s, &id)) in scores.iter().zip(ids.iter()).enumerate() {
        if out.len() == k {
            let (wid, ws) = *out.last().unwrap();
            if !beats(s, id, ws, wid) {
                continue;
            }
        }
        if mask(p) {
            continue;
        }
        if out.len() == k {
            out.pop();
        }
        // Insert into the sorted suffix (winners are rare, so the shift is
        // short in the common case).
        let mut i = out.len();
        while i > 0 && beats(s, id, out[i - 1].1, out[i - 1].0) {
            i -= 1;
        }
        out.insert(i, (id, s));
    }
}

/// Returns the indices of the `k` largest entries of `scores`, ordered from
/// best to worst. Ties break toward the smaller index (deterministic).
///
/// Entries whose index is flagged in `mask` (same length, `true` = exclude)
/// are skipped — evaluation uses this to mask out training items.
pub fn top_k_masked(scores: &[f32], k: usize, mask: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut sel = TopK::new();
    let mut out = Vec::new();
    sel.select_masked_into(scores, k, mask, &mut out);
    out
}

/// Top-k without any mask.
pub fn top_k(scores: &[f32], k: usize) -> Vec<u32> {
    top_k_masked(scores, k, |_| false)
}

/// Indices that would sort `scores` descending (stable for ties).
pub fn argsort_desc(scores: &[f32]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        OrdF32(scores[b as usize]).cmp(&OrdF32(scores[a as usize])).then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn top_k_basic() {
        let s = [0.1f32, 0.9, 0.5, 0.7];
        assert_eq!(top_k(&s, 2), vec![1, 3]);
        assert_eq!(top_k(&s, 4), vec![1, 3, 2, 0]);
    }

    #[test]
    fn top_k_zero_is_empty() {
        assert!(top_k(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn top_k_larger_than_len() {
        assert_eq!(top_k(&[3.0, 1.0], 10), vec![0, 1]);
    }

    #[test]
    fn top_k_mask_excludes() {
        let s = [0.1f32, 0.9, 0.5, 0.7];
        let got = top_k_masked(&s, 2, |i| i == 1);
        assert_eq!(got, vec![3, 2]);
    }

    #[test]
    fn ties_break_to_smaller_index() {
        let s = [0.5f32, 0.5, 0.5, 0.5];
        assert_eq!(top_k(&s, 2), vec![0, 1]);
    }

    #[test]
    fn nan_sorts_last() {
        let s = [f32::NAN, 1.0, 2.0];
        assert_eq!(top_k(&s, 2), vec![2, 1]);
    }

    #[test]
    fn argsort_matches_topk_full() {
        let s = [0.3f32, -0.1, 0.9, 0.3];
        assert_eq!(argsort_desc(&s), vec![2, 0, 3, 1]);
    }

    /// The obviously-correct reference: sort every unmasked index by
    /// (score descending, index ascending) and truncate to `k`.
    fn naive_topk_masked(scores: &[f32], k: usize, mask: impl Fn(usize) -> bool) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..scores.len() as u32).filter(|&i| !mask(i as usize)).collect();
        idx.sort_by(|&a, &b| {
            OrdF32(scores[b as usize]).cmp(&OrdF32(scores[a as usize])).then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    #[test]
    fn selector_reuse_matches_fresh_selector() {
        let mut sel = TopK::new();
        let mut out = Vec::new();
        for round in 0..4usize {
            let s: Vec<f32> = (0..50).map(|i| ((i * 7 + round * 13) % 11) as f32).collect();
            sel.select_masked_into(&s, 8, |i| i % 5 == round % 5, &mut out);
            assert_eq!(out, naive_topk_masked(&s, 8, |i| i % 5 == round % 5), "round {round}");
        }
    }

    /// Naive reference for [`select_scored_into`]: sort unmasked (id,
    /// score) pairs by (score desc, id asc) and truncate.
    fn naive_scored(
        scores: &[f32],
        ids: &[u32],
        k: usize,
        mask: impl Fn(usize) -> bool,
    ) -> Vec<(u32, f32)> {
        let mut pairs: Vec<(u32, f32)> = scores
            .iter()
            .zip(ids.iter())
            .enumerate()
            .filter(|&(p, _)| !mask(p))
            .map(|(_, (&s, &i))| (i, s))
            .collect();
        pairs.sort_by(|a, b| OrdF32(b.1).cmp(&OrdF32(a.1)).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }

    #[test]
    fn select_scored_is_scan_order_independent() {
        let ids = [40u32, 10, 30, 20, 50];
        let scores = [1.0f32, 2.0, 1.0, 2.0, 0.5];
        let mut fwd = Vec::new();
        select_scored_into(&scores, &ids, 3, |_| false, &mut fwd);
        // Reversed scan must give the same answer: ties break on id value.
        let rids: Vec<u32> = ids.iter().rev().copied().collect();
        let rscores: Vec<f32> = scores.iter().rev().copied().collect();
        let mut rev = Vec::new();
        select_scored_into(&rscores, &rids, 3, |_| false, &mut rev);
        assert_eq!(fwd, vec![(10, 2.0), (20, 2.0), (30, 1.0)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn select_scored_masks_by_position() {
        let ids = [7u32, 8, 9];
        let scores = [3.0f32, 2.0, 1.0];
        let mut out = Vec::new();
        select_scored_into(&scores, &ids, 2, |p| p == 0, &mut out);
        assert_eq!(out, vec![(8, 2.0), (9, 1.0)]);
    }

    proptest! {
        /// The insertion selector must match the naive sort-and-truncate
        /// reference for arbitrary (unsorted, tied) candidate lists.
        #[test]
        fn prop_select_scored_matches_naive(
            q in proptest::collection::vec((0u8..6, 0u32..40), 0..60),
            k in 0usize..20,
            mask_mod in 1usize..7,
        ) {
            let scores: Vec<f32> = q.iter().map(|&(v, _)| v as f32 * 0.5 - 1.0).collect();
            let ids: Vec<u32> = q.iter().map(|&(_, i)| i).collect();
            let mut got = Vec::new();
            select_scored_into(&scores, &ids, k, |p| p % mask_mod == 0, &mut got);
            prop_assert_eq!(got, naive_scored(&scores, &ids, k, |p| p % mask_mod == 0));
        }

        /// Quantized scores force heavy ties; `k` ranges past `n` to cover
        /// the k ≥ n edge. The heap selection must match the naive
        /// sort-and-truncate reference exactly, masked or not.
        #[test]
        fn prop_topk_matches_naive_reference(
            q in proptest::collection::vec(0u8..6, 1..80),
            k in 0usize..100,
            mask_mod in 1usize..7,
        ) {
            let s: Vec<f32> = q.iter().map(|&v| v as f32 * 0.5 - 1.0).collect();
            prop_assert_eq!(top_k(&s, k), naive_topk_masked(&s, k, |_| false));
            let got = top_k_masked(&s, k, |i| i % mask_mod == 0);
            prop_assert_eq!(got, naive_topk_masked(&s, k, |i| i % mask_mod == 0));
        }

        /// Continuous scores through the reusable selector: same contract.
        #[test]
        fn prop_selector_matches_naive_reference(
            s in proptest::collection::vec(-100.0f32..100.0, 1..64),
            k in 0usize..80,
        ) {
            let mut sel = TopK::new();
            let mut out = Vec::new();
            sel.select_masked_into(&s, k, |_| false, &mut out);
            prop_assert_eq!(out, naive_topk_masked(&s, k, |_| false));
        }

        #[test]
        fn prop_topk_agrees_with_argsort(
            s in proptest::collection::vec(-100.0f32..100.0, 1..64),
            k in 1usize..16,
        ) {
            let k = k.min(s.len());
            let full = argsort_desc(&s);
            let top = top_k(&s, k);
            prop_assert_eq!(&full[..k], &top[..]);
        }

        #[test]
        fn prop_topk_scores_descending(
            s in proptest::collection::vec(-10.0f32..10.0, 1..64),
            k in 1usize..32,
        ) {
            let top = top_k(&s, k);
            for w in top.windows(2) {
                prop_assert!(s[w[0] as usize] >= s[w[1] as usize]);
            }
        }
    }
}
