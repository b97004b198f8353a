//! Top-k selection for full-catalogue ranking and IVF shortlists.
//!
//! Ranking scores every item for a user and keeps the best `k`. With |I|
//! in the tens of thousands and k = 20 almost every score loses to the
//! current k-th best, so both selectors look at that **threshold first**:
//! one `f32` compare rejects a losing score before the total order, the
//! mask closure or the selection buffer is touched.
//! [`TopK::select_masked_into`] makes the test eight scores at a time over
//! a full-catalogue score row, [`select_scored_into`] once per candidate
//! of an IVF shortlist. Both hold the winners in a buffer sorted best
//! first (the worst is its last entry); a winner costs a binary search and
//! a shift, which measured faster than a heap at k = 20 and at k = 1000.

use std::cmp::Ordering;

/// `f32` wrapper with a total order (NaN sorts below everything, including
/// `-inf`; `-0.0` below `+0.0`), so scores can live in heaps and sorts
/// without `partial_cmp` unwraps and a NaN score can never win a ranking
/// slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF32(pub f32);

impl OrdF32 {
    /// The order as an integer: `a.cmp(&b) == a.key().cmp(&b.key())`.
    /// Every NaN maps to 0; numbers map through the usual sign-flip of the
    /// IEEE bits, which puts `-inf` at `0x007f_ffff`, above the NaNs.
    #[inline]
    fn key(self) -> u32 {
        let bits = self.0.to_bits();
        if self.0.is_nan() {
            0
        } else if bits >> 31 == 1 {
            !bits
        } else {
            bits | 0x8000_0000
        }
    }
}

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Scores tested against the threshold per step of
/// [`TopK::select_masked_into`]: an 8-lane compare the compiler
/// vectorises.
const BLOCK: usize = 8;

/// `(score, index)` as one integer whose *descending* order is the ranking
/// order: higher score first, equal scores by ascending index.
#[inline]
fn rank_key(score: f32, index: usize) -> u64 {
    (u64::from(OrdF32(score).key()) << 32) | u64::from(!(index as u32))
}

/// The index packed into a [`rank_key`].
#[inline]
fn rank_index(key: u64) -> u32 {
    !(key as u32)
}

/// A reusable top-k selector: the selection buffer survives across calls,
/// so steady-state selection (one call per served request or evaluated
/// user) allocates nothing once warm.
///
/// [`top_k_masked`] is the one-shot convenience wrapper; the ranking
/// scratch `bsl-serve` and `bsl-eval` share (`bsl_models::TopKScratch`)
/// holds a `TopK` per thread.
#[derive(Default)]
pub struct TopK {
    /// [`rank_key`]s of the current best entries: in scan order while
    /// fewer than `k` are held, then sorted descending, so the last one is
    /// the worst — the entry a better score evicts.
    held: Vec<u64>,
}

impl TopK {
    /// A fresh selector (equivalent to `TopK::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the indices of the `k` largest entries of `scores` into
    /// `out` (cleared first), ordered best to worst; ties break toward the
    /// smaller index and NaN loses to every number. Entries whose index is
    /// flagged by `mask` (`true` = exclude) are skipped.
    ///
    /// Until `k` unmasked entries are held every index is offered to
    /// `mask`. From then on eight scores at a time are compared against
    /// the worst held score with a plain `s >= worst`. That test is
    /// conservative: it passes a tie, or a `-0.0` against a `+0.0`, which
    /// the total order then rejects, and it passes every number while the
    /// worst is NaN. Only inside a passing block does the total order
    /// decide, and only a score that would enter is offered to `mask`: on
    /// a descending row that is the first `k` unmasked indices and the
    /// masked ones before them, nothing else.
    ///
    /// # Panics
    /// Panics if `scores` has more than `u32::MAX` entries.
    pub fn select_masked_into(
        &mut self,
        scores: &[f32],
        k: usize,
        mask: impl Fn(usize) -> bool,
        out: &mut Vec<u32>,
    ) {
        assert!(u32::try_from(scores.len()).is_ok(), "score row longer than u32 indices");
        out.clear();
        if k == 0 {
            return;
        }
        let held = &mut self.held;
        held.clear();
        let mut next = 0usize;
        while held.len() < k && next < scores.len() {
            if !mask(next) {
                held.push(rank_key(scores[next], next));
            }
            next += 1;
        }
        held.sort_unstable_by(|a, b| b.cmp(a));

        // From here `held.len() == k` or nothing is left to scan.
        let offer = |held: &mut Vec<u64>, i: usize| {
            let key = rank_key(scores[i], i);
            if key > held[k - 1] && !mask(i) {
                held.pop();
                let at = held.partition_point(|&e| e > key);
                held.insert(at, key);
            }
        };
        for block in scores[next..].chunks_exact(BLOCK) {
            // `s >= NaN` is false for every `s`, but a NaN worst loses to
            // any number: `>= -inf` lets exactly the numbers through.
            let worst = scores[rank_index(held[k - 1]) as usize];
            let floor = if worst.is_nan() { f32::NEG_INFINITY } else { worst };
            if block.iter().fold(false, |any, &s| any | (s >= floor)) {
                for (j, &s) in block.iter().enumerate() {
                    if s >= floor {
                        offer(held, next + j);
                    }
                }
            }
            next += BLOCK;
        }
        for i in next..scores.len() {
            offer(held, i);
        }
        out.extend(held.iter().map(|&key| rank_index(key)));
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
/// sorted selection buffer, and the order of the two tests is the one
/// [`TopK::select_masked_into`] uses: a candidate that does not beat the
/// current worst is rejected *before* the mask closure runs, so an
/// expensive mask — e.g. a seen-items binary search — is only paid for a
/// candidate that would enter.
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

    /// The values the continuous proptests never draw.
    const SPECIALS: [f32; 11] = [
        f32::NAN,
        f32::NEG_INFINITY,
        f32::MIN,
        -1.0,
        -f32::MIN_POSITIVE,
        -0.0,
        0.0,
        f32::MIN_POSITIVE,
        1.0,
        f32::MAX,
        f32::INFINITY,
    ];

    #[test]
    fn ord_f32_is_nan_lowest_then_ieee_total_order() {
        // SPECIALS is written in ascending order; -NaN sorts with NaN.
        for (a, &x) in SPECIALS.iter().enumerate() {
            for (b, &y) in SPECIALS.iter().enumerate() {
                assert_eq!(OrdF32(x).cmp(&OrdF32(y)), a.cmp(&b), "{x} vs {y}");
            }
            assert_eq!(OrdF32(-f32::NAN).cmp(&OrdF32(x)), 0.cmp(&a), "-NaN vs {x}");
        }
    }

    /// Rows built from [`SPECIALS`] (NaN in any position, a NaN worst, both
    /// zeroes, both infinities, all-equal rows), every length whose block
    /// tail differs plus a catalogue-sized one, `k` around `n`, and masks
    /// that cover the would-be winners.
    #[test]
    fn adversarial_rows_match_the_naive_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |modulo: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % modulo
        };
        let mut sel = TopK::new();
        let mut got = Vec::new();
        for n in (1..=70).chain([2500]) {
            // pool = 1 gives all-equal rows; a NaN-only prefix gives a NaN worst.
            for pool in [1, 2, 4, SPECIALS.len()] {
                let first = draw(SPECIALS.len());
                let mut row: Vec<f32> =
                    (0..n).map(|_| SPECIALS[(first + draw(pool)) % SPECIALS.len()]).collect();
                let nan_prefix = draw(n + 1).min(12);
                row[..nan_prefix].fill(f32::NAN);
                for k in [0, 1, 8, 20, n.saturating_sub(1), n, n + 5] {
                    let winners = naive_topk_masked(&row, k, |_| false);
                    let wins = |i: usize| winners.contains(&(i as u32));
                    let masks: [&dyn Fn(usize) -> bool; 4] =
                        [&|_| false, &|i| i % 3 == 0, &wins, &|_| true];
                    for (m, mask) in masks.iter().enumerate() {
                        sel.select_masked_into(&row, k, mask, &mut got);
                        let want = naive_topk_masked(&row, k, mask);
                        assert_eq!(got, want, "n {n} pool {pool} k {k} mask {m} row {row:?}");
                    }
                }
            }
        }
    }

    /// The mask is the expensive test (a seen-list search): it is paid for
    /// the entries that fill the buffer and for scores that would enter,
    /// never for every item.
    #[test]
    fn mask_is_only_consulted_for_scores_that_would_enter() {
        use std::cell::Cell;
        let (n, k, masked_prefix) = (2500usize, 20usize, 7usize);
        let calls = Cell::new(0usize);
        let mask = |i: usize| {
            calls.set(calls.get() + 1);
            i < masked_prefix
        };
        let mut sel = TopK::new();
        let mut out = Vec::new();
        let descending: Vec<f32> = (0..n).map(|i| -(i as f32)).collect();
        sel.select_masked_into(&descending, k, mask, &mut out);
        assert_eq!(out, (masked_prefix as u32..(masked_prefix + k) as u32).collect::<Vec<_>>());
        assert_eq!(calls.get(), k + masked_prefix, "descending row");
        // Ascending is the worst case: every score enters, every index is asked.
        calls.set(0);
        let ascending: Vec<f32> = (0..n).map(|i| i as f32).collect();
        sel.select_masked_into(&ascending, k, mask, &mut out);
        assert_eq!(calls.get(), n, "ascending row");
        // A shuffled row asks for about k·ln(n/k) entrants beyond the fill.
        calls.set(0);
        let shuffled: Vec<f32> = (0..n).map(|i| ((i * 7919) % n) as f32).collect();
        sel.select_masked_into(&shuffled, k, mask, &mut out);
        assert_eq!(out, naive_topk_masked(&shuffled, k, |i| i < masked_prefix));
        assert!(calls.get() < n / 8, "shuffled row consulted the mask {} times", calls.get());
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
        /// the k ≥ n edge. The selection must match the naive
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
