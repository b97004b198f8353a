//! Negative samplers.
//!
//! All samplers draw *item indices* for a given user. "True" negatives are
//! items the user has no training interaction with; the [`NoisySampler`]
//! deliberately violates this at a controlled rate to create the
//! false-negative distribution shift studied in §III-B and Fig 8.
//!
//! # Rejecting training positives
//!
//! Every sampler owns a positives filter, built once in its constructor
//! from the `Arc<Dataset>` (immutable behind the `Arc`, so the filter
//! cannot go stale). It holds one bitmap per user over that user's
//! training positives, with one hash: item `i` sets bit
//! `(i · K mod 2⁶⁴) >> (64 − log₂ b_u)` of a `b_u`-bit map, where
//! `b_u = next_pow2(max(64, 16·nnz_u))` and `K` is an odd constant.
//!
//! * **Memory.** `b_u ≤ max(64, 32·nnz_u)`, so the filter costs at most
//!   32 bits per training interaction plus 64 bits per user, plus one
//!   word offset per user: ≈ 115 KB of bitmap and 9 KB of offsets for
//!   the 41k interactions of a 1,200 × 2,500 yelp-like set.
//! * **No false negatives.** Building the filter sets the bit of every
//!   training positive, and nothing clears a bit. So a candidate whose bit
//!   is clear is not a positive, and it is accepted without touching the
//!   user's row. A set bit (at most one bit in 16 is set) falls back to a
//!   binary search over the sorted row. Each check therefore answers
//!   exactly what `Csr::contains` answers: every draw, the dense-user
//!   short-cut and the [`MAX_REJECTIONS`] bailout of [`draw_rejecting`]
//!   are the same, draw for draw, as a loop that searches the row every
//!   time.

use crate::alias::AliasTable;
use bsl_data::Dataset;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Maximum rejected candidates per draw before the rejection loop bails
/// out (see [`draw_rejecting`]).
pub const MAX_REJECTIONS: usize = 32;

/// Shared rejection loop used by every sampler: draws candidates from
/// `draw` until one is not a training positive of `user`.
///
/// Two documented escape hatches keep the loop from stalling:
///
/// * **Dense users** (≥ half the catalogue interacted) skip rejection
///   entirely — the very first draw is returned unchecked.
/// * **Bailout**: after [`MAX_REJECTIONS`] rejected candidates, one final
///   draw is taken and returned *unconditionally*. That draw may be a
///   training positive — a deliberate, bounded false-negative leak for
///   pathological users, which the paper's losses tolerate by design
///   (robustness to false negatives is BSL's whole point).
///
/// Exactly one of these paths runs per returned item, so every call
/// consumes at most `MAX_REJECTIONS + 1` draws from `draw`.
///
/// This form checks every candidate by binary search over the user's row.
/// The samplers run the same loop with their filter in front of that
/// search (see the module docs), which changes no draw.
pub fn draw_rejecting(
    ds: &Dataset,
    user: usize,
    rng: &mut StdRng,
    draw: impl FnMut(&mut StdRng) -> u32,
) -> u32 {
    UserPositives::unfiltered(ds.train.row_indices(user), ds.n_items).draw_rejecting(rng, draw)
}

/// Odd multiplier of the filter's multiply-shift hash (`2⁶⁴ / φ`).
const FILTER_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A one-word bitmap with every bit set: every candidate falls through to
/// the binary search.
const ALL_SET: [u64; 1] = [u64::MAX];

/// Per-user one-hash bitmaps over the training positives (module docs).
struct PositiveFilter {
    ds: Arc<Dataset>,
    /// User `u`'s bitmap is `words[offsets[u]..offsets[u + 1]]`, a power
    /// of two of at least one word.
    offsets: Vec<usize>,
    words: Vec<u64>,
}

impl PositiveFilter {
    fn new(ds: Arc<Dataset>) -> Self {
        let n_users = ds.train.rows();
        let mut offsets = Vec::with_capacity(n_users + 1);
        offsets.push(0);
        for u in 0..n_users {
            let bits = (16 * ds.train.row_nnz(u)).max(64).next_power_of_two();
            offsets.push(offsets[u] + bits / 64);
        }
        let mut words = vec![0u64; offsets[n_users]];
        for u in 0..n_users {
            let map = &mut words[offsets[u]..offsets[u + 1]];
            let shift = shift_for(map.len());
            for &i in ds.train.row_indices(u) {
                let b = filter_bit(i, shift);
                map[b >> 6] |= 1 << (b & 63);
            }
        }
        Self { ds, offsets, words }
    }

    /// User `user`'s row, bitmap and dense flag.
    #[inline]
    fn user(&self, user: usize) -> UserPositives<'_> {
        let words = &self.words[self.offsets[user]..self.offsets[user + 1]];
        UserPositives::new(self.ds.train.row_indices(user), words, self.ds.n_items)
    }
}

/// The hash shift of a bitmap of `n_words` words (a power of two).
#[inline]
fn shift_for(n_words: usize) -> u32 {
    58 - n_words.trailing_zeros()
}

/// The bit item `item` maps to in a bitmap hashed with `shift`.
#[inline]
fn filter_bit(item: u32, shift: u32) -> usize {
    ((item as u64).wrapping_mul(FILTER_MUL) >> shift) as usize
}

/// One user's training positives as the rejection loop reads them.
struct UserPositives<'a> {
    row: &'a [u32],
    words: &'a [u64],
    shift: u32,
    dense: bool,
}

impl<'a> UserPositives<'a> {
    #[inline]
    fn new(row: &'a [u32], words: &'a [u64], n_items: usize) -> Self {
        Self { row, words, shift: shift_for(words.len()), dense: row.len() * 2 >= n_items }
    }

    /// The view without a filter: every check searches the row.
    fn unfiltered(row: &'a [u32], n_items: usize) -> Self {
        Self::new(row, &ALL_SET, n_items)
    }

    /// Whether `item` is one of the user's training positives.
    #[inline]
    fn contains(&self, item: u32) -> bool {
        let b = filter_bit(item, self.shift);
        (self.words[b >> 6] >> (b & 63)) & 1 == 1 && self.row.binary_search(&item).is_ok()
    }

    /// The rejection loop of [`draw_rejecting`].
    #[inline]
    fn draw_rejecting(&self, rng: &mut StdRng, mut draw: impl FnMut(&mut StdRng) -> u32) -> u32 {
        if self.dense {
            return draw(rng);
        }
        for _ in 0..MAX_REJECTIONS {
            let cand = draw(rng);
            if !self.contains(cand) {
                return cand;
            }
        }
        // Explicit bailout draw: accepted whatever it is.
        draw(rng)
    }
}

/// A source of negative items for `(user, positive)` training rows.
pub trait NegativeSampler: Send + Sync {
    /// Appends `n` sampled item ids for `user` to `out`.
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>);

    /// Convenience wrapper returning a fresh vector.
    fn sample(&self, user: u32, n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        self.sample_into(user, n, rng, &mut out);
        out
    }
}

/// Uniform sampling over the user's non-interacted items (rejection
/// sampling against the training positives — the standard CF protocol).
pub struct UniformSampler {
    filter: PositiveFilter,
}

impl UniformSampler {
    /// Creates a sampler bound to `ds`.
    pub fn new(ds: Arc<Dataset>) -> Self {
        Self { filter: PositiveFilter::new(ds) }
    }
}

impl NegativeSampler for UniformSampler {
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let positives = self.filter.user(user as usize);
        let n_items = self.filter.ds.n_items as u32;
        for _ in 0..n {
            out.push(positives.draw_rejecting(rng, |rng| rng.gen_range(0..n_items)));
        }
    }
}

/// Popularity-weighted sampling (`p(i) ∝ pop_i^alpha`), rejecting the
/// user's training positives. `alpha = 1` reproduces the popularity-based
/// strategy prior work attributed SL's fairness to; the paper shows
/// fairness survives uniform sampling too.
pub struct PopularitySampler {
    filter: PositiveFilter,
    table: AliasTable,
}

impl PopularitySampler {
    /// Builds the alias table from train-split popularity.
    pub fn new(ds: Arc<Dataset>, alpha: f64) -> Self {
        let weights: Vec<f64> = ds.popularity().iter().map(|&p| (p as f64).powf(alpha)).collect();
        let table = AliasTable::new(&weights);
        Self { filter: PositiveFilter::new(ds), table }
    }
}

impl NegativeSampler for PopularitySampler {
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let positives = self.filter.user(user as usize);
        for _ in 0..n {
            out.push(positives.draw_rejecting(rng, |rng| self.table.sample(rng)));
        }
    }
}

/// Noisy negative sampling implementing the paper's `r_noise` knob:
/// "`r_noise` represents the ratio of the sampling probability of positive
/// samples to that of negative samples" (§III-B footnote 2).
///
/// For a user with `P` training positives out of `N` items, each draw is a
/// (known, deliberate) false negative with probability
/// `r·P / (r·P + (N−P))`, and a uniform true negative otherwise.
pub struct NoisySampler {
    filter: PositiveFilter,
    r_noise: f64,
}

impl NoisySampler {
    /// Creates the sampler; `r_noise = 0` reduces to [`UniformSampler`]
    /// behaviour.
    ///
    /// # Panics
    /// Panics if `r_noise < 0`.
    pub fn new(ds: Arc<Dataset>, r_noise: f64) -> Self {
        assert!(r_noise >= 0.0, "r_noise must be non-negative, got {r_noise}");
        Self { filter: PositiveFilter::new(ds), r_noise }
    }

    /// Probability that one draw for `user` is a false negative.
    pub fn false_negative_prob(&self, user: u32) -> f64 {
        let ds = &self.filter.ds;
        let p = ds.train.row_nnz(user as usize) as f64;
        let n = ds.n_items as f64;
        let neg = (n - p).max(0.0);
        let w_pos = self.r_noise * p;
        if w_pos + neg == 0.0 {
            0.0
        } else {
            w_pos / (w_pos + neg)
        }
    }
}

impl NegativeSampler for NoisySampler {
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let positives = self.filter.user(user as usize);
        let row = positives.row;
        let p_false = self.false_negative_prob(user);
        let n_items = self.filter.ds.n_items as u32;
        for _ in 0..n {
            if !row.is_empty() && rng.gen::<f64>() < p_false {
                // Deliberate false negative: one of the user's positives.
                out.push(row[rng.gen_range(0..row.len())]);
            } else {
                out.push(positives.draw_rejecting(rng, |rng| rng.gen_range(0..n_items)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn ds() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    #[test]
    fn uniform_avoids_positives() {
        let ds = ds();
        let s = UniformSampler::new(ds.clone());
        let mut rng = StdRng::seed_from_u64(1);
        for u in 0..ds.n_users as u32 {
            let negs = s.sample(u, 50, &mut rng);
            assert_eq!(negs.len(), 50);
            for &i in &negs {
                assert!(!ds.train.contains(u as usize, i), "user {u} got positive {i}");
            }
        }
    }

    #[test]
    fn uniform_covers_item_space() {
        let ds = ds();
        let s = UniformSampler::new(ds.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let negs = s.sample(0, 3000, &mut rng);
        let distinct: std::collections::HashSet<u32> = negs.into_iter().collect();
        assert!(distinct.len() > ds.n_items / 2, "only {} distinct items", distinct.len());
    }

    #[test]
    fn popularity_prefers_popular_items() {
        let ds = ds();
        let s = PopularitySampler::new(ds.clone(), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let pop = ds.popularity();
        // Candidate items for user 0 = everything except their training
        // positives (the sampler rejects those). Under `p(i) ∝ pop_i` the
        // expected popularity of a draw is Σ pop_i² / Σ pop_i over the
        // candidates, strictly above the uniform candidate mean whenever
        // popularity varies.
        let candidates: Vec<usize> =
            (0..ds.n_items).filter(|&i| !ds.train.contains(0, i as u32)).collect();
        let sum_pop: f64 = candidates.iter().map(|&i| pop[i] as f64).sum();
        let uniform_mean = sum_pop / candidates.len() as f64;
        let weighted_mean: f64 =
            candidates.iter().map(|&i| (pop[i] as f64).powi(2)).sum::<f64>() / sum_pop;
        let negs = s.sample(0, 4000, &mut rng);
        let mean_pop_sampled: f64 =
            negs.iter().map(|&i| pop[i as usize] as f64).sum::<f64>() / negs.len() as f64;
        assert!(
            weighted_mean > uniform_mean,
            "degenerate dataset: weighted {weighted_mean} vs uniform {uniform_mean}"
        );
        assert!(
            (mean_pop_sampled - weighted_mean).abs() < 0.1 * weighted_mean,
            "sampled mean pop {mean_pop_sampled} vs expected {weighted_mean}"
        );
        assert!(
            mean_pop_sampled > uniform_mean,
            "sampled mean pop {mean_pop_sampled} not above uniform mean {uniform_mean}"
        );
    }

    #[test]
    fn noisy_zero_has_no_false_negatives() {
        let ds = ds();
        let s = NoisySampler::new(ds.clone(), 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let negs = s.sample(3, 200, &mut rng);
        for &i in &negs {
            assert!(!ds.train.contains(3, i));
        }
    }

    #[test]
    fn noisy_rate_matches_formula() {
        let ds = ds();
        let r = 5.0;
        let s = NoisySampler::new(ds.clone(), r);
        let mut rng = StdRng::seed_from_u64(5);
        let user = 0u32;
        let expect = s.false_negative_prob(user);
        let negs = s.sample(user, 20_000, &mut rng);
        let false_negs =
            negs.iter().filter(|&&i| ds.train.contains(user as usize, i)).count() as f64;
        let got = false_negs / negs.len() as f64;
        assert!((got - expect).abs() < 0.02, "false-negative rate {got} vs expected {expect}");
    }

    #[test]
    fn noisy_rate_increases_with_r() {
        let ds = ds();
        let a = NoisySampler::new(ds.clone(), 1.0).false_negative_prob(0);
        let b = NoisySampler::new(ds.clone(), 10.0).false_negative_prob(0);
        assert!(b > a);
    }

    #[test]
    fn samplers_deterministic_in_seed() {
        let ds = ds();
        let s = UniformSampler::new(ds);
        let a = s.sample(1, 20, &mut StdRng::seed_from_u64(7));
        let b = s.sample(1, 20, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn noisy_rejects_negative_rate() {
        let _ = NoisySampler::new(ds(), -1.0);
    }

    /// A sparse user (1 positive of 10 items) whose draws *always* land on
    /// the positive: the loop must take exactly `MAX_REJECTIONS` rejected
    /// draws plus one explicit bailout draw, and return the positive.
    #[test]
    fn bailout_draw_is_explicit_and_bounded() {
        let ds = Dataset::from_pairs("bail", 1, 10, &[(0, 3)], &[]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut draws = 0usize;
        let got = draw_rejecting(&ds, 0, &mut rng, |_| {
            draws += 1;
            3 // always the user's positive
        });
        assert_eq!(got, 3, "bailout must return the final draw unconditionally");
        assert_eq!(draws, MAX_REJECTIONS + 1, "exactly one bailout draw after the cap");
    }

    /// Dense users (≥ half the catalogue) skip rejection entirely: one
    /// draw, returned unchecked.
    #[test]
    fn dense_user_short_circuits_to_one_draw() {
        let train: Vec<(u32, u32)> = (0..5).map(|i| (0, i)).collect();
        let ds = Dataset::from_pairs("dense", 1, 8, &train, &[]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut draws = 0usize;
        let got = draw_rejecting(&ds, 0, &mut rng, |_| {
            draws += 1;
            0 // a positive — accepted anyway for dense users
        });
        assert_eq!(got, 0);
        assert_eq!(draws, 1);
    }

    /// The common path: the first non-positive candidate is returned and
    /// positives before it are rejected.
    #[test]
    fn rejection_returns_first_true_negative() {
        let ds = Dataset::from_pairs("rej", 1, 10, &[(0, 1), (0, 2)], &[]);
        let mut rng = StdRng::seed_from_u64(0);
        let seq = [1u32, 2, 2, 7, 9];
        let mut k = 0usize;
        let got = draw_rejecting(&ds, 0, &mut rng, |_| {
            let c = seq[k];
            k += 1;
            c
        });
        assert_eq!(got, 7, "first candidate outside the positives wins");
        assert_eq!(k, 4);
    }

    /// The rejection loop as it was before the filter, kept as the oracle:
    /// the dense test and `Csr::contains` read the CSR on every draw.
    fn oracle_rejecting(
        ds: &Dataset,
        user: usize,
        rng: &mut StdRng,
        mut draw: impl FnMut(&mut StdRng) -> u32,
    ) -> u32 {
        if ds.train.row_nnz(user) * 2 >= ds.n_items {
            return draw(rng);
        }
        for _ in 0..MAX_REJECTIONS {
            let cand = draw(rng);
            if !ds.train.contains(user, cand) {
                return cand;
            }
        }
        draw(rng)
    }

    /// The three samplers' `sample_into` as they were before the filter.
    enum Oracle<'a> {
        Uniform,
        Popularity(&'a AliasTable),
        Noisy(&'a NoisySampler),
    }

    fn oracle_sample(
        ds: &Dataset,
        kind: &Oracle,
        user: u32,
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let u = user as usize;
        let n_items = ds.n_items as u32;
        let positives = ds.train.row_indices(u);
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(match kind {
                Oracle::Uniform => oracle_rejecting(ds, u, rng, |rng| rng.gen_range(0..n_items)),
                Oracle::Popularity(table) => oracle_rejecting(ds, u, rng, |rng| table.sample(rng)),
                Oracle::Noisy(s) => {
                    if !positives.is_empty() && rng.gen::<f64>() < s.false_negative_prob(user) {
                        positives[rng.gen_range(0..positives.len())]
                    } else {
                        oracle_rejecting(ds, u, rng, |rng| rng.gen_range(0..n_items))
                    }
                }
            });
        }
        out
    }

    /// Every sampler returns the oracle's items for every user at several
    /// row sizes, and leaves its stream where the oracle leaves it.
    fn assert_draw_for_draw(ds: &Arc<Dataset>, seed: u64) {
        let uniform = UniformSampler::new(ds.clone());
        let popularity = PopularitySampler::new(ds.clone(), 1.0);
        let noisy = NoisySampler::new(ds.clone(), 2.0);
        let cases: [(&dyn NegativeSampler, Oracle); 3] = [
            (&uniform, Oracle::Uniform),
            (&popularity, Oracle::Popularity(&popularity.table)),
            (&noisy, Oracle::Noisy(&noisy)),
        ];
        for (k, (sampler, oracle)) in cases.iter().enumerate() {
            for user in 0..ds.n_users as u32 {
                for n in [1, 7, 64] {
                    let s = seed ^ ((user as u64) << 16) ^ ((n as u64) << 40);
                    let (mut a, mut b) = (StdRng::seed_from_u64(s), StdRng::seed_from_u64(s));
                    let got = sampler.sample(user, n, &mut a);
                    let want = oracle_sample(ds, oracle, user, n, &mut b);
                    assert_eq!(got, want, "sampler {k}, user {user}, n {n}, seed {seed}");
                    assert_eq!(
                        a.next_u64(),
                        b.next_u64(),
                        "sampler {k}, user {user}: stream moved"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_answers_exactly_what_the_row_answers() {
        for seed in 1..4 {
            let ds = Arc::new(generate(&SynthConfig::tiny(seed)));
            let filter = PositiveFilter::new(ds.clone());
            let bits = 64 * filter.words.len();
            assert!(bits <= 32 * ds.train.nnz() + 64 * ds.n_users, "{bits} bits");
            for u in 0..ds.n_users {
                let view = filter.user(u);
                for i in 0..ds.n_items as u32 {
                    assert_eq!(view.contains(i), ds.train.contains(u, i), "user {u}, item {i}");
                }
            }
            assert_draw_for_draw(&ds, seed);
        }
    }

    /// `n_items = 70` (not a multiple of 64): user 0 holds exactly half the
    /// catalogue (dense), user 1 one item less, user 2 nothing, user 3 one
    /// item.
    #[test]
    fn filter_draws_match_oracle_at_the_dense_threshold() {
        let mut train: Vec<(u32, u32)> = (0..35).map(|i| (0, 2 * i)).collect();
        train.extend((0..34).map(|i| (1, 2 * i + 1)));
        train.push((3, 69));
        let ds = Arc::new(Dataset::from_pairs("dense-edge", 4, 70, &train, &[]));
        let filter = PositiveFilter::new(ds.clone());
        assert!(filter.user(0).dense);
        assert!(!filter.user(1).dense);
        assert!(filter.user(2).row.is_empty());
        assert_draw_for_draw(&ds, 11);
    }

    /// Every item with non-zero popularity is one of user 0's positives, so
    /// popularity draws for user 0 always reach the bailout.
    #[test]
    fn filter_draws_match_oracle_for_the_bailout_user() {
        let ds = Arc::new(Dataset::from_pairs("bail", 3, 10, &[(0, 1), (0, 2), (1, 2)], &[]));
        assert_draw_for_draw(&ds, 12);
        let s = PopularitySampler::new(ds, 1.0);
        let negs = s.sample(0, 100, &mut StdRng::seed_from_u64(0));
        assert!(negs.iter().all(|&i| i == 1 || i == 2), "bailout returns a positive");
    }

    /// Users 0 and 1 own positives that all hash to one filter bit, and
    /// other items share that bit: those candidates pass the filter, fail
    /// the row search and are accepted.
    #[test]
    fn filter_draws_match_oracle_when_positives_share_a_bit() {
        let n_items = 1000u32;
        // Items sharing one bit of a map of `n_words` words, the first
        // `k` becoming positives.
        let collide = |n_words: usize, k: usize| -> Vec<u32> {
            let shift = shift_for(n_words);
            let target = filter_bit(7, shift);
            let same: Vec<u32> = (0..n_items).filter(|&i| filter_bit(i, shift) == target).collect();
            assert!(same.len() > k, "only {} items share the bit", same.len());
            same
        };
        let (shared0, shared1) = (collide(1, 4), collide(2, 5));
        let mut train: Vec<(u32, u32)> = shared0[..4].iter().map(|&i| (0, i)).collect();
        train.extend(shared1[..5].iter().map(|&i| (1, i)));
        let ds = Arc::new(Dataset::from_pairs("collide", 2, n_items as usize, &train, &[]));
        let filter = PositiveFilter::new(ds.clone());
        for (u, n_words) in [(0, 1), (1, 2)] {
            let view = filter.user(u);
            assert_eq!(view.words.len(), n_words);
            assert_eq!(view.words.iter().map(|w| w.count_ones()).sum::<u32>(), 1, "user {u}");
        }
        assert_draw_for_draw(&ds, 13);
        let negs = UniformSampler::new(ds).sample(0, 5000, &mut StdRng::seed_from_u64(1));
        let passed = negs.iter().filter(|i| shared0[4..].contains(i)).count();
        assert!(passed > 0, "no candidate sharing the positives' bit was drawn");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_filter_draws_match_oracle(
            n_users in 1usize..6,
            n_items in 1usize..150,
            pairs in proptest::collection::vec((0u32..6, 0u32..150), 0..300),
            seed in 0u64..1_000_000,
        ) {
            let train: Vec<(u32, u32)> = pairs
                .into_iter()
                .filter(|&(u, i)| (u as usize) < n_users && (i as usize) < n_items)
                .collect();
            let ds = Arc::new(Dataset::from_pairs("prop", n_users, n_items, &train, &[]));
            assert_draw_for_draw(&ds, seed);
        }
    }
}
