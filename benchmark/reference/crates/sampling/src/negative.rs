//! Negative samplers.
//!
//! All samplers draw *item indices* for a given user. "True" negatives are
//! items the user has no training interaction with; the [`NoisySampler`]
//! deliberately violates this at a controlled rate to create the
//! false-negative distribution shift studied in §III-B and Fig 8.

use crate::alias::AliasTable;
use bsl_data::Dataset;
use rand::rngs::StdRng;
use rand::Rng;

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
pub fn draw_rejecting(
    ds: &Dataset,
    user: usize,
    rng: &mut StdRng,
    mut draw: impl FnMut(&mut StdRng) -> u32,
) -> u32 {
    let dense_user = ds.train.row_nnz(user) * 2 >= ds.n_items;
    if dense_user {
        return draw(rng);
    }
    for _ in 0..MAX_REJECTIONS {
        let cand = draw(rng);
        if !ds.train.contains(user, cand) {
            return cand;
        }
    }
    // Explicit bailout draw: accepted whatever it is.
    draw(rng)
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
    ds: std::sync::Arc<Dataset>,
}

impl UniformSampler {
    /// Creates a sampler bound to `ds`.
    pub fn new(ds: std::sync::Arc<Dataset>) -> Self {
        Self { ds }
    }
}

impl NegativeSampler for UniformSampler {
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let u = user as usize;
        let n_items = self.ds.n_items as u32;
        for _ in 0..n {
            out.push(draw_rejecting(&self.ds, u, rng, |rng| rng.gen_range(0..n_items)));
        }
    }
}

/// Popularity-weighted sampling (`p(i) ∝ pop_i^alpha`), rejecting the
/// user's training positives. `alpha = 1` reproduces the popularity-based
/// strategy prior work attributed SL's fairness to; the paper shows
/// fairness survives uniform sampling too.
pub struct PopularitySampler {
    ds: std::sync::Arc<Dataset>,
    table: AliasTable,
}

impl PopularitySampler {
    /// Builds the alias table from train-split popularity.
    pub fn new(ds: std::sync::Arc<Dataset>, alpha: f64) -> Self {
        let weights: Vec<f64> = ds.popularity().iter().map(|&p| (p as f64).powf(alpha)).collect();
        let table = AliasTable::new(&weights);
        Self { ds, table }
    }
}

impl NegativeSampler for PopularitySampler {
    fn sample_into(&self, user: u32, n: usize, rng: &mut StdRng, out: &mut Vec<u32>) {
        let u = user as usize;
        for _ in 0..n {
            out.push(draw_rejecting(&self.ds, u, rng, |rng| self.table.sample(rng)));
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
    ds: std::sync::Arc<Dataset>,
    r_noise: f64,
}

impl NoisySampler {
    /// Creates the sampler; `r_noise = 0` reduces to [`UniformSampler`]
    /// behaviour.
    ///
    /// # Panics
    /// Panics if `r_noise < 0`.
    pub fn new(ds: std::sync::Arc<Dataset>, r_noise: f64) -> Self {
        assert!(r_noise >= 0.0, "r_noise must be non-negative, got {r_noise}");
        Self { ds, r_noise }
    }

    /// Probability that one draw for `user` is a false negative.
    pub fn false_negative_prob(&self, user: u32) -> f64 {
        let p = self.ds.train.row_nnz(user as usize) as f64;
        let n = self.ds.n_items as f64;
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
        let u = user as usize;
        let positives = self.ds.train.row_indices(u);
        let p_false = self.false_negative_prob(user);
        let n_items = self.ds.n_items as u32;
        for _ in 0..n {
            if !positives.is_empty() && rng.gen::<f64>() < p_false {
                // Deliberate false negative: one of the user's positives.
                out.push(positives[rng.gen_range(0..positives.len())]);
            } else {
                out.push(draw_rejecting(&self.ds, u, rng, |rng| rng.gen_range(0..n_items)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use rand::SeedableRng;
    use std::sync::Arc;

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
}
