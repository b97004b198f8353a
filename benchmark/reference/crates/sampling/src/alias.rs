//! Walker alias method: O(n) construction, O(1) weighted sampling.

use rand::Rng;

/// Alias table over `n` outcomes with arbitrary non-negative weights.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table. Zero-weight outcomes are never drawn (unless all
    /// weights are zero, in which case sampling is uniform).
    ///
    /// # Panics
    /// Panics on an empty weight slice or any negative/non-finite weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be finite and non-negative"
        );
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let scaled: Vec<f64> = if total > 0.0 {
            weights.iter().map(|&w| w * n as f64 / total).collect()
        } else {
            vec![1.0; n]
        };
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        let mut work = scaled;
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s as usize] = work[s as usize];
            alias[s as usize] = l;
            work[l as usize] = (work[l as usize] + work[s as usize]) - 1.0;
            if work[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &l in large.iter().chain(small.iter()) {
            prob[l as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let t = AliasTable::new(weights);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let freq = empirical(&w, 100_000, 1);
        let total: f64 = w.iter().sum();
        for (f, &wi) in freq.iter().zip(w.iter()) {
            let p = wi / total;
            assert!((f - p).abs() < 0.01, "freq {f} vs p {p}");
        }
    }

    #[test]
    fn zero_weight_never_drawn() {
        let freq = empirical(&[0.0, 1.0, 1.0], 20_000, 2);
        assert_eq!(freq[0], 0.0);
    }

    #[test]
    fn all_zero_falls_back_to_uniform() {
        let freq = empirical(&[0.0, 0.0, 0.0], 30_000, 3);
        for f in freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_rejected() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_samples_in_range(
            w in proptest::collection::vec(0.0f64..10.0, 1..20),
            seed in 0u64..100,
        ) {
            let t = AliasTable::new(&w);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let s = t.sample(&mut rng) as usize;
                prop_assert!(s < w.len());
                // A zero-weight outcome must never be drawn unless all are 0.
                if w.iter().any(|&x| x > 0.0) {
                    prop_assert!(w[s] > 0.0);
                }
            }
        }
    }
}
