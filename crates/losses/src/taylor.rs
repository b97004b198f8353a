//! Second-order Taylor expansion of SL (paper Eq. 13) used by the Fig-5
//! fairness ablation:
//!
//! ```text
//! with variance:    L = mean_b [ −p_b + mean_j(n_bj) + Var_j(n_bj)/(2τ) ]
//! without variance: L = mean_b [ −p_b + mean_j(n_bj) ]
//! ```
//!
//! Lemma 2 shows SL ≈ the "with variance" form up to `o(1/τ)`; removing the
//! variance penalty removes exactly the term the paper credits for
//! popularity fairness, which is what Fig 5 measures.

use crate::{RankingLoss, RowTerm, ScoreBatch};
use bsl_linalg::stats::mean_var;
use std::ops::Range;

/// Taylor-expanded SL, with or without the variance penalty.
#[derive(Clone, Copy, Debug)]
pub struct TaylorSl {
    tau: f32,
    with_variance: bool,
}

impl TaylorSl {
    /// Creates the ablation loss.
    ///
    /// # Panics
    /// Panics if `tau <= 0`.
    pub fn new(tau: f32, with_variance: bool) -> Self {
        assert!(tau > 0.0, "temperature must be positive, got {tau}");
        Self { tau, with_variance }
    }

    /// Whether the variance penalty is active.
    #[inline]
    pub fn with_variance(&self) -> bool {
        self.with_variance
    }
}

impl RankingLoss for TaylorSl {
    fn name(&self) -> &'static str {
        if self.with_variance {
            "TaylorSL+V"
        } else {
            "TaylorSL-V"
        }
    }

    /// Final gradients and `RowTerm(mean_j n_bj, Var_j n_bj)`.
    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        terms: &mut [RowTerm],
    ) {
        let b = batch.len() as f64;
        let (bm, tau) = (b * batch.m as f64, self.tau as f64);
        for ((_, negs), ((gp, gn), term)) in batch
            .rows(rows)
            .zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)).zip(terms))
        {
            let (mean, var) = mean_var(negs);
            *term = RowTerm(mean, var);
            *gp = (-1.0 / b) as f32;
            for (&n, g_out) in negs.iter().zip(gn) {
                // ∂mean/∂n = 1/m; ∂Var/∂n = 2(n − mean)/m.
                let mut g = 1.0 / bm;
                if self.with_variance {
                    g += (n as f64 - mean) / (bm * tau);
                }
                *g_out = g as f32;
            }
        }
    }

    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let (b, tau) = (batch.len() as f64, self.tau as f64);
        scales.fill(1.0);
        let mut loss = 0.0f64;
        for (&p, &RowTerm(mean, var)) in batch.pos.iter().zip(terms) {
            loss += (-(p as f64) + mean) / b;
            if self.with_variance {
                loss += var / (2.0 * tau) / b;
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{assert_grads_match, synthetic_scores};
    use crate::SoftmaxLoss;
    use proptest::prelude::*;

    #[test]
    fn gradcheck_both_variants() {
        let (pos, neg) = synthetic_scores(5, 6, 21);
        assert_grads_match(&TaylorSl::new(0.2, true), &pos, &neg, 6, 1e-3);
        assert_grads_match(&TaylorSl::new(0.2, false), &pos, &neg, 6, 1e-3);
        assert_grads_match(&TaylorSl::new(1.0, true), &pos, &neg, 6, 1e-3);
    }

    #[test]
    fn variance_term_separates_variants() {
        let pos = [0.0f32];
        let neg = [0.5f32, -0.5]; // mean 0, var 0.25
        let tau = 0.5f32;
        let with = TaylorSl::new(tau, true).compute(&ScoreBatch::new(&pos, &neg, 2)).loss;
        let without = TaylorSl::new(tau, false).compute(&ScoreBatch::new(&pos, &neg, 2)).loss;
        assert!((with - without - 0.25 / (2.0 * tau as f64)).abs() < 1e-6);
    }

    #[test]
    fn constant_negatives_make_variants_agree() {
        let pos = [0.3f32, -0.1];
        let neg = [0.2f32; 8];
        let a = TaylorSl::new(0.1, true).compute(&ScoreBatch::new(&pos, &neg, 4));
        let b = TaylorSl::new(0.1, false).compute(&ScoreBatch::new(&pos, &neg, 4));
        assert!((a.loss - b.loss).abs() < 1e-9);
        for (x, y) in a.grad_neg.iter().zip(b.grad_neg.iter()) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    /// Lemma 2 as a machine check: the Taylor form approaches SL as τ grows
    /// and the remainder decays like O(1/τ²) in the expansion variable.
    #[test]
    fn approaches_sl_for_large_tau() {
        let (pos, neg) = synthetic_scores(4, 6, 5);
        let gap = |tau: f32| -> f64 {
            let sl = SoftmaxLoss::new(tau).compute(&ScoreBatch::new(&pos, &neg, 6)).loss;
            let ty = TaylorSl::new(tau, true).compute(&ScoreBatch::new(&pos, &neg, 6)).loss;
            (sl - ty).abs()
        };
        // Stay at moderate τ: beyond τ≈4 the remainder sinks below the f32
        // noise floor of the score buffers and the comparison is vacuous.
        let g_half = gap(0.5);
        let g1 = gap(1.0);
        let g2 = gap(2.0);
        assert!(g1 < g_half && g2 < g1, "remainder not decaying: {g_half} {g1} {g2}");
        // Roughly quadratic decay in 1/τ (third-order term dominates): each
        // doubling of τ should shrink the remainder by clearly more than 2×.
        assert!(g2 < g_half / 4.0, "decay slower than O(1/τ²): {g_half} vs {g2}");
    }

    proptest! {
        /// The variance penalty's gradient sums to zero within each row —
        /// it reshapes relative pressure across negatives without changing
        /// the total downward push.
        #[test]
        fn prop_variance_gradient_mass_is_invariant(
            b in 1usize..5,
            m in 2usize..8,
            seed in 0u64..200,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let with = TaylorSl::new(0.2, true).compute(&ScoreBatch::new(&pos, &neg, m));
            let without = TaylorSl::new(0.2, false).compute(&ScoreBatch::new(&pos, &neg, m));
            for row in 0..b {
                let sw: f64 = with.grad_neg[row * m..(row + 1) * m].iter().map(|&g| g as f64).sum();
                let so: f64 = without.grad_neg[row * m..(row + 1) * m].iter().map(|&g| g as f64).sum();
                prop_assert!((sw - so).abs() < 1e-5);
            }
        }

        /// With the variance term, higher-than-mean negatives get pushed
        /// down harder — the fairness mechanism.
        #[test]
        fn prop_variance_pressures_above_mean_negatives(
            m in 3usize..8,
            seed in 0u64..200,
        ) {
            let (pos, neg) = synthetic_scores(1, m, seed);
            let out = TaylorSl::new(0.1, true).compute(&ScoreBatch::new(&pos, &neg, m));
            let (mean, _) = bsl_linalg::stats::mean_var(&neg);
            for (j, &n) in neg.iter().enumerate() {
                let base = 1.0 / m as f32;
                if (n as f64) > mean + 1e-3 {
                    prop_assert!(out.grad_neg[j] > base * 0.99);
                } else if (n as f64) < mean - 1e-3 {
                    prop_assert!(out.grad_neg[j] < base * 1.01);
                }
            }
        }
    }
}
