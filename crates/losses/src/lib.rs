//! Ranking losses for collaborative filtering with implicit feedback.
//!
//! Every loss implements [`RankingLoss`]: given a batch of positive scores
//! `p_b` and negative scores `n_{bj}` it returns the scalar loss **and**
//! the exact analytic gradients w.r.t. every score. Backbones then chain
//! these through their own score→parameter backward pass, so the whole
//! training stack is autodiff-free and every gradient is unit-tested
//! against central finite differences.
//!
//! A loss is written as two phases. The **row phase**
//! ([`RankingLoss::row_phase`]) maps any run of rows to those rows'
//! gradients and one [`RowTerm`] each; rows are independent, so a trainer
//! runs it over row chunks on its worker pool. The **batch phase**
//! ([`RankingLoss::batch_phase`]) reads every row's term in row order and
//! gives the loss value, the final `grad_pos` and one factor per row, which
//! [`scale_rows`] applies to that row's negative gradients (again per row
//! chunk). SL and BSL put their per-row `softmax_row` margins in the row
//! phase; BSL's softmax over the `B` margins `z_b` is its batch phase. The
//! other losses write final gradients in the row phase and sum their loss
//! value in the batch phase, one serial pass in the historical order.
//! [`RankingLoss::compute`] runs the three steps over the whole batch into
//! fresh vectors; the trainer runs them into its step scratch. The bits of
//! every gradient and of the loss do not depend on the chunking.
//!
//! The zoo covers the paper's taxonomy (§II-A):
//! * pointwise — [`Bce`], [`Mse`];
//! * pairwise — [`Bpr`], [`Hinge`] (CML);
//! * softmax family — [`SoftmaxLoss`] (SL, Eq. 4), the paper's
//!   contribution [`Bsl`] (Eq. 18), [`Ccl`] (SimpleX's cosine contrastive
//!   loss), and the Taylor-expansion ablations [`TaylorSl`] used by the
//!   Fig-5 fairness study.

// Enforced by bsl-audit (audit/policy.toml): this crate is not on the
// unsafe allowlist.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bsl;
pub mod ccl;
pub mod fd;
pub mod pairwise;
pub mod pointwise;
pub mod softmax;
pub mod taylor;

pub use bsl::Bsl;
pub use ccl::Ccl;
pub use pairwise::{Bpr, Hinge};
pub use pointwise::{Bce, Mse};
pub use softmax::SoftmaxLoss;
pub use taylor::TaylorSl;

use bsl_linalg::simd;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A batch of model scores: `pos[b]` is the score of row `b`'s positive
/// item; row `b`'s `m` negatives are `neg[b*m..(b+1)*m]`.
#[derive(Clone, Copy, Debug)]
pub struct ScoreBatch<'a> {
    /// Positive scores, length `B`.
    pub pos: &'a [f32],
    /// Flattened negative scores, length `B·m`.
    pub neg: &'a [f32],
    /// Negatives per row.
    pub m: usize,
}

impl<'a> ScoreBatch<'a> {
    /// Wraps score slices, validating the layout.
    ///
    /// # Panics
    /// Panics if `neg.len() != pos.len() * m` or `m == 0` or `pos` is empty.
    pub fn new(pos: &'a [f32], neg: &'a [f32], m: usize) -> Self {
        assert!(m > 0, "need at least one negative per row");
        assert!(!pos.is_empty(), "empty batch");
        assert_eq!(neg.len(), pos.len() * m, "negative buffer has wrong length");
        Self { pos, neg, m }
    }

    /// Number of rows `B`.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Always false (construction rejects empty batches); kept for clippy
    /// symmetry with [`Self::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Negative scores of row `b`.
    #[inline]
    pub fn negs_of(&self, b: usize) -> &'a [f32] {
        &self.neg[b * self.m..(b + 1) * self.m]
    }

    /// `(pos[r], negs_of(r))` for each row `r` of `rows`, in row order.
    pub fn rows(&self, rows: Range<usize>) -> impl Iterator<Item = (f32, &'a [f32])> {
        let negs = &self.neg[rows.start * self.m..rows.end * self.m];
        self.pos[rows].iter().copied().zip(negs.chunks_exact(self.m))
    }
}

/// Loss value and exact gradients w.r.t. each score in the batch.
#[derive(Clone, Debug)]
pub struct LossOutput {
    /// Scalar loss (f64 accumulation).
    pub loss: f64,
    /// `∂L/∂pos[b]`, length `B`.
    pub grad_pos: Vec<f32>,
    /// `∂L/∂neg[b*m+j]`, length `B·m`.
    pub grad_neg: Vec<f32>,
}

/// What the row phase leaves about one row for the batch phase: two
/// numbers whose meaning each loss documents (SL and BSL: the margin `z_b`
/// and the softmax normalizer `Σ_j`; Taylor-SL: the negatives' mean and
/// variance). The other losses leave it unread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RowTerm(pub f64, pub f64);

/// A batch ranking loss with analytic gradients, as a row phase and a
/// batch phase (see the crate docs).
pub trait RankingLoss: Send + Sync {
    /// Short identifier used in experiment tables (`"SL"`, `"BSL"`, …).
    fn name(&self) -> &'static str;

    /// The row phase over rows `rows` of `batch`: writes those rows'
    /// entries of `grad_pos` (length `rows.len()`) and `grad_neg`
    /// (`rows.len()·m`, before their row factors) and one [`RowTerm`] each
    /// into `terms`. A row's outputs depend on that row's scores alone.
    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        terms: &mut [RowTerm],
    );

    /// The batch phase, after the row phase has covered every row: reads
    /// the `B` terms in row order, finishes `grad_pos` (length `B`), writes
    /// each row's factor for its negative gradients into `scales` (length
    /// `B`, applied by [`scale_rows`]) and returns the loss value.
    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        terms: &[RowTerm],
        grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64;

    /// Computes loss and gradients for one score batch: both phases over
    /// the whole batch, then the row factors.
    fn compute(&self, batch: &ScoreBatch<'_>) -> LossOutput {
        let (b, m) = (batch.len(), batch.m);
        let mut grad_pos = vec![0.0f32; b];
        let mut grad_neg = vec![0.0f32; b * m];
        let mut terms = vec![RowTerm::default(); b];
        let mut scales = vec![0.0f32; b];
        self.row_phase(batch, 0..b, &mut grad_pos, &mut grad_neg, &mut terms);
        let loss = self.batch_phase(batch, &terms, &mut grad_pos, &mut scales);
        scale_rows(&scales, &mut grad_neg, m);
        LossOutput { loss, grad_pos, grad_neg }
    }
}

/// Multiplies each `m`-wide row of `grad_neg` by its factor from the
/// batch phase, `scales[r]` for row `r` of the slice.
pub fn scale_rows(scales: &[f32], grad_neg: &mut [f32], m: usize) {
    for (&s, row) in scales.iter().zip(grad_neg.chunks_exact_mut(m)) {
        simd::scale(s, row);
    }
}

/// Serializable loss selector used by experiment configs; [`build`] turns
/// it into a live loss object.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum LossConfig {
    /// Bayesian personalized ranking.
    Bpr,
    /// Binary cross entropy with negative weight `c`.
    Bce {
        /// Weight on the negative term.
        neg_weight: f32,
    },
    /// Mean squared error with negative weight `c`.
    Mse {
        /// Weight on the negative term.
        neg_weight: f32,
    },
    /// Softmax loss with temperature `tau`.
    Sl {
        /// Temperature τ.
        tau: f32,
    },
    /// Bilateral softmax loss with positive/negative temperatures.
    Bsl {
        /// Positive-side temperature τ1.
        tau1: f32,
        /// Negative-side temperature τ2.
        tau2: f32,
    },
    /// Cosine contrastive loss (SimpleX).
    Ccl {
        /// Negative margin.
        margin: f32,
        /// Weight on the negative term.
        neg_weight: f32,
    },
    /// Hinge loss (CML).
    Hinge {
        /// Margin.
        margin: f32,
    },
    /// Second-order Taylor expansion of SL (Fig-5 ablation).
    TaylorSl {
        /// Temperature τ.
        tau: f32,
        /// Keep the variance penalty term?
        with_variance: bool,
    },
}

/// Instantiates the loss described by `cfg`.
pub fn build(cfg: LossConfig) -> Box<dyn RankingLoss> {
    match cfg {
        LossConfig::Bpr => Box::new(Bpr),
        LossConfig::Bce { neg_weight } => Box::new(Bce::new(neg_weight)),
        LossConfig::Mse { neg_weight } => Box::new(Mse::new(neg_weight)),
        LossConfig::Sl { tau } => Box::new(SoftmaxLoss::new(tau)),
        LossConfig::Bsl { tau1, tau2 } => Box::new(Bsl::new(tau1, tau2)),
        LossConfig::Ccl { margin, neg_weight } => Box::new(Ccl::new(margin, neg_weight)),
        LossConfig::Hinge { margin } => Box::new(Hinge::new(margin)),
        LossConfig::TaylorSl { tau, with_variance } => Box::new(TaylorSl::new(tau, with_variance)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_batch_layout() {
        let pos = [1.0f32, 2.0];
        let neg = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6];
        let b = ScoreBatch::new(&pos, &neg, 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.negs_of(1), &[0.4, 0.5, 0.6]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn score_batch_rejects_mismatch() {
        let _ = ScoreBatch::new(&[1.0], &[0.0; 3], 2);
    }

    #[test]
    fn build_constructs_every_variant() {
        let cfgs = [
            LossConfig::Bpr,
            LossConfig::Bce { neg_weight: 1.0 },
            LossConfig::Mse { neg_weight: 1.0 },
            LossConfig::Sl { tau: 0.1 },
            LossConfig::Bsl { tau1: 0.1, tau2: 0.1 },
            LossConfig::Ccl { margin: 0.5, neg_weight: 1.0 },
            LossConfig::Hinge { margin: 0.5 },
            LossConfig::TaylorSl { tau: 0.2, with_variance: true },
        ];
        let names: Vec<&str> = cfgs.iter().map(|&c| build(c).name()).collect();
        assert_eq!(names, vec!["BPR", "BCE", "MSE", "SL", "BSL", "CCL", "Hinge", "TaylorSL+V"]);
    }
}
