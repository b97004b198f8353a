//! Finite-difference gradient checking shared by the loss and model tests.

use crate::{RankingLoss, ScoreBatch};

/// Verifies the analytic gradients of `loss` against central finite
/// differences on the given batch.
///
/// `tol` is a relative tolerance: the check passes when
/// `|analytic − numeric| ≤ tol · (1 + |numeric|)` for every coordinate.
///
/// # Panics
/// Panics (with the offending coordinate) on the first mismatch — intended
/// for use inside `#[test]` functions.
pub fn assert_grads_match(loss: &dyn RankingLoss, pos: &[f32], neg: &[f32], m: usize, tol: f64) {
    let h = 1e-3f32;
    let base = loss.compute(&ScoreBatch::new(pos, neg, m));

    let mut pos_buf = pos.to_vec();
    for k in 0..pos.len() {
        let orig = pos_buf[k];
        pos_buf[k] = orig + h;
        let up = loss.compute(&ScoreBatch::new(&pos_buf, neg, m)).loss;
        pos_buf[k] = orig - h;
        let down = loss.compute(&ScoreBatch::new(&pos_buf, neg, m)).loss;
        pos_buf[k] = orig;
        let numeric = (up - down) / (2.0 * h as f64);
        let analytic = base.grad_pos[k] as f64;
        assert!(
            (analytic - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "{}: grad_pos[{k}] analytic {analytic} vs numeric {numeric}",
            loss.name()
        );
    }

    let mut neg_buf = neg.to_vec();
    for k in 0..neg.len() {
        let orig = neg_buf[k];
        neg_buf[k] = orig + h;
        let up = loss.compute(&ScoreBatch::new(pos, &neg_buf, m)).loss;
        neg_buf[k] = orig - h;
        let down = loss.compute(&ScoreBatch::new(pos, &neg_buf, m)).loss;
        neg_buf[k] = orig;
        let numeric = (up - down) / (2.0 * h as f64);
        let analytic = base.grad_neg[k] as f64;
        assert!(
            (analytic - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "{}: grad_neg[{k}] analytic {analytic} vs numeric {numeric}",
            loss.name()
        );
    }
}

/// Deterministic pseudo-random score batch for gradient checks: scores in
/// roughly `[-0.9, 0.9]` (the cosine-similarity range the models produce).
pub fn synthetic_scores(b: usize, m: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    // Tiny xorshift so test inputs do not depend on the rand crate here.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 1.8 - 0.9
    };
    let pos: Vec<f32> = (0..b).map(|_| next()).collect();
    let neg: Vec<f32> = (0..b * m).map(|_| next()).collect();
    (pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_scores_in_range_and_deterministic() {
        let (p1, n1) = synthetic_scores(4, 3, 7);
        let (p2, n2) = synthetic_scores(4, 3, 7);
        assert_eq!(p1, p2);
        assert_eq!(n1, n2);
        assert!(p1.iter().chain(n1.iter()).all(|&x| (-0.95..=0.95).contains(&x)));
        let (p3, _) = synthetic_scores(4, 3, 8);
        assert_ne!(p1, p3);
    }
}
