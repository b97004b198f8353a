//! CML evaluation helpers.
//!
//! CML ([`crate::Mf::new_cml`]) ranks by negated squared Euclidean
//! distance. Distance ranking reduces to inner-product ranking after an
//! embedding augmentation, so the standard dot-product evaluator can be
//! reused unchanged:
//!
//! ```text
//! −||u − i||² ranks like 2·u·i − ||i||²  =  <[2u, −1], [i, ||i||²]>
//! ```

use bsl_linalg::kernels::dot;
use bsl_linalg::Matrix;

/// Transforms `(users, items)` so that dot-product ranking of the outputs
/// equals squared-distance ranking of the inputs (per user).
pub fn euclidean_rank_embeddings(users: &Matrix, items: &Matrix) -> (Matrix, Matrix) {
    assert_eq!(users.cols(), items.cols(), "dimension mismatch");
    let d = users.cols();
    let mut u_out = Matrix::zeros(users.rows(), d + 1);
    for r in 0..users.rows() {
        let dst = u_out.row_mut(r);
        for (j, &x) in users.row(r).iter().enumerate() {
            dst[j] = 2.0 * x;
        }
        dst[d] = -1.0;
    }
    let mut i_out = Matrix::zeros(items.rows(), d + 1);
    for r in 0..items.rows() {
        let row = items.row(r);
        let sq = dot(row, row);
        let dst = i_out.row_mut(r);
        dst[..d].copy_from_slice(row);
        dst[d] = sq;
    }
    (u_out, i_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_linalg::kernels::sq_dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn augmented_dot_ranks_like_negative_distance() {
        let mut rng = StdRng::seed_from_u64(5);
        let users = Matrix::gaussian(4, 6, 1.0, &mut rng);
        let items = Matrix::gaussian(9, 6, 1.0, &mut rng);
        let (au, ai) = euclidean_rank_embeddings(&users, &items);
        for u in 0..4 {
            // Rank items both ways; the orders must agree.
            let by_dist: Vec<usize> = {
                let mut idx: Vec<usize> = (0..9).collect();
                idx.sort_by(|&a, &b| {
                    sq_dist(users.row(u), items.row(a))
                        .total_cmp(&sq_dist(users.row(u), items.row(b)))
                });
                idx
            };
            let by_dot: Vec<usize> = {
                let mut idx: Vec<usize> = (0..9).collect();
                idx.sort_by(|&a, &b| {
                    dot(au.row(u), ai.row(b)).total_cmp(&dot(au.row(u), ai.row(a)))
                });
                idx
            };
            assert_eq!(by_dist, by_dot, "user {u} ranking mismatch");
        }
    }

    #[test]
    fn augmented_shapes() {
        let users = Matrix::zeros(3, 4);
        let items = Matrix::zeros(5, 4);
        let (au, ai) = euclidean_rank_embeddings(&users, &items);
        assert_eq!(au.shape(), (3, 5));
        assert_eq!(ai.shape(), (5, 5));
    }
}
