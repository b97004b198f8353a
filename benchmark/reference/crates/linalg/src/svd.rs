//! Randomized truncated SVD (Halko–Martinsson–Tropp) over an abstract
//! linear operator.
//!
//! The LightGCL-lite backbone needs the leading singular triplets of the
//! (sparse) normalized adjacency; going through the [`LinOp`] trait lets
//! the sparse crate provide a matrix-free operator without a dependency
//! cycle. Small dense factors are handled with modified Gram–Schmidt QR and
//! a Jacobi symmetric eigensolver — no LAPACK required.

use crate::matrix::Matrix;
use rand::Rng;

/// A linear operator `A: R^cols -> R^rows` that can be applied to blocks of
/// vectors (and transposed-applied), which is all randomized SVD needs.
pub trait LinOp {
    /// Number of rows of the operator.
    fn rows(&self) -> usize;
    /// Number of columns of the operator.
    fn cols(&self) -> usize;
    /// `Y = A · X` where `X` is `cols × k`; returns `rows × k`.
    fn apply(&self, x: &Matrix) -> Matrix;
    /// `Y = Aᵀ · X` where `X` is `rows × k`; returns `cols × k`.
    fn apply_t(&self, x: &Matrix) -> Matrix;
}

/// Dense matrix viewed as a [`LinOp`].
pub struct DenseOp<'a>(pub &'a Matrix);

impl LinOp for DenseOp<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.0.matmul(x)
    }
    fn apply_t(&self, x: &Matrix) -> Matrix {
        self.0.matmul_tn(x)
    }
}

/// Result of a truncated SVD: `A ≈ U · diag(s) · Vᵀ` with `U: rows × k`,
/// `V: cols × k`, singular values descending.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, one per column… stored row-major `rows × k`.
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f32>,
    /// Right singular vectors, `cols × k`.
    pub v: Matrix,
}

/// In-place modified Gram–Schmidt orthonormalization of the columns of `m`
/// (with one re-orthogonalization pass for numerical hygiene). Columns with
/// negligible residual norm are zeroed.
fn orthonormalize_columns(m: &mut Matrix) {
    let (rows, cols) = m.shape();
    for j in 0..cols {
        for _pass in 0..2 {
            for i in 0..j {
                let mut proj = 0.0f64;
                for r in 0..rows {
                    proj += m.get(r, i) as f64 * m.get(r, j) as f64;
                }
                let proj = proj as f32;
                for r in 0..rows {
                    let v = m.get(r, j) - proj * m.get(r, i);
                    m.set(r, j, v);
                }
            }
        }
        let mut n = 0.0f64;
        for r in 0..rows {
            n += (m.get(r, j) as f64).powi(2);
        }
        let n = n.sqrt();
        if n < 1e-10 {
            for r in 0..rows {
                m.set(r, j, 0.0);
            }
        } else {
            let inv = (1.0 / n) as f32;
            for r in 0..rows {
                m.set(r, j, m.get(r, j) * inv);
            }
        }
    }
}

/// Jacobi eigendecomposition of a small symmetric matrix `a` (destroyed).
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors in the columns,
/// unsorted.
fn jacobi_eigh(a: &mut Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi_eigh requires a square matrix");
    let mut v = Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude.
        let mut off = 0.0f64;
        for r in 0..n {
            for c in (r + 1)..n {
                off += (a.get(r, c) as f64).powi(2);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q) as f64;
                if apq.abs() < 1e-14 {
                    continue;
                }
                let app = a.get(p, p) as f64;
                let aqq = a.get(q, q) as f64;
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of A.
                for k in 0..n {
                    let akp = a.get(k, p) as f64;
                    let akq = a.get(k, q) as f64;
                    a.set(k, p, (c * akp - s * akq) as f32);
                    a.set(k, q, (s * akp + c * akq) as f32);
                }
                for k in 0..n {
                    let apk = a.get(p, k) as f64;
                    let aqk = a.get(q, k) as f64;
                    a.set(p, k, (c * apk - s * aqk) as f32);
                    a.set(q, k, (s * apk + c * aqk) as f32);
                }
                for k in 0..n {
                    let vkp = v.get(k, p) as f64;
                    let vkq = v.get(k, q) as f64;
                    v.set(k, p, (c * vkp - s * vkq) as f32);
                    v.set(k, q, (s * vkp + c * vkq) as f32);
                }
            }
        }
    }
    let eig: Vec<f64> = (0..n).map(|i| a.get(i, i) as f64).collect();
    (eig, v)
}

/// Randomized truncated SVD of `op` with target rank `k`.
///
/// `n_iter` subspace (power) iterations sharpen the spectrum; 4 is plenty
/// for adjacency matrices. `oversample` extra probe vectors (default-ish 8)
/// protect the tail. The caller's RNG makes the factorization reproducible.
pub fn randomized_svd(
    op: &dyn LinOp,
    k: usize,
    n_iter: usize,
    oversample: usize,
    rng: &mut impl Rng,
) -> Svd {
    let l = (k + oversample).min(op.cols()).min(op.rows());
    assert!(l > 0, "rank target must be positive");
    // Gaussian probe block Ω: cols × l.
    let omega = Matrix::gaussian(op.cols(), l, 1.0, rng);
    let mut y = op.apply(&omega); // rows × l
    orthonormalize_columns(&mut y);
    for _ in 0..n_iter {
        let mut z = op.apply_t(&y); // cols × l
        orthonormalize_columns(&mut z);
        y = op.apply(&z);
        orthonormalize_columns(&mut y);
    }
    let q = y; // rows × l, orthonormal columns
               // B = Qᵀ A, materialized as Bᵀ = Aᵀ Q: cols × l.
    let bt = op.apply_t(&q);
    // Gram matrix G = B Bᵀ = (Bᵀ)ᵀ (Bᵀ) … l × l symmetric.
    let mut g = bt.matmul_tn(&bt);
    let (eig, w) = jacobi_eigh(&mut g);
    // Sort eigenpairs descending.
    let mut order: Vec<usize> = (0..l).collect();
    order.sort_by(|&a, &b| eig[b].partial_cmp(&eig[a]).unwrap_or(std::cmp::Ordering::Equal));
    let k = k.min(l);
    let mut s = Vec::with_capacity(k);
    let mut u = Matrix::zeros(op.rows(), k);
    let mut v = Matrix::zeros(op.cols(), k);
    for (out_col, &src) in order.iter().take(k).enumerate() {
        let sigma = eig[src].max(0.0).sqrt();
        s.push(sigma as f32);
        // U[:, out] = Q · W[:, src]
        for r in 0..op.rows() {
            let mut acc = 0.0f64;
            for c in 0..l {
                acc += q.get(r, c) as f64 * w.get(c, src) as f64;
            }
            u.set(r, out_col, acc as f32);
        }
        // V[:, out] = Bᵀ · W[:, src] / σ
        if sigma > 1e-12 {
            let inv = 1.0 / sigma;
            for r in 0..op.cols() {
                let mut acc = 0.0f64;
                for c in 0..l {
                    acc += bt.get(r, c) as f64 * w.get(c, src) as f64;
                }
                v.set(r, out_col, (acc * inv) as f32);
            }
        }
    }
    Svd { u, s, v }
}

impl Svd {
    /// Reconstructs the rank-k approximation `U diag(s) Vᵀ` as a dense
    /// matrix (test/diagnostic use only — quadratic memory).
    pub fn reconstruct(&self) -> Matrix {
        let (rows, k) = self.u.shape();
        let cols = self.v.rows();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = 0.0f64;
                for j in 0..k {
                    acc += self.u.get(r, j) as f64 * self.s[j] as f64 * self.v.get(c, j) as f64;
                }
                out.set(r, c, acc as f32);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn orthonormalize_produces_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Matrix::gaussian(10, 4, 1.0, &mut rng);
        orthonormalize_columns(&mut m);
        for i in 0..4 {
            for j in 0..4 {
                let mut d = 0.0f64;
                for r in 0..10 {
                    d += m.get(r, i) as f64 * m.get(r, j) as f64;
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-4, "col {i}·{j} = {d}");
            }
        }
    }

    #[test]
    fn jacobi_recovers_known_eigenvalues() {
        // Symmetric matrix with eigenvalues 3 and 1: [[2,1],[1,2]].
        let mut a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (mut eig, _) = jacobi_eigh(&mut a);
        eig.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!((eig[0] - 3.0).abs() < 1e-5);
        assert!((eig[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn svd_recovers_low_rank_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        // Build an exactly rank-3 matrix A = L · Rᵀ.
        let l = Matrix::gaussian(30, 3, 1.0, &mut rng);
        let r = Matrix::gaussian(20, 3, 1.0, &mut rng);
        let a = l.matmul(&r.transpose());
        let svd = randomized_svd(&DenseOp(&a), 3, 4, 6, &mut rng);
        let rec = svd.reconstruct();
        let mut err = 0.0f64;
        for (x, y) in a.as_slice().iter().zip(rec.as_slice()) {
            err += ((x - y) as f64).powi(2);
        }
        let rel = err.sqrt() / a.frob_norm();
        assert!(rel < 1e-3, "relative error {rel}");
    }

    #[test]
    fn svd_singular_values_descending_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::gaussian(25, 15, 1.0, &mut rng);
        let svd = randomized_svd(&DenseOp(&a), 5, 3, 5, &mut rng);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-5);
        }
        assert!(svd.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_matches_dominant_singular_value_of_diagonal() {
        // diag(5, 2, 1) has known singular values.
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { [5.0, 2.0, 1.0][r] } else { 0.0 });
        let mut rng = StdRng::seed_from_u64(11);
        let svd = randomized_svd(&DenseOp(&a), 3, 6, 3, &mut rng);
        assert!((svd.s[0] - 5.0).abs() < 1e-3, "{:?}", svd.s);
        assert!((svd.s[1] - 2.0).abs() < 1e-3);
        assert!((svd.s[2] - 1.0).abs() < 1e-3);
    }
}
