//! Row-major dense `f32` matrix.

use rand::Rng;

/// A dense, row-major matrix of `f32` values.
///
/// This is the storage type for embedding tables, propagation buffers and
/// the small dense factors of the randomized SVD. It deliberately exposes
/// rows as plain slices so hot loops can run on `&[f32]` without bounds
/// checks per element.
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Copies `source` into `self`'s buffer: no allocation when the
    /// capacity suffices (a derived `Clone` would allocate a fresh one).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} != {rows}x{cols}", data.len());
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization: entries are drawn from
    /// `U(-a, a)` with `a = sqrt(6 / (rows + cols))`.
    ///
    /// This mirrors the initialization used by the paper ("the
    /// initialization is unified using Xavier").
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let a = (6.0f64 / (rows + cols) as f64).sqrt() as f32;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.gen_range(-a..a));
        }
        Self { rows, cols, data }
    }

    /// Standard-normal initialization scaled by `std`.
    pub fn gaussian(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            // Box-Muller transform: keeps us off rand_distr which is not in
            // the sanctioned dependency set.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            data.push(z as f32 * std);
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Get entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The whole buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the whole buffer in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// `self += other`, elementwise.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        crate::kernels::axpy(1.0, &other.data, &mut self.data);
    }

    /// `self += alpha * other`, elementwise.
    pub fn add_scaled_assign(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_scaled_assign");
        crate::kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        crate::kernels::scale(alpha, &mut self.data);
    }

    /// Dense matrix product `self * other` (i-k-j loop order; the inner
    /// row accumulation is a dispatched `axpy`, so the small dense factors
    /// this workspace multiplies still ride the SIMD kernels).
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                crate::kernels::axpy(aik, other.row(k), out.row_mut(i));
            }
        }
        out
    }

    /// Dense matrix product `selfᵀ * other`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                crate::kernels::axpy(a, b_row, out.row_mut(i));
            }
        }
        out
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Frobenius norm (accumulated in `f64`).
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
    }

    /// Extracts rows `idx` into a new `idx.len() × cols` matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let src = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let mut dst = Matrix::zeros(4, 3);
        let buffer = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), buffer, "same length: no new allocation");
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 11.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::gaussian(5, 3, 1.0, &mut rng);
        let b = Matrix::gaussian(5, 4, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Matrix::xavier_uniform(100, 50, &mut rng);
        let a = (6.0f64 / 150.0).sqrt() as f32;
        assert!(m.as_slice().iter().all(|&x| x.abs() <= a));
        // Not all zero / not all identical.
        let first = m.get(0, 0);
        assert!(m.as_slice().iter().any(|&x| x != first));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::gaussian(200, 200, 2.0, &mut rng);
        let n = m.as_slice().len() as f64;
        let mean: f64 = m.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = m.as_slice().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn gather_rows_picks_expected() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[6.0, 7.0]);
        assert_eq!(g.row(1), &[2.0, 3.0]);
    }

    #[test]
    fn add_scaled_assign_axpy() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 10.0, 10.0]);
        a.add_scaled_assign(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 7.0, 8.0]);
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::gaussian(rows, cols, 1.0, &mut rng);
            let eye = Matrix::from_fn(cols, cols, |r, c| if r == c { 1.0 } else { 0.0 });
            let b = a.matmul(&eye);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_transpose_involution(rows in 1usize..10, cols in 1usize..10, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::gaussian(rows, cols, 1.0, &mut rng);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_frob_norm_scales(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Matrix::gaussian(4, 4, 1.0, &mut rng);
            let n0 = a.frob_norm();
            a.scale(3.0);
            prop_assert!((a.frob_norm() - 3.0 * n0).abs() < 1e-3 * (1.0 + n0));
        }
    }
}
