//! Compressed sparse row matrix.

use bsl_linalg::{LinOp, Matrix};
use std::ops::Range;

/// A CSR (compressed sparse row) matrix of `f32` values.
///
/// `indptr` has `rows + 1` entries; row `r`'s column indices live in
/// `indices[indptr[r]..indptr[r+1]]` (sorted ascending, unique) with the
/// matching `values`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from COO triplets. Duplicate coordinates are
    /// summed; column indices end up sorted within each row.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "entry ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|t| (t.0, t.1));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("values non-empty alongside indices") += v;
                continue;
            }
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] += 1;
            last = Some((r, c));
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Vec::new() }
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

    /// Number of stored (structural) non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices of row `r` (sorted ascending).
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`Self::row_indices`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f32] {
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Mutable values of row `r`.
    #[inline]
    pub fn row_values_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Whether entry `(r, c)` is structurally present (binary search).
    pub fn contains(&self, r: usize, c: u32) -> bool {
        self.row_indices(r).binary_search(&c).is_ok()
    }

    /// Value at `(r, c)`, or `0.0` when absent.
    pub fn get(&self, r: usize, c: u32) -> f32 {
        match self.row_indices(r).binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r).iter())
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Transpose as a new CSR matrix (counting sort over columns, O(nnz)).
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let pos = next[c as usize];
                indices[pos] = r as u32;
                values[pos] = v;
                next[c as usize] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Sparse × dense product `self · x` into a fresh `rows × x.cols()`
    /// dense matrix.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.cols, "spmm dimension mismatch");
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_into(x, &mut out);
        out
    }

    /// Sparse × dense product written into an existing buffer
    /// (overwritten, not accumulated): [`Self::spmm_rows_into`] over every
    /// row.
    ///
    /// Each output row is one [`bsl_linalg::simd::gather_sum`] over the
    /// row's stored entries, which holds the row in registers across them
    /// (this is the inner loop of every GCN propagation hop). Its bits are
    /// those of clearing `out` and running one dispatched `axpy` per entry.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.rows(), self.cols, "spmm dimension mismatch");
        assert_eq!(out.shape(), (self.rows, x.cols()), "spmm output shape mismatch");
        self.spmm_rows_into(x, 0..self.rows, out.as_mut_slice());
    }

    /// Rows `rows` of `self · x`, written into `out` (those rows only,
    /// row-major, overwritten). Each row is the one `gather_sum` chain of
    /// [`Self::spmm_into`], so disjoint row ranges filled on different
    /// threads give the full product's bits.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`, if `rows` runs past the last
    /// row, or if `out` does not hold exactly `rows.len()` rows of
    /// `x.cols()`.
    pub fn spmm_rows_into(&self, x: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        assert_eq!(x.rows(), self.cols, "spmm dimension mismatch");
        assert!(rows.start <= rows.end && rows.end <= self.rows, "spmm row range out of bounds");
        let d = x.cols();
        assert_eq!(out.len(), rows.len() * d, "spmm output length mismatch");
        for (r, row_out) in rows.zip(out.chunks_exact_mut(d.max(1))) {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            bsl_linalg::simd::gather_sum(
                &self.values[start..end],
                &self.indices[start..end],
                x.as_slice(),
                row_out,
            );
        }
    }

    /// The first row of part `part` when the rows are cut into `parts`
    /// contiguous runs of about equal work, a row counting as its stored
    /// entries plus one (its own output write). `0` for `part == 0`,
    /// `rows()` for `part == parts`, non-decreasing in between; a binary
    /// search on the row pointers, so nothing is cached.
    ///
    /// # Panics
    /// Panics unless `part <= parts` and `parts > 0`.
    pub fn balanced_row_cut(&self, part: usize, parts: usize) -> usize {
        assert!(parts > 0 && part <= parts, "part {part} of {parts}");
        let target = (self.nnz() + self.rows) * part / parts;
        let (mut lo, mut hi) = (0, self.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.indptr[mid] + mid < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Row sums (the weighted out-degree of each row node).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row_values(r).iter().map(|&v| v as f64).sum()).collect()
    }

    /// Per-row structural degree (entry counts).
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// Per-column structural degree.
    pub fn col_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.cols];
        for &c in &self.indices {
            d[c as usize] += 1;
        }
        d
    }

    /// Scales row `r`'s values by `alpha_r` and (conceptually) column `c`'s
    /// values by `beta_c`: `values[r][c] *= alpha[r] * beta[c]`.
    /// Used by degree normalization.
    pub fn scale_rows_cols(&mut self, alpha: &[f32], beta: &[f32]) {
        assert_eq!(alpha.len(), self.rows);
        assert_eq!(beta.len(), self.cols);
        for (r, &a) in alpha.iter().enumerate() {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            for k in start..end {
                self.values[k] *= a * beta[self.indices[k] as usize];
            }
        }
    }

    /// Converts to a dense matrix (test/diagnostic use).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r as usize, c as usize, v);
        }
        out
    }
}

impl LinOp for Csr {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.spmm(x)
    }
    fn apply_t(&self, x: &Matrix) -> Matrix {
        // Aᵀx without materializing the transpose: scatter rows of x.
        assert_eq!(x.rows(), self.rows, "apply_t dimension mismatch");
        let mut out = Matrix::zeros(self.cols, x.cols());
        for r in 0..self.rows {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            for k in start..end {
                let c = self.indices[k] as usize;
                // out[c] += v * x[r]
                bsl_linalg::kernels::axpy(self.values[k], x.row(r), out.row_mut(c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> Csr {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        Csr::from_coo(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn from_coo_layout() {
        let m = small();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
        assert_eq!(m.row_indices(1), &[1]);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert!(m.contains(1, 1));
        assert!(!m.contains(1, 2));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(1, 2, &[(0, 1, 1.0), (0, 1, 2.5), (0, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    fn from_coo_unsorted_input() {
        let m = Csr::from_coo(3, 3, &[(2, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (0, 0, 4.0)]);
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.get(2, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_bounds_check() {
        let _ = Csr::from_coo(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn transpose_dense_agreement() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let got = m.spmm(&x);
        let want = m.to_dense().matmul(&x);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn spmm_into_overwrites_whatever_the_buffer_held() {
        // Row 2 has no entries: it must come out zero, not NaN.
        let m = Csr::from_coo(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let x = Matrix::from_fn(3, 9, |r, c| (r * 9 + c) as f32 * 0.25 - 1.0);
        let mut out = Matrix::from_fn(3, 9, |_, _| f32::NAN);
        m.spmm_into(&x, &mut out);
        assert_eq!(out.as_slice(), m.spmm(&x).as_slice());
        assert!(out.row(2).iter().all(|&v| v.to_bits() == 0));
    }

    /// Row ranges cut by `balanced_row_cut` tile the rows, and filling each
    /// range on its own gives the full product's bits: skewed rows, empty
    /// rows, and more parts than rows.
    #[test]
    fn row_ranges_at_balanced_cuts_rebuild_spmm_bit_for_bit() {
        let mut trips: Vec<(u32, u32, f32)> = (0..7).map(|c| (0, c, 0.3 + c as f32)).collect();
        trips.extend([(2, 1, -0.7), (2, 4, 1.1), (4, 6, 0.9)]);
        let m = Csr::from_coo(6, 7, &trips);
        let x = Matrix::from_fn(7, 13, |r, c| (r * 13 + c) as f32 * 0.37 - 2.0);
        let want = m.spmm(&x);
        for parts in 1..=8 {
            let cuts: Vec<usize> = (0..=parts).map(|k| m.balanced_row_cut(k, parts)).collect();
            assert_eq!((cuts[0], cuts[parts]), (0, 6), "{parts} parts");
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            let mut got = vec![f32::NAN; 6 * 13];
            for w in cuts.windows(2) {
                m.spmm_rows_into(&x, w[0]..w[1], &mut got[w[0] * 13..w[1] * 13]);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want.as_slice()), "{parts} parts, cuts {cuts:?}");
        }
        // Row 0 holds 7 of the 10 entries: two parts cut right after it.
        assert_eq!(m.balanced_row_cut(1, 2), 1);
        assert_eq!(Csr::zeros(0, 3).balanced_row_cut(1, 2), 0);
    }

    #[test]
    fn linop_apply_t_matches_transpose_spmm() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut trips = Vec::new();
        for _ in 0..40 {
            trips.push((
                rng.gen_range(0..8u32),
                rng.gen_range(0..6u32),
                rng.gen_range(-1.0..1.0f32),
            ));
        }
        let m = Csr::from_coo(8, 6, &trips);
        let x = Matrix::gaussian(8, 3, 1.0, &mut rng);
        let got = m.apply_t(&x);
        let want = m.transpose().spmm(&x);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn degrees_and_sums() {
        let m = small();
        assert_eq!(m.row_degrees(), vec![2, 1]);
        assert_eq!(m.col_degrees(), vec![1, 1, 1]);
        assert_eq!(m.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    fn scale_rows_cols_applies_product() {
        let mut m = small();
        m.scale_rows_cols(&[2.0, 10.0], &[1.0, 0.5, 3.0]);
        assert_eq!(m.get(0, 0), 2.0); // 1 * 2 * 1
        assert_eq!(m.get(0, 2), 12.0); // 2 * 2 * 3
        assert_eq!(m.get(1, 1), 15.0); // 3 * 10 * 0.5
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = Csr::zeros(4, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmm(&Matrix::zeros(5, 2)).as_slice(), Matrix::zeros(4, 2).as_slice());
    }

    fn arb_csr() -> impl Strategy<Value = Csr> {
        (1usize..8, 1usize..8, proptest::collection::vec((0u32..8, 0u32..8, -2.0f32..2.0), 0..30))
            .prop_map(|(rows, cols, trips)| {
                let trips: Vec<_> = trips
                    .into_iter()
                    .map(|(r, c, v)| (r % rows as u32, c % cols as u32, v))
                    .collect();
                Csr::from_coo(rows, cols, &trips)
            })
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(m in arb_csr()) {
            prop_assert_eq!(m.transpose().transpose().to_dense(), m.to_dense());
        }

        #[test]
        fn prop_spmm_linearity(m in arb_csr(), seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Matrix::gaussian(m.cols(), 2, 1.0, &mut rng);
            let y = Matrix::gaussian(m.cols(), 2, 1.0, &mut rng);
            let mut xy = x.clone();
            xy.add_assign(&y);
            let lhs = m.spmm(&xy);
            let mut rhs = m.spmm(&x);
            rhs.add_assign(&m.spmm(&y));
            for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_indices_sorted_unique(m in arb_csr()) {
            for r in 0..m.rows() {
                let idx = m.row_indices(r);
                for w in idx.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}
