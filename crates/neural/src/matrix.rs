//! Row-major `f32` dense matrices.
//!
//! Backing storage is a 32-byte-aligned [`AVec`] (not a plain
//! `Vec<f32>`), so the SIMD kernels in [`crate::kernel`] may use aligned
//! vector loads whenever a row stride is a whole number of lanes.

use crate::avec::AVec;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AVec,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: AVec::zeroed(rows * cols),
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: AVec::filled(rows * cols, v),
        }
    }

    /// Builds from a row-major data vector. Panics when sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix {
            rows,
            cols,
            data: AVec::from_slice(&data),
        }
    }

    /// Builds from an already-aligned buffer (the
    /// [`crate::scratch::Scratch`] arena hands these out). Panics when
    /// sizes disagree.
    pub(crate) fn from_avec(rows: usize, cols: usize, data: AVec) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data: AVec::from_slice(&data),
        }
    }

    /// An n×1 column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Matrix {
            rows,
            cols: 1,
            data: AVec::from_slice(&data),
        }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat view of the data (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`. Panics on shape mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out = self × rhs`, writing into a caller-owned matrix (no
    /// allocation). `out` must already have shape `(self.rows, rhs.cols)`.
    ///
    /// Every output element is accumulated over `k` in ascending order
    /// starting from `0.0` — the same per-element summation sequence as
    /// [`Matrix::matmul`] and [`Matrix::matmul_transposed_into`], so all
    /// three produce bit-identical results.
    ///
    /// Dispatches to the SIMD kernel selected by
    /// [`crate::kernel::active`]; every kernel path reproduces the
    /// per-element op sequence of the test-only `matmul_into_scalar`
    /// oracle bit for bit.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::kernel::matmul_into_with(crate::kernel::active(), self, rhs, out, false);
    }

    /// The scalar reference kernel for [`Matrix::matmul_into`]: blocked
    /// i-k-j loops, 4-step k-fusion, one rounded multiply and one rounded
    /// add per `(k, j)` in ascending `k` order. Every path of
    /// [`crate::kernel::matmul_into_with`] is pinned bitwise against this.
    #[cfg(test)]
    pub(crate) fn matmul_into_scalar(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        out.data.fill(0.0);
        // i-k-j loop order: the inner loop walks both `rhs` and `out` rows
        // contiguously, which is the cache-friendly order for row-major
        // data. Four k-steps are fused per pass — each output element still
        // receives its four contributions as *separate, ascending-k adds*,
        // so the blocking only cuts `out` traffic and never changes bits
        // (pinned against the dot-form kernel by the prop tests below).
        let n = rhs.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut k = 0;
            while k + 4 <= self.cols {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let r0 = &rhs.data[k * n..(k + 1) * n];
                let r1 = &rhs.data[(k + 1) * n..(k + 2) * n];
                let r2 = &rhs.data[(k + 2) * n..(k + 3) * n];
                let r3 = &rhs.data[(k + 3) * n..(k + 4) * n];
                for j in 0..n {
                    out_row[j] =
                        (((out_row[j] + a0 * r0[j]) + a1 * r1[j]) + a2 * r2[j]) + a3 * r3[j];
                }
                k += 4;
            }
            while k < self.cols {
                let a = a_row[k];
                let rhs_row = &rhs.data[k * n..(k + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * r;
                }
                k += 1;
            }
        }
    }

    /// `out = self × btᵀ` where `bt` is the transposed right-hand side
    /// (`bt[j]` holds column `j` of the logical RHS as a contiguous row).
    ///
    /// Shapes: `self` is `m×k`, `bt` is `n×k`, `out` must be `m×n`. Both
    /// inputs are walked along contiguous rows, and several output columns
    /// are produced per pass over the `self` row (a small blocked kernel),
    /// with one independent accumulator per output element so the result is
    /// bit-identical to [`Matrix::matmul`] against the untransposed RHS.
    pub fn matmul_transposed_into(&self, bt: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, bt.cols,
            "matmul_transposed shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            bt.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, bt.rows),
            "matmul_transposed_into output shape mismatch"
        );
        let n = bt.rows;
        let kk = self.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * kk..(i + 1) * kk];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            // Blocked: four output columns per pass over `a_row`.
            while j + 4 <= n {
                let b0 = &bt.data[j * kk..(j + 1) * kk];
                let b1 = &bt.data[(j + 1) * kk..(j + 2) * kk];
                let b2 = &bt.data[(j + 2) * kk..(j + 3) * kk];
                let b3 = &bt.data[(j + 3) * kk..(j + 4) * kk];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for k in 0..kk {
                    let a = a_row[k];
                    s0 += a * b0[k];
                    s1 += a * b1[k];
                    s2 += a * b2[k];
                    s3 += a * b3[k];
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            while j < n {
                let b_row = &bt.data[j * kk..(j + 1) * kk];
                let mut s = 0.0f32;
                for k in 0..kk {
                    s += a_row[k] * b_row[k];
                }
                out_row[j] = s;
                j += 1;
            }
        }
    }

    /// Copies the contents out into a plain row-major `Vec` (the backing
    /// store itself is an aligned [`AVec`]; the
    /// [`crate::scratch::Scratch`] arena recycles it via the
    /// crate-private `into_avec` without copying).
    pub fn into_raw(self) -> Vec<f32> {
        self.data.to_vec()
    }

    /// Consumes the matrix, handing its aligned backing buffer to the
    /// caller (used by the [`crate::scratch::Scratch`] arena to recycle
    /// storage).
    pub(crate) fn into_avec(self) -> AVec {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into a caller-owned matrix (no allocation).
    /// `out` must already have shape `(self.cols, self.rows)`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise sum; panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for ((o, a), b) in out.data.iter_mut().zip(self.data.iter()).zip(rhs.data.iter()) {
            *o = a + b;
        }
        out
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (o, &a) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(a);
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0, 9.0]);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn matmul_into_overwrites_dirty_output() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::full(2, 2, f32::NAN); // stale scratch contents
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);
        let bt = b.transpose();
        let mut out2 = Matrix::full(2, 2, f32::NAN);
        a.matmul_transposed_into(&bt, &mut out2);
        assert_eq!(out2.data(), out.data());
    }

    #[test]
    fn into_raw_returns_backing_buffer() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.into_raw(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matrix_storage_is_aligned() {
        for (r, c) in [(1, 1), (3, 5), (7, 9), (16, 16)] {
            let m = Matrix::zeros(r, c);
            assert_eq!(
                m.data().as_ptr() as usize % crate::avec::ALIGN,
                0,
                "matrix backing store must be aligned for SIMD loads"
            );
        }
        let v = Matrix::row_vector(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.data().as_ptr() as usize % crate::avec::ALIGN, 0);
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::full(3, 2, f32::NAN);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn norms_and_finiteness() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert!(a.is_finite());
        let bad = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(!bad.is_finite());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0..10.0f32, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v))
    }

    /// The textbook reference the production kernels must match bit for
    /// bit: one scalar accumulator per output element, adds in ascending
    /// `k` order, no blocking.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    proptest! {
        /// (A·B)ᵀ = Bᵀ·Aᵀ.
        #[test]
        fn transpose_of_product(a in mat(3, 4), b in mat(4, 2)) {
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Matrix product distributes over addition: A·(B + C) = A·B + A·C.
        #[test]
        fn matmul_distributes(a in mat(2, 3), b in mat(3, 3), c in mat(3, 3)) {
            let left = a.matmul(&b.add(&c));
            let right = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// `matmul_into` (the blocked i-k-j kernel) is bit-identical
        /// (0 ulps) to an independent scalar triple loop — element by
        /// element, one add per ascending `k`. The odd `k = 7` exercises
        /// both the 4-step blocked body and the tail.
        #[test]
        fn matmul_into_bitwise_matches_naive(a in mat(5, 7), b in mat(7, 6)) {
            let naive = naive_matmul(&a, &b);
            let mut out = Matrix::zeros(5, 6);
            a.matmul_into(&b, &mut out);
            for (x, y) in naive.data().iter().zip(out.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Every kernel, on one thread and on two, reproduces the blocked
        /// scalar oracle bit for bit. `k = 9` crosses the 4-step fusion
        /// with a tail; `n` covers the single-column path, the vector
        /// widths and their tails; odd `m` leaves the halves unequal.
        #[test]
        fn matmul_into_with_matches_the_scalar_oracle(
            m in 1usize..8,
            n in 1usize..20,
            seed in proptest::collection::vec(-10.0..10.0f32, 9 + 9 * 20),
        ) {
            let a = Matrix::from_vec(m, 9, (0..m * 9).map(|i| seed[i % seed.len()] * 0.5).collect());
            let b = Matrix::from_vec(9, n, seed[..9 * n].to_vec());
            let mut oracle = Matrix::full(m, n, f32::NAN);
            a.matmul_into_scalar(&b, &mut oracle);
            for k in crate::kernel::supported_kernels() {
                for split in [false, true] {
                    let mut out = Matrix::full(m, n, f32::NAN);
                    crate::kernel::matmul_into_with(k, &a, &b, &mut out, split);
                    for (x, y) in oracle.data().iter().zip(out.data()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?} split {}", k, split);
                    }
                }
            }
        }

        /// The blocked transposed-RHS kernel is bit-identical (0 ulps) to
        /// the scalar triple loop, including the non-blocked tail columns.
        #[test]
        fn matmul_transposed_bitwise_matches_naive(a in mat(4, 9), b in mat(9, 7)) {
            let naive = naive_matmul(&a, &b);
            let bt = b.transpose();
            let mut out = Matrix::zeros(4, 7);
            a.matmul_transposed_into(&bt, &mut out);
            for (x, y) in naive.data().iter().zip(out.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Bit-equality must survive exact zeros in the LHS (ReLU outputs):
        /// the reference accumulates them like any other value.
        #[test]
        fn kernels_bitwise_match_with_zeroed_lhs(a in mat(3, 8), b in mat(8, 5)) {
            let a = a.map(|v| if v < 0.0 { 0.0 } else { v }); // relu-like sparsity
            let naive = a.matmul(&b);
            let bt = b.transpose();
            let mut out = Matrix::zeros(3, 5);
            a.matmul_transposed_into(&bt, &mut out);
            for (x, y) in naive.data().iter().zip(out.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
