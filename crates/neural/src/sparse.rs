//! CSR sparse matrices for graph message passing.
//!
//! The Het-Graph Encoder (lhmm-graph) propagates messages with per-relation
//! row-normalized adjacency matrices. Those matrices are fixed during
//! training, so the tape only needs gradients with respect to the dense
//! operand: `d(A·X)/dX = Aᵀ·G`.

use crate::matrix::Matrix;

/// A compressed-sparse-row matrix with `f32` weights.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from per-row `(col, value)` lists. Panics when an index is out
    /// of bounds.
    pub fn from_rows(rows: usize, cols: usize, entries: &[Vec<(u32, f32)>]) -> Self {
        assert_eq!(entries.len(), rows, "one entry list per row");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            for &(c, v) in row {
                assert!((c as usize) < cols, "column {c} out of {cols}");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Row-normalizes in place so every non-empty row sums to 1 (the mean
    /// aggregation of Eq. 4).
    pub fn row_normalize(&mut self) {
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let sum: f32 = self.values[lo..hi].iter().sum();
            if sum > 0.0 {
                for v in &mut self.values[lo..hi] {
                    *v /= sum;
                }
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `self × dense` (rows × dense.cols).
    pub fn matmul_dense(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.matmul_dense_into(dense, &mut out, false);
        out
    }

    /// `out = self × dense` into a caller-owned `rows × dense.cols` matrix.
    /// With `split`, output rows are divided between the caller and one
    /// scoped helper thread at the row that halves the non-zeros. Each
    /// output row sums its entries in stored order either way, so both
    /// paths give the same bits.
    pub fn matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix, split: bool) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, dense.cols()),
            "spmm output shape mismatch"
        );
        let n = dense.cols();
        let half = self.row_ptr[self.rows] / 2;
        let mid = split.then(|| {
            self.row_ptr
                .partition_point(|&p| p <= half)
                .saturating_sub(1)
        });
        crate::kernel::for_row_halves(out.data_mut(), n, mid, |r0, rows| {
            rows.fill(0.0);
            if n == 0 {
                return;
            }
            for (r, out_row) in (r0..).zip(rows.chunks_exact_mut(n)) {
                let lo = self.row_ptr[r] as usize;
                let hi = self.row_ptr[r + 1] as usize;
                for k in lo..hi {
                    let c = self.col_idx[k] as usize;
                    let w = self.values[k];
                    for (o, &d) in out_row.iter_mut().zip(dense.row(c)) {
                        *o += w * d;
                    }
                }
            }
        });
    }

    /// The transposed matrix in CSR form. A stable counting sort by column:
    /// the entries of each output row keep ascending source-row order (and
    /// stored order within a source row), which is the order in which
    /// [`Self::transpose_matmul_dense`] scatters them. So
    /// `self.transpose().matmul_dense(g)` equals
    /// `self.transpose_matmul_dense(g)` bit for bit.
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_ptr = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next: Vec<u32> = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                let slot = &mut next[self.col_idx[k] as usize];
                col_idx[*slot as usize] = r as u32;
                values[*slot as usize] = self.values[k];
                *slot += 1;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `selfᵀ × dense` (cols × dense.cols) by scattering each stored entry
    /// into its output row: the reference for the backward pass of
    /// [`Self::matmul_dense`], which the tape runs as a gather over
    /// [`Self::transpose`] instead.
    pub fn transpose_matmul_dense(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.rows, dense.rows(), "spmm^T shape mismatch");
        let mut out = Matrix::zeros(self.cols, dense.cols());
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            for k in lo..hi {
                let c = self.col_idx[k] as usize;
                let w = self.values[k];
                let out_row = out.row_mut(c);
                for (o, &d) in out_row.iter_mut().zip(dense.row(r)) {
                    *o += w * d;
                }
            }
        }
        out
    }

    /// Dense copy (tests / diagnostics only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            for k in lo..hi {
                out[(r, self.col_idx[k] as usize)] += self.values[k];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        // [[0, 2, 0], [1, 0, 3]]
        SparseMatrix::from_rows(2, 3, &[vec![(1, 2.0)], vec![(0, 1.0), (2, 3.0)]])
    }

    #[test]
    fn spmm_matches_dense() {
        let sp = sample();
        let d = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let fast = sp.matmul_dense(&d);
        let slow = sp.to_dense().matmul(&d);
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let sp = sample();
        let d = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]);
        let fast = sp.transpose_matmul_dense(&d);
        let slow = sp.to_dense().transpose().matmul(&d);
        assert_eq!(fast, slow);
    }

    #[test]
    fn row_normalize_sums_to_one() {
        let mut sp = sample();
        sp.row_normalize();
        let dense = sp.to_dense();
        for r in 0..2 {
            let sum: f32 = dense.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Empty rows stay zero.
        let mut empty = SparseMatrix::from_rows(2, 2, &[vec![], vec![(0, 5.0)]]);
        empty.row_normalize();
        assert_eq!(empty.to_dense().row(0), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_swaps_shape_and_keeps_entries() {
        let sp = SparseMatrix::from_rows(3, 2, &[vec![(1, 2.0), (1, 0.5)], vec![], vec![(0, 4.0)]]);
        let t = sp.transpose();
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert_eq!(t.to_dense(), sp.to_dense().transpose());
    }

    #[test]
    fn nnz_and_shapes() {
        let sp = sample();
        assert_eq!(sp.nnz(), 3);
        assert_eq!((sp.rows(), sp.cols()), (2, 3));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tape's SpMM backward — a gather over the transposed CSR, on
        /// one thread or two — equals the scatter reference bit for bit.
        /// Row 0 always repeats a column and, from two rows up, the last
        /// row stays empty; the other entries land on random cells, so
        /// more rows repeat columns and some columns stay empty.
        #[test]
        fn transposed_csr_product_equals_the_scatter_reference(
            rows in 1usize..9,
            cols in 1usize..9,
            width in 1usize..11,
            cells in proptest::collection::vec((0usize..64, 0usize..64, -3.0..3.0f32), 0..40),
            phase in 0u32..1000,
        ) {
            let filled = (rows - 1).max(1);
            let mut entries: Vec<Vec<(u32, f32)>> = vec![Vec::new(); rows];
            entries[0].extend([(0, 1.25), (0, -0.75)]);
            for &(r, c, v) in &cells {
                entries[r % filled].push(((c % cols) as u32, v));
            }
            let sp = SparseMatrix::from_rows(rows, cols, &entries);
            let g = Matrix::from_vec(
                rows,
                width,
                (0..rows * width).map(|i| ((i as f32 + phase as f32) * 0.61).cos() * 2.0).collect(),
            );
            let reference = sp.transpose_matmul_dense(&g);
            let t = sp.transpose();
            for split in [false, true] {
                let mut out = Matrix::full(cols, width, f32::NAN);
                t.matmul_dense_into(&g, &mut out, split);
                for (a, b) in reference.data().iter().zip(out.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "split {}", split);
                }
            }
        }
    }
}
