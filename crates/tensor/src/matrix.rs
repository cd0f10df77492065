//! Row-major dense `f32` matrix.

use crate::{kernels, packed, Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the workhorse type of the workspace: activations, weights,
/// gradients and datasets are all represented as matrices. The type is kept
/// deliberately simple — no views, no strides — because the models in this
/// reproduction are small and clarity beats cleverness for a research
/// artefact.
///
/// # Example
///
/// ```
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_tensor::TensorError> {
/// let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// let y = x.transpose();
/// assert_eq!(y.shape(), (3, 2));
/// assert_eq!(y.get(2, 1), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s buffer when its
    /// capacity allows (activation caches refilled every batch).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimensions`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimensions {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] for an empty slice and
    /// [`TensorError::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::EmptyMatrix { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    found: r.len(),
                    row: i,
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a 1×`n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates an `n`×1 column vector from a slice.
    pub fn column_vector(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
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

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Matrix::try_get`] for a
    /// fallible variant.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Fallible access to the value at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn try_get(&self, row: usize, col: usize) -> Result<f32> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrow row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrow row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies column `col` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f32> {
        assert!(
            col < self.cols,
            "col {col} out of bounds ({} cols)",
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + col])
            .collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Builds a new matrix containing only the rows whose indices are listed
    /// in `indices`, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &idx in indices {
            data.extend_from_slice(self.row(idx));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Like [`Matrix::select_rows`], but writes the gathered rows into a
    /// caller-provided matrix, reusing its buffer when capacity allows.
    ///
    /// The destination is resized to `indices.len() × self.cols()`; its
    /// previous contents are discarded. Repeated gathers into the same
    /// buffer (e.g. batch assembly inside a training loop) therefore
    /// allocate only when a batch grows beyond every previous one. The
    /// gathered values are byte-identical to [`Matrix::select_rows`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &idx in indices {
            out.data.extend_from_slice(self.row(idx));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// Stacks two matrices with the same number of columns vertically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        // In 8×8 blocks transposed through registers, so both sides are
        // read and written a short contiguous run at a time.
        const B: usize = 8;
        let (rows_main, cols_main) = (rows - rows % B, cols - cols % B);
        for r0 in (0..rows_main).step_by(B) {
            for c0 in (0..cols_main).step_by(B) {
                // block[j][i] = self[r0 + i][c0 + j]
                let mut block = [[0.0f32; B]; B];
                for i in 0..B {
                    let at = (r0 + i) * cols + c0;
                    for (block_row, &v) in block.iter_mut().zip(&self.data[at..at + B]) {
                        block_row[i] = v;
                    }
                }
                for (j, block_row) in block.iter().enumerate() {
                    let at = (c0 + j) * rows + r0;
                    out.data[at..at + B].copy_from_slice(block_row);
                }
            }
        }
        for r in 0..rows {
            let c_start = if r < rows_main { cols_main } else { 0 };
            for c in c_start..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`, computed with the cache-blocked,
    /// register-tiled kernel in `kernels.rs` (large shapes split their row
    /// panels across the persistent worker pool on multi-core hosts;
    /// results are identical for any worker count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Batched matrix product against one shared right-hand side:
    /// `result[i] = batch[i] · self` for every operand in `batch`.
    ///
    /// The shared `self` is packed into cache-friendly column panels **once**
    /// and reused across the whole batch (see `packed.rs`), which amortises
    /// the packing cost that a per-call `matmul` at these (typically small)
    /// shapes cannot recover. This is the per-round suffix shape of the
    /// federated workload: every client applies the same global layer
    /// weights to its own activations. Large batches additionally fan the
    /// items out across the persistent worker pool over the shared packed
    /// panels.
    ///
    /// Each result is byte-identical to `batch[i].matmul(self)` — both paths
    /// accumulate every output element in strictly ascending `k` order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if any operand's column count
    /// differs from `self.rows()`. Nothing is computed in that case.
    pub fn matmul_batch(&self, batch: &[&Matrix]) -> Result<Vec<Matrix>> {
        for a in batch {
            if a.cols != self.rows {
                return Err(TensorError::ShapeMismatch {
                    op: "matmul_batch",
                    lhs: a.shape(),
                    rhs: self.shape(),
                });
            }
        }
        let mut outs: Vec<Matrix> = batch
            .iter()
            .map(|a| Matrix::zeros(a.rows, self.cols))
            .collect();
        let mut items: Vec<(usize, &[f32], &mut [f32])> = batch
            .iter()
            .zip(outs.iter_mut())
            .map(|(a, out)| (a.rows, a.data.as_slice(), out.data.as_mut_slice()))
            .collect();
        packed::gemm_batch_shared_b(self.rows, self.cols, &mut items, &self.data);
        Ok(outs)
    }

    /// Matrix product `self * other` via the reference triple loop.
    ///
    /// Kept as the correctness oracle for the blocked kernel (equivalence
    /// tests and benchmark comparisons); not used on any hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_naive(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps accesses to `other` contiguous.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self^T * other`.
    ///
    /// Materialises the (cheap, `O(rows·cols)`) transpose and dispatches to
    /// the blocked kernel, which beats the transpose-free scattered-write
    /// loop for every shape the workspace uses.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows() == other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        let at = self.transpose();
        kernels::gemm_nn(
            self.cols,
            self.rows,
            other.cols,
            &at.data,
            &other.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix product `self * other^T`.
    ///
    /// Materialises the (cheap) transpose of `other` and dispatches to the
    /// blocked kernel; the row-dot-product formulation it replaces could not
    /// reuse loaded rows across outputs.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        let bt = other.transpose();
        kernels::gemm_nn(
            self.rows,
            self.cols,
            other.rows,
            &self.data,
            &bt.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Adds `other` to `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `scale * other` to `self` in place (an AXPY update).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a copy with every element multiplied by `scale`.
    pub fn scale(&self, scale: f32) -> Matrix {
        self.map(|v| v * scale)
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_assign(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_assign<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds a 1×`cols` row vector to every row (broadcasting).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is 1×`self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Result<Matrix> {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias)?;
        Ok(out)
    }

    /// Adds a 1×`cols` row vector to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is 1×`self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) -> Result<()> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: bias.shape(),
            });
        }
        if self.cols == 0 {
            return Ok(());
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums over rows, producing a 1×`cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.cols == 0 {
            return out;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Means over rows, producing a 1×`cols` row vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] when the matrix has no rows.
    pub fn mean_rows(&self) -> Result<Matrix> {
        if self.rows == 0 {
            return Err(TensorError::EmptyMatrix { op: "mean_rows" });
        }
        let mut out = self.sum_rows();
        out.scale_assign(1.0 / self.rows as f32);
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Largest element; `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; `f32::INFINITY` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Checks approximate equality within an absolute tolerance.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Centres each column to zero mean (used by the CKA computation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyMatrix`] when the matrix has no rows.
    pub fn center_columns(&self) -> Result<Matrix> {
        let means = self.mean_rows()?;
        let mut out = self.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] -= means.data[c];
            }
        }
        Ok(out)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 2);
        assert_eq!(z.sum(), 0.0);
        let f = Matrix::full(2, 2, 3.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, TensorError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, TensorError::EmptyMatrix { .. }));
    }

    #[test]
    fn row_and_column_vectors() {
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        let c = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = sample();
        m.set(1, 2, 42.0);
        assert_eq!(m.get(1, 2), 42.0);
    }

    #[test]
    fn try_get_out_of_bounds() {
        let m = sample();
        assert!(m.try_get(5, 0).is_err());
        assert_eq!(m.try_get(0, 1).unwrap(), 2.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32).collect()).unwrap();
        let expected = a.transpose().matmul(&b).unwrap();
        assert!(a.matmul_tn(&b).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect()).unwrap();
        let expected = a.matmul(&b.transpose()).unwrap();
        assert!(a.matmul_nt(&b).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = sample();
        assert_eq!(a.add(&b).unwrap().get(0, 0), 2.0);
        assert_eq!(a.sub(&b).unwrap().sum(), 0.0);
        assert_eq!(a.hadamard(&b).unwrap().get(1, 2), 36.0);
    }

    #[test]
    fn add_scaled_assign_axpy() {
        let mut a = sample();
        let b = sample();
        a.add_scaled_assign(&b, -1.0).unwrap();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn broadcast_bias() {
        let m = sample();
        let bias = Matrix::row_vector(&[1.0, 1.0, 1.0]);
        let out = m.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.get(0, 0), 2.0);
        assert_eq!(out.get(1, 2), 7.0);
    }

    #[test]
    fn row_ops_and_transpose_accept_empty_shapes() {
        // `chunks_exact(0)` panics, so zero-column matrices must not reach
        // the row iterators.
        for (rows, cols) in [(0, 0), (0, 3), (3, 0)] {
            let m = Matrix::zeros(rows, cols);
            let bias = Matrix::zeros(1, cols);
            assert_eq!(m.add_row_broadcast(&bias).unwrap().shape(), (rows, cols));
            let mut in_place = m.clone();
            in_place.add_row_broadcast_assign(&bias).unwrap();
            assert_eq!(in_place, m);
            assert_eq!(m.sum_rows(), Matrix::zeros(1, cols));
            assert_eq!(m.transpose().shape(), (cols, rows));
        }
    }

    #[test]
    fn transpose_matches_elementwise_definition_on_block_remainders() {
        let m = Matrix::from_vec(11, 9, (0..99).map(|v| v as f32).collect()).unwrap();
        let t = m.transpose();
        for r in 0..11 {
            for c in 0..9 {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
    }

    #[test]
    fn broadcast_bias_rejects_bad_shape() {
        let m = sample();
        let bias = Matrix::row_vector(&[1.0, 1.0]);
        assert!(m.add_row_broadcast(&bias).is_err());
    }

    #[test]
    fn reductions() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.sum_rows().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.mean_rows().unwrap().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert_eq!(m.norm_sq(), 25.0);
        assert_eq!(m.norm(), 5.0);
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn select_rows_into_matches_select_rows_and_reuses_buffer() {
        let m = sample();
        let mut buf = Matrix::default();
        m.select_rows_into(&[1, 0, 1], &mut buf);
        assert_eq!(buf, m.select_rows(&[1, 0, 1]));
        // A second, smaller gather reuses the buffer and fully overwrites it.
        m.select_rows_into(&[0], &mut buf);
        assert_eq!(buf, m.select_rows(&[0]));
        assert_eq!(buf.shape(), (1, 3));
        // An empty gather yields an empty 0×cols matrix.
        m.select_rows_into(&[], &mut buf);
        assert_eq!(buf.shape(), (0, 3));
        assert!(buf.is_empty());
    }

    #[test]
    fn vstack_concatenates() {
        let m = sample();
        let s = m.vstack(&m).unwrap();
        assert_eq!(s.shape(), (4, 3));
        assert_eq!(s.row(3), m.row(1));
    }

    #[test]
    fn vstack_rejects_mismatch() {
        let m = sample();
        assert!(m.vstack(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn center_columns_zero_mean() {
        let m = sample();
        let c = m.center_columns().unwrap();
        let means = c.mean_rows().unwrap();
        for &v in means.as_slice() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn map_and_scale() {
        let m = sample();
        assert_eq!(m.map(|v| v * 2.0).sum(), 42.0);
        assert_eq!(m.scale(0.0).sum(), 0.0);
        let mut m2 = m.clone();
        m2.scale_assign(2.0);
        assert_eq!(m2.sum(), 42.0);
    }

    #[test]
    fn column_extraction() {
        let m = sample();
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }

    #[test]
    fn iter_rows_counts() {
        let m = sample();
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = sample();
        assert!(m.is_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn matrix_is_serializable_and_send() {
        fn assert_serialize<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_serialize::<Matrix>();
        assert_send_sync::<Matrix>();
    }
}
