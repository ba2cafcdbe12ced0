//! Column-major dense matrix.
//!
//! All numerical kernels in the workspace operate on LAPACK-style
//! column-major storage: element `(i, j)` of an `m x n` matrix lives at
//! linear index `i + j * ld` where the leading dimension `ld` equals the
//! number of rows for an owning [`Matrix`]. Kernels that need to work on a
//! sub-matrix take `(&[f64], ld)` pairs; `Matrix` is the safe owner that
//! hands those out.

use crate::error::{Error, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owning column-major `f64` matrix with `ld == rows`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing column-major buffer. `data.len()` must equal
    /// `rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch(format!(
                "buffer of length {} cannot hold a {rows} x {cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from row-major data (convenient for literal test fixtures).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(Error::DimensionMismatch("ragged row list".into()));
        }
        Ok(Matrix::from_fn(r, c, |i, j| rows[i][j]))
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

    /// Leading dimension of the underlying storage (equals [`Self::rows`]).
    #[inline]
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// `true` iff the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Whole buffer, column-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Whole buffer, column-major, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct mutable columns at once (panics if `a == b`).
    pub fn cols_mut_pair(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b && a < self.cols && b < self.cols);
        let r = self.rows;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * r);
        let first = &mut head[lo * r..lo * r + r];
        let second = &mut tail[..r];
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Copy of a rectangular sub-block as a new owning matrix.
    pub fn sub_matrix(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols);
        Matrix::from_fn(nrows, ncols, |i, j| self[(row + i, col + j)])
    }

    /// Overwrite a rectangular sub-block from `src`.
    pub fn set_sub_matrix(&mut self, row: usize, col: usize, src: &Matrix) {
        assert!(row + src.rows <= self.rows && col + src.cols <= self.cols);
        for j in 0..src.cols {
            for i in 0..src.rows {
                self[(row + i, col + j)] = src[(i, j)];
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Reference (unblocked, triple-loop) matrix product `self * rhs`.
    ///
    /// This is intentionally naive: it is the oracle the optimized
    /// `tseig-kernels::blas3::gemm` is tested against, and is used by tests
    /// that must not depend on the code under test.
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for j in 0..rhs.cols {
            for k in 0..self.cols {
                let r = rhs[(k, j)];
                if r == 0.0 {
                    continue;
                }
                let a_col = self.col(k);
                let o_col = out.col_mut(j);
                for i in 0..self.rows {
                    o_col[i] += a_col[i] * r;
                }
            }
        }
        Ok(out)
    }

    /// Mirror the lower triangle into the upper triangle (in place),
    /// producing an exactly symmetric matrix. Reductions in this workspace
    /// only reference the lower triangle; tests use this to compare against
    /// dense oracles that look at the full matrix.
    pub fn symmetrize_from_lower(&mut self) {
        assert_eq!(self.rows, self.cols);
        for j in 0..self.cols {
            for i in j + 1..self.rows {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// Maximum absolute element (the max norm, `max |a_ij|`).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// `true` iff every element of `self - other` is within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Consume into the raw column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshape in place to a zero-filled `rows x cols` matrix, reusing the
    /// existing buffer. Once the buffer's capacity covers the largest shape
    /// a workspace cycles through, this never touches the allocator — the
    /// property the solve-plan layer builds its zero-allocation hot path on.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve_exact(rows * cols);
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place to the `n x n` identity, reusing the buffer
    /// (allocation-free once capacity covers `n * n`).
    pub fn reset_to_identity(&mut self, n: usize) {
        self.reset_to(n, n);
        for i in 0..n {
            self.data[i + i * n] = 1.0;
        }
    }

    /// Overwrite `self` with a copy of `other`, reusing the buffer
    /// (allocation-free once capacity covers `other`'s size).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Bytes of heap capacity retained by this matrix's buffer.
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

/// A dense matrix stored column-major with leading dimension = rows, as
/// element-type-generic code sees it: lets it take a `Matrix` and a
/// `CMatrixG` alike and still check the shape of its input.
pub trait ColMajorMut<T> {
    /// Number of rows (the leading dimension of the buffer).
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// Whole buffer, column-major.
    fn col_major(&self) -> &[T];
    /// Whole buffer, column-major, mutable.
    fn col_major_mut(&mut self) -> &mut [T];
    /// Overwrite `self` with a copy of `other`, reusing the buffer
    /// (allocation-free once capacity covers `other`'s size).
    fn copy_from(&mut self, other: &Self);
}

impl ColMajorMut<f64> for Matrix {
    fn nrows(&self) -> usize {
        self.rows
    }
    fn ncols(&self) -> usize {
        self.cols
    }
    fn col_major(&self) -> &[f64] {
        &self.data
    }
    fn col_major_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
    fn copy_from(&mut self, other: &Matrix) {
        Matrix::copy_from(self, other)
    }
}

impl Default for Matrix {
    /// The empty `0 x 0` matrix.
    fn default() -> Matrix {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // Column 1 should be contiguous: elements (0,1), (1,1).
        assert_eq!(m.col(1), &[1.0, 11.0]);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(m[(2, 1)], 6.0);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t[(1, 2)], 6.0);
        assert!(Matrix::from_rows(&[&[1.0], &[2.0, 3.0]]).is_err());
    }

    #[test]
    fn naive_multiply_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.multiply(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-15));
        assert!(a.multiply(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn multiply_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
        let i = Matrix::identity(4);
        assert!(a.multiply(&i).unwrap().approx_eq(&a, 0.0));
        assert!(i.multiply(&a).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn sub_matrix_roundtrip() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let s = m.sub_matrix(1, 2, 3, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(2, 1)], m[(3, 3)]);
        let mut m2 = Matrix::zeros(5, 5);
        m2.set_sub_matrix(1, 2, &s);
        assert_eq!(m2[(3, 3)], m[(3, 3)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn symmetrize_from_lower() {
        let mut m = Matrix::from_rows(&[&[1.0, 99.0], &[2.0, 3.0]]).unwrap();
        m.symmetrize_from_lower();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 2.0);
    }

    #[test]
    fn cols_mut_pair_disjoint() {
        let mut m = Matrix::zeros(2, 3);
        let (a, b) = m.cols_mut_pair(2, 0);
        a[0] = 1.0;
        b[1] = 2.0;
        assert_eq!(m[(0, 2)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
    }

    #[test]
    #[should_panic]
    fn cols_mut_pair_same_column_panics() {
        let mut m = Matrix::zeros(2, 3);
        let _ = m.cols_mut_pair(1, 1);
    }
}
