//! Minimal complex scalars and the dense complex matrix.
//!
//! The paper's algorithm applies to "symmetric (or hermitian)" matrices;
//! the Hermitian pipeline (`tseig-hermitian`) needs complex arithmetic.
//! Rather than pulling in a dependency for one scalar type, [`C64`] and
//! [`C32`] are self-contained `#[repr(C)]` pairs with exactly the
//! operations the kernels use. [`CMatrixG`] is the dense column-major
//! complex matrix, generic over the component precision; [`CMatrix`] is
//! its historical `C64` alias.

use crate::scalar::ComplexScalar;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Double-precision complex number.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

/// Shorthand constructor.
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    pub const ZERO: C64 = c64(0.0, 0.0);
    pub const ONE: C64 = c64(1.0, 0.0);

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> C64 {
        c64(self.re, -self.im)
    }

    /// Modulus, overflow-safe.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus.
    #[inline]
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> C64 {
        c64(self.re * s, self.im * s)
    }

    /// `self * other.conj()`.
    #[inline]
    pub fn mul_conj(self, other: C64) -> C64 {
        c64(
            self.re * other.re + self.im * other.im,
            self.im * other.re - self.re * other.im,
        )
    }

    /// `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused `self * b + acc` with a pinned evaluation order: each
    /// component is a chain of two real FMAs,
    ///
    /// ```text
    /// re = fma(re, b.re, fma(-im, b.im, acc.re))
    /// im = fma(re, b.im, fma( im, b.re, acc.im))
    /// ```
    ///
    /// This is the one arithmetic op of the portable complex microkernel;
    /// fixing the order here is what makes every tile shape produce
    /// bitwise identical results for the same `k` ordering (the same
    /// contract the real SIMD kernels pin with a shared FMA chain).
    #[inline]
    pub fn mul_add(self, b: C64, acc: C64) -> C64 {
        c64(
            self.re.mul_add(b.re, (-self.im).mul_add(b.im, acc.re)),
            self.re.mul_add(b.im, self.im.mul_add(b.re, acc.im)),
        )
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> C64 {
        c64(re, 0.0)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        c64(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        c64(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        c64(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    /// Smith's algorithm: robust against intermediate overflow.
    fn div(self, o: C64) -> C64 {
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            c64((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            c64((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, o: C64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, o: C64) {
        *self = *self * o;
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6e}+{:.6e}i", self.re, self.im)
        } else {
            write!(f, "{:.6e}{:.6e}i", self.re, self.im)
        }
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Single-precision complex number: the `cheev` lane of the four-type
/// engine. Same surface as [`C64`] at `f32` components; cross-precision
/// conversions go through [`ComplexScalar`]'s `f64`-valued accessors.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C32 {
    pub re: f32,
    pub im: f32,
}

/// Shorthand constructor.
#[inline]
pub const fn c32(re: f32, im: f32) -> C32 {
    C32 { re, im }
}

impl C32 {
    pub const ZERO: C32 = c32(0.0, 0.0);
    pub const ONE: C32 = c32(1.0, 0.0);

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> C32 {
        c32(self.re, -self.im)
    }

    /// Modulus in component precision, overflow-safe.
    #[inline]
    pub fn abs(self) -> f32 {
        self.re.hypot(self.im)
    }

    /// `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused `self * b + acc`, the same pinned two-FMA-per-component
    /// order as [`C64::mul_add`], at `f32`.
    #[inline]
    pub fn mul_add(self, b: C32, acc: C32) -> C32 {
        c32(
            self.re.mul_add(b.re, (-self.im).mul_add(b.im, acc.re)),
            self.re.mul_add(b.im, self.im.mul_add(b.re, acc.im)),
        )
    }
}

impl From<f32> for C32 {
    #[inline]
    fn from(re: f32) -> C32 {
        c32(re, 0.0)
    }
}

impl Add for C32 {
    type Output = C32;
    #[inline]
    fn add(self, o: C32) -> C32 {
        c32(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C32 {
    type Output = C32;
    #[inline]
    fn sub(self, o: C32) -> C32 {
        c32(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C32 {
    type Output = C32;
    #[inline]
    fn mul(self, o: C32) -> C32 {
        c32(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C32 {
    type Output = C32;
    /// Smith's algorithm at `f32` (mirror of the [`C64`] division).
    fn div(self, o: C32) -> C32 {
        if o.re.abs() >= o.im.abs() {
            let r = o.im / o.re;
            let d = o.re + o.im * r;
            c32((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = o.re / o.im;
            let d = o.re * r + o.im;
            c32((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for C32 {
    type Output = C32;
    #[inline]
    fn neg(self) -> C32 {
        c32(-self.re, -self.im)
    }
}

impl AddAssign for C32 {
    #[inline]
    fn add_assign(&mut self, o: C32) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for C32 {
    #[inline]
    fn sub_assign(&mut self, o: C32) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for C32 {
    #[inline]
    fn mul_assign(&mut self, o: C32) {
        *self = *self * o;
    }
}

impl fmt::Debug for C32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6e}+{:.6e}i", self.re, self.im)
        } else {
            write!(f, "{:.6e}{:.6e}i", self.re, self.im)
        }
    }
}

impl fmt::Display for C32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Column-major dense complex matrix (mirror of [`crate::Matrix`]),
/// generic over the component precision. Real-valued scalar bookkeeping
/// (norms, phases, verification) goes through the `f64`-valued
/// [`ComplexScalar`] accessors regardless of `T`, so the Hermitian
/// pipeline's control logic is precision-independent.
#[derive(Clone, PartialEq)]
pub struct CMatrixG<T: ComplexScalar = C64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// The historical double-precision complex matrix.
pub type CMatrix = CMatrixG<C64>;

impl<T: ComplexScalar> CMatrixG<T> {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrixG {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = CMatrixG::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        CMatrixG { rows, cols, data }
    }

    /// Lift a real matrix into the complex field (rounding to the
    /// component precision).
    pub fn from_real(a: &crate::Matrix) -> Self {
        CMatrixG::from_fn(a.rows(), a.cols(), |i, j| T::from_f64(a[(i, j)]))
    }

    /// Round-convert from another component precision.
    pub fn from_cmatrix<S: ComplexScalar>(a: &CMatrixG<S>) -> Self {
        CMatrixG::from_fn(a.rows(), a.cols(), |i, j| {
            T::new(a[(i, j)].re(), a[(i, j)].im())
        })
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn ld(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Conjugate-transposed copy.
    pub fn adjoint(&self) -> CMatrixG<T> {
        CMatrixG::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Naive product (test oracle).
    pub fn multiply(&self, rhs: &CMatrixG<T>) -> CMatrixG<T> {
        assert_eq!(self.cols, rhs.rows);
        let mut out = CMatrixG::zeros(self.rows, rhs.cols);
        for j in 0..rhs.cols {
            for k in 0..self.cols {
                let r = rhs[(k, j)];
                if r == T::ZERO {
                    continue;
                }
                for i in 0..self.rows {
                    let add = self[(i, k)] * r;
                    out[(i, j)] += add;
                }
            }
        }
        out
    }

    /// Mirror the lower triangle onto the upper (conjugated), making the
    /// matrix exactly Hermitian; the diagonal's imaginary part is dropped.
    pub fn hermitize_from_lower(&mut self) {
        assert_eq!(self.rows, self.cols);
        for j in 0..self.cols {
            self[(j, j)] = T::new(self[(j, j)].re(), 0.0);
            for i in j + 1..self.rows {
                let v = self[(i, j)];
                self[(j, i)] = v.conj();
            }
        }
    }

    /// Real symmetric `2n x 2n` embedding `[[X, -Y], [Y, X]]` of
    /// `A = X + iY`: every eigenvalue of a Hermitian `A` appears in it
    /// exactly twice, so a real oracle certifies a complex solve.
    /// Components are widened to `f64`.
    pub fn real_embedding(&self) -> crate::Matrix {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        crate::Matrix::from_fn(2 * n, 2 * n, |i, j| {
            let (bi, ii) = (i / n, i % n);
            let (bj, jj) = (j / n, j % n);
            match (bi, bj) {
                (0, 0) | (1, 1) => self[(ii, jj)].re(),
                (0, 1) => -self[(ii, jj)].im(),
                _ => self[(ii, jj)].im(),
            }
        })
    }

    /// Maximum modulus of the element-wise difference.
    pub fn max_diff(&self, other: &CMatrixG<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max(ComplexScalar::abs(*a - *b)))
    }

    /// Maximum modulus element.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .fold(0.0f64, |m, v| m.max(ComplexScalar::abs(*v)))
    }
}

impl<T: ComplexScalar> Default for CMatrixG<T> {
    /// The empty `0 x 0` matrix.
    fn default() -> Self {
        CMatrixG::zeros(0, 0)
    }
}

impl<T: ComplexScalar> crate::dense::ColMajorMut<T> for CMatrixG<T> {
    fn nrows(&self) -> usize {
        self.rows
    }
    fn ncols(&self) -> usize {
        self.cols
    }
    fn col_major(&self) -> &[T] {
        &self.data
    }
    fn col_major_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
    fn copy_from(&mut self, other: &Self) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }
}

impl<T: ComplexScalar> std::ops::Index<(usize, usize)> for CMatrixG<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl<T: ComplexScalar> std::ops::IndexMut<(usize, usize)> for CMatrixG<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl<T: ComplexScalar> fmt::Debug for CMatrixG<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            for j in 0..self.cols.min(6) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert_eq!(a + b, c64(-2.0, 2.5));
        assert_eq!(a * C64::ONE, a);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        // |ab| == |a||b|
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-14);
        // Division inverts multiplication.
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-14);
        // mul_conj agreement.
        assert!((a.mul_conj(b) - a * b.conj()).abs() < 1e-15);
    }

    #[test]
    fn division_extreme_magnitudes() {
        let a = c64(1e300, 1e300);
        let b = c64(1e300, -1e300);
        let q = a / b;
        assert!(q.is_finite(), "{q:?}");
        // (1+i)/(1-i) = i.
        assert!((q - c64(0.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn c32_arithmetic_identities() {
        let a = c32(1.0, 2.0);
        let b = c32(-3.0, 0.5);
        assert_eq!(a + b, c32(-2.0, 2.5));
        assert_eq!(a * C32::ONE, a);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-6);
        // f32 Smith division survives magnitudes that overflow naive
        // cross products.
        let big = c32(1e30, 1e30) / c32(1e30, -1e30);
        assert!(big.is_finite() && (big - c32(0.0, 1.0)).abs() < 1e-5);
    }

    #[test]
    fn cmatrix_multiply_and_adjoint() {
        let a = CMatrix::from_fn(2, 2, |i, j| c64((i + j) as f64, 1.0));
        let id = CMatrix::identity(2);
        assert_eq!(a.multiply(&id).max_diff(&a), 0.0);
        let ah = a.adjoint();
        assert_eq!(ah[(0, 1)], a[(1, 0)].conj());
    }

    #[test]
    fn cmatrix_generic_at_c32() {
        let a: CMatrixG<C32> = CMatrixG::from_fn(3, 3, |i, j| c32(i as f32, j as f32));
        let id: CMatrixG<C32> = CMatrixG::identity(3);
        assert_eq!(a.multiply(&id).max_diff(&a), 0.0);
        // Round-trip through from_cmatrix preserves exactly-representable
        // values.
        let wide: CMatrix = CMatrixG::from_cmatrix(&a);
        let back: CMatrixG<C32> = CMatrixG::from_cmatrix(&wide);
        assert_eq!(back.max_diff(&a), 0.0);
    }

    #[test]
    fn hermitize() {
        let mut a = CMatrix::from_fn(3, 3, |i, j| c64(i as f64, (j + 1) as f64));
        a.hermitize_from_lower();
        for i in 0..3 {
            assert_eq!(a[(i, i)].im, 0.0);
            for j in 0..3 {
                assert_eq!(a[(i, j)], a[(j, i)].conj());
            }
        }
    }
}
