//! Output checks, run outside the timed interval on every solve.
//!
//! Acceptance uses the workspace's max-norm measures
//! (`tseig_matrix::norms`, `svd_residual`, `generalized_residual`,
//! `hermitian_residual`, ...): a request fails when it returns `Err`,
//! returns the wrong number of values, or any measure exceeds [`ACCEPT`]
//! (or is not finite).
//!
//! The reported accuracy uses LAPACK's normwise measures (`dsyt21`,
//! `dbdt01`): 1-norms of the residual and of `ZᵀZ − I`, scaled by
//! `n ||A||_1 eps` and `n eps`, and the mean eigenvalue error over
//! `||A||_1 eps`. A max-norm measure is the largest of n² rounding
//! errors and moves by half between seeds; the 1-norm sums whole columns
//! and moves by a few percent, so it can gate a change.

use tseig_core::generalized::{b_orthogonality, generalized_residual};
use tseig_core::TwoStageResult;
use tseig_hermitian::validate::{hermitian_residual, unitary_error};
use tseig_hermitian::HermitianResult;
use tseig_kernels::blas3::{gemm, Trans};
use tseig_matrix::{c64, norms, CMatrix, Matrix, Result};
use tseig_svd::drivers::svd_residual;
use tseig_svd::Svd;

/// Acceptance bound on every scaled measure.
pub const ACCEPT: f64 = 100.0;

/// Worst normwise measures seen, 0 where a measure does not apply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accuracy {
    pub residual: f64,
    pub orth: f64,
    pub eigval: f64,
}

impl Accuracy {
    pub fn worst(&self) -> f64 {
        self.residual.max(self.orth).max(self.eigval)
    }

    pub fn merge(&mut self, o: Accuracy) {
        self.residual = self.residual.max(o.residual);
        self.orth = self.orth.max(o.orth);
        self.eigval = self.eigval.max(o.eigval);
    }

    fn finite(&self) -> bool {
        [self.residual, self.orth, self.eigval]
            .iter()
            .all(|x| x.is_finite())
    }
}

/// Outcome of checking one request: its normwise accuracy, or `None`
/// when it failed.
pub type Checked = Option<Accuracy>;

/// `acc` when every max-norm measure in `maxnorm` passes and the normwise
/// ones are finite.
fn accept(maxnorm: &[f64], acc: Accuracy) -> Checked {
    let pass = maxnorm.iter().all(|x| x.is_finite() && *x <= ACCEPT);
    (pass && acc.finite()).then_some(acc)
}

/// `||M||_1`, the largest column sum.
fn norm1(rows: usize, cols: usize, m: &[f64]) -> f64 {
    (0..cols)
        .map(|j| {
            m[j * rows..(j + 1) * rows]
                .iter()
                .map(|x| x.abs())
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// `||X^T Y - I||_1 / (n eps)` for `n x k` `X`, `Y`.
fn gram_error(x: &Matrix, y: &Matrix) -> f64 {
    let (n, k) = (x.rows(), x.cols());
    let mut g = Matrix::identity(k);
    gemm(
        Trans::Yes,
        Trans::No,
        k,
        k,
        n,
        1.0,
        x.as_slice(),
        n,
        y.as_slice(),
        n,
        -1.0,
        g.as_mut_slice(),
        k,
    );
    norm1(k, k, g.as_slice()) / (n as f64 * norms::EPS)
}

/// `A X - Y diag(d)` for square `A` and `n x k` `X`, `Y`.
fn residual_matrix(a: &Matrix, x: &Matrix, y: &Matrix, d: &[f64]) -> Matrix {
    let (n, k) = (x.rows(), x.cols());
    let mut r = y.clone();
    for (j, &dj) in d.iter().enumerate() {
        for v in r.col_mut(j) {
            *v *= -dj;
        }
    }
    gemm(
        Trans::No,
        Trans::No,
        n,
        k,
        n,
        1.0,
        a.as_slice(),
        n,
        x.as_slice(),
        n,
        1.0,
        r.as_mut_slice(),
        n,
    );
    r
}

fn ascending(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite()) && v.windows(2).all(|w| w[0] <= w[1])
}

/// Symmetric eig: residual and orthogonality when vectors came back,
/// eigenvalue error against `truth` when the spectrum is known.
pub fn eig(a: &Matrix, lambda: &[f64], z: Option<&Matrix>, truth: Option<&[f64]>) -> Checked {
    let n = a.rows();
    if lambda.len() != n || !ascending(lambda) {
        return None;
    }
    let anorm = norms::norm1(a).max(norms::EPS);
    let mut maxnorm = Vec::new();
    let mut acc = Accuracy::default();
    if let Some(z) = z {
        if z.rows() != n || z.cols() != n {
            return None;
        }
        maxnorm.push(norms::eigen_residual(a, lambda, z));
        maxnorm.push(norms::orthogonality(z));
        let r = residual_matrix(a, z, z, lambda);
        acc.residual = norm1(n, n, r.as_slice()) / (n as f64 * anorm * norms::EPS);
        acc.orth = gram_error(z, z);
    }
    if let Some(t) = truth {
        let err: Vec<f64> = lambda.iter().zip(t).map(|(x, y)| (x - y).abs()).collect();
        maxnorm.push(err.iter().copied().fold(0.0, f64::max) / (n as f64 * anorm * norms::EPS));
        acc.eigval = err.iter().sum::<f64>() / (n as f64 * anorm * norms::EPS);
    }
    accept(&maxnorm, acc)
}

pub fn eig_result(
    a: &Matrix,
    r: &Result<TwoStageResult>,
    want_vectors: bool,
    truth: Option<&[f64]>,
) -> Checked {
    let r = r.as_ref().ok()?;
    if want_vectors != r.eigenvectors.is_some() {
        return None;
    }
    eig(a, &r.eigenvalues, r.eigenvectors.as_ref(), truth)
}

/// Symmetric-definite pencil: scaled residual and B-orthonormality.
pub fn gen(a: &Matrix, b: &Matrix, r: &Result<TwoStageResult>) -> Checked {
    let r = r.as_ref().ok()?;
    let x = r.eigenvectors.as_ref()?;
    let n = a.rows();
    if r.eigenvalues.len() != n || !ascending(&r.eigenvalues) || x.rows() != n || x.cols() != n {
        return None;
    }
    let lmax = r.eigenvalues.iter().fold(0.0f64, |m, l| m.max(l.abs()));
    let scale = (norms::norm1(a) + lmax * norms::norm1(b)).max(norms::EPS) * n as f64 * norms::EPS;
    let mut bx = Matrix::zeros(n, n);
    gemm(
        Trans::No,
        Trans::No,
        n,
        n,
        n,
        1.0,
        b.as_slice(),
        n,
        x.as_slice(),
        n,
        0.0,
        bx.as_mut_slice(),
        n,
    );
    let res = residual_matrix(a, x, &bx, &r.eigenvalues);
    let acc = Accuracy {
        residual: norm1(n, n, res.as_slice()) / scale,
        orth: gram_error(x, &bx),
        eigval: 0.0,
    };
    accept(
        &[
            generalized_residual(a, b, &r.eigenvalues, x),
            b_orthogonality(b, x),
        ],
        acc,
    )
}

/// Thin SVD: reconstruction residual and orthogonality of `U` and `V`.
pub fn svd(a: &Matrix, r: &Result<Svd>) -> Checked {
    let s = r.as_ref().ok()?;
    let (m, n) = (a.rows(), a.cols());
    let descending =
        s.s.iter().all(|x| x.is_finite() && *x >= 0.0) && s.s.windows(2).all(|w| w[0] >= w[1]);
    if s.s.len() != n
        || !descending
        || s.u.rows() != m
        || s.u.cols() != n
        || s.v.rows() != n
        || s.v.cols() != n
    {
        return None;
    }
    // A - (U S) V^T
    let mut us = s.u.clone();
    for (j, &sj) in s.s.iter().enumerate() {
        for v in us.col_mut(j) {
            *v *= sj;
        }
    }
    let mut res = a.clone();
    gemm(
        Trans::No,
        Trans::Yes,
        m,
        n,
        n,
        -1.0,
        us.as_slice(),
        m,
        s.v.as_slice(),
        n,
        1.0,
        res.as_mut_slice(),
        m,
    );
    let acc = Accuracy {
        residual: norm1(m, n, res.as_slice())
            / (m.max(n) as f64 * norms::norm1(a).max(norms::EPS) * norms::EPS),
        orth: gram_error(&s.u, &s.u).max(gram_error(&s.v, &s.v)),
        eigval: 0.0,
    };
    let maxnorm = [
        svd_residual(a, s),
        norms::orthogonality(&s.u).max(norms::orthogonality(&s.v)),
    ];
    accept(&maxnorm, acc)
}

/// Hermitian eig: residual and unitarity of the eigenvectors.
pub fn herm(a: &CMatrix, r: &Result<HermitianResult>) -> Checked {
    let r = r.as_ref().ok()?;
    let z = r.eigenvectors.as_ref()?;
    let n = a.rows();
    if r.eigenvalues.len() != n || !ascending(&r.eigenvalues) || z.rows() != n || z.cols() != n {
        return None;
    }
    let cnorm1 = |m: &CMatrix, sub_identity: bool| -> f64 {
        (0..n)
            .map(|j| {
                (0..n)
                    .map(|i| {
                        let d = if sub_identity && i == j { 1.0 } else { 0.0 };
                        (m[(i, j)] - c64(d, 0.0)).abs()
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    };
    let mut res = a.multiply(z);
    for (j, &l) in r.eigenvalues.iter().enumerate() {
        for i in 0..n {
            res[(i, j)] -= z[(i, j)].scale(l);
        }
    }
    let anorm = cnorm1(a, false).max(norms::EPS);
    let acc = Accuracy {
        residual: cnorm1(&res, false) / (n as f64 * anorm * norms::EPS),
        orth: cnorm1(&z.adjoint().multiply(z), true) / (n as f64 * norms::EPS),
        eigval: 0.0,
    };
    accept(
        &[hermitian_residual(a, &r.eigenvalues, z), unitary_error(z)],
        acc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::gen;

    #[test]
    fn rejects_wrong_answers() {
        let a = gen::random_symmetric(24, 1);
        let r = tseig_core::SymmetricEigen::new().nb(8).solve(&a).unwrap();
        let z = r.eigenvectors.clone().unwrap();
        assert!(eig(&a, &r.eigenvalues, Some(&z), None).is_some());
        let mut wrong = r.eigenvalues.clone();
        wrong[3] += 1e-6;
        assert!(eig(&a, &wrong, Some(&z), None).is_none());
        assert!(eig(&a, &r.eigenvalues, None, Some(&wrong)).is_none());
        let err: Result<TwoStageResult> = Err(tseig_matrix::Error::Runtime("x".into()));
        assert!(eig_result(&a, &err, true, None).is_none());
        assert!(eig_result(&a, &Ok(r), false, None).is_none());
    }
}
