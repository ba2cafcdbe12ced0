//! Reference oracles: the cyclic Jacobi eigensolver and a triple-loop
//! `gemm`.
//!
//! Deliberately independent of every reduction code path in this
//! workspace — Jacobi uses only plane rotations on the dense matrix — so
//! the integration tests can use it as an *oracle* for both the
//! one-stage and the two-stage pipelines. `O(n^3)` per sweep; intended
//! for `n` up to a few hundred. [`gemm_oracle`] is the differential
//! baseline the packed engine is tested (and its speedup measured)
//! against, at every element type.

use crate::blas3::Op;
use crate::flops::{add, add_bytes, Level};
use tseig_matrix::{Error, Matrix, Result, Scalar};

/// Naive triple-loop `C <- alpha op(A) op(B) + beta C`, all
/// `No`/`Trans`/`ConjTrans` combinations, with BLAS semantics: `beta ==
/// 0` overwrites `C` without reading it and `alpha == 0` (or `k == 0`)
/// leaves `beta C`. Not called by the pipeline. Byte accounting is the
/// streamed model (`A`/`B` read once, `C` read and written once) that
/// its unblocked access pattern actually has.
#[allow(clippy::too_many_arguments)]
pub fn gemm_oracle<T: Scalar>(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, T::BYTES * (m * k + k * n + 2 * m * n) as u64);
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else if beta != T::ONE {
            for v in col.iter_mut() {
                *v *= beta;
            }
        }
    }
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let at = |i: usize, p: usize| match opa {
        Op::No => a[i + p * lda],
        Op::Trans => a[p + i * lda],
        Op::ConjTrans => a[p + i * lda].conj(),
    };
    let bt = |p: usize, j: usize| match opb {
        Op::No => b[p + j * ldb],
        Op::Trans => b[j + p * ldb],
        Op::ConjTrans => b[j + p * ldb].conj(),
    };
    for j in 0..n {
        for i in 0..m {
            let mut s = T::ZERO;
            for p in 0..k {
                s += at(i, p) * bt(p, j);
            }
            c[i + j * ldc] += alpha * s;
        }
    }
}

/// Result of a Jacobi diagonalization: eigenvalues ascending, and the
/// matching eigenvectors as columns (if requested).
pub struct JacobiEigen {
    pub eigenvalues: Vec<f64>,
    pub eigenvectors: Option<Matrix>,
    /// Number of sweeps that were needed.
    pub sweeps: usize,
}

/// Diagonalize a dense symmetric matrix with the cyclic-by-row Jacobi
/// method. Only the lower triangle of `a` is referenced.
pub fn jacobi_eigen(a: &Matrix, with_vectors: bool) -> Result<JacobiEigen> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    let mut m = a.clone();
    m.symmetrize_from_lower();
    let mut v = if with_vectors {
        Some(Matrix::identity(n))
    } else {
        None
    };

    let max_sweeps = 64;
    let mut sweeps = 0;
    for sweep in 0..max_sweeps {
        sweeps = sweep + 1;
        let off = off_diag_norm(&m);
        let scale = frob(&m).max(f64::MIN_POSITIVE);
        if off <= 1e-14 * scale {
            sweeps = sweep;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq == 0.0 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Rotation angle (Golub & Van Loan, symmetric Schur).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate(&mut m, p, q, c, s);
                if let Some(vm) = v.as_mut() {
                    for i in 0..n {
                        let vip = vm[(i, p)];
                        let viq = vm[(i, q)];
                        vm[(i, p)] = c * vip - s * viq;
                        vm[(i, q)] = s * vip + c * viq;
                    }
                }
            }
        }
        if sweep + 1 == max_sweeps {
            return Err(Error::NoConvergence {
                index: 0,
                iterations: max_sweeps,
            });
        }
    }

    let mut eig: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    eig.sort_by(|a, b| a.0.total_cmp(&b.0));
    let eigenvalues: Vec<f64> = eig.iter().map(|e| e.0).collect();
    let eigenvectors = v.map(|vm| Matrix::from_fn(n, n, |i, j| vm[(i, eig[j].1)]));
    Ok(JacobiEigen {
        eigenvalues,
        eigenvectors,
        sweeps,
    })
}

/// Apply the rotation `J(p, q, c, s)` as a similarity: `M <- J^T M J`.
fn rotate(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    for i in 0..n {
        let mip = m[(i, p)];
        let miq = m[(i, q)];
        m[(i, p)] = c * mip - s * miq;
        m[(i, q)] = s * mip + c * miq;
    }
    for j in 0..n {
        let mpj = m[(p, j)];
        let mqj = m[(q, j)];
        m[(p, j)] = c * mpj - s * mqj;
        m[(q, j)] = s * mpj + c * mqj;
    }
}

fn off_diag_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for j in 0..n {
        for i in 0..n {
            if i != j {
                s += m[(i, j)] * m[(i, j)];
            }
        }
    }
    s.sqrt()
}

fn frob(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { (4 - i) as f64 } else { 0.0 });
        let r = jacobi_eigen(&a, true).unwrap();
        assert_eq!(r.eigenvalues, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.sweeps, 0);
        // Eigenvectors are a permutation matrix here.
        let z = r.eigenvectors.unwrap();
        assert!(norms::orthogonality(&z) < 10.0);
    }

    #[test]
    fn two_by_two_known() {
        // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let r = jacobi_eigen(&a, true).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((r.eigenvalues[1] - 3.0).abs() < 1e-12);
        let z = r.eigenvectors.unwrap();
        assert!(norms::eigen_residual(&a, &r.eigenvalues, &z) < 50.0);
    }

    #[test]
    fn recovers_prescribed_spectrum() {
        let lambda = gen::linspace(-3.0, 5.0, 24);
        let a = gen::symmetric_with_spectrum(&lambda, 99);
        let r = jacobi_eigen(&a, true).unwrap();
        assert!(
            norms::eigenvalue_distance(&lambda, &r.eigenvalues) < 1e-11,
            "eigenvalues off: {:?}",
            r.eigenvalues
        );
        let z = r.eigenvectors.unwrap();
        assert!(norms::eigen_residual(&a, &r.eigenvalues, &z) < 100.0);
        assert!(norms::orthogonality(&z) < 100.0);
    }

    #[test]
    fn eigenvalues_only_mode() {
        let a = gen::random_symmetric(15, 3);
        let r = jacobi_eigen(&a, false).unwrap();
        assert!(r.eigenvectors.is_none());
        assert_eq!(r.eigenvalues.len(), 15);
        assert!(r.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
    }
}
