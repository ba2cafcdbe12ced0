//! Reproducible workload generators for tests, examples and benchmarks.
//!
//! The key routine is [`symmetric_with_spectrum`]: it builds
//! `A = Q diag(lambda) Q^T` for a random orthogonal `Q`, giving a dense
//! symmetric matrix whose exact eigenvalues are known in advance — the
//! standard way to validate an eigensolver end to end.

use crate::complex::{c64, CMatrix};
use crate::dense::Matrix;
use crate::tridiagonal::SymTridiagonal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense symmetric matrix with i.i.d. uniform `[-1, 1]` entries
/// (symmetrized). This mirrors the random test matrices used in the
/// paper's experiments.
pub fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = rng.gen_range(-1.0..1.0);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

/// Dense Hermitian matrix with i.i.d. uniform `[-1, 1]` real and
/// imaginary parts (lower triangle mirrored, diagonal real): the complex
/// counterpart of [`random_symmetric`].
pub fn random_hermitian(n: usize, seed: u64) -> CMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = CMatrix::from_fn(n, n, |_, _| {
        c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    a.hermitize_from_lower();
    a
}

/// Dense symmetric matrix `Q diag(lambda) Q^T` with prescribed spectrum
/// `lambda` and a Haar-ish random orthogonal `Q` built from `n` random
/// Householder reflections (LAPACK `dlatms`-style).
pub fn symmetric_with_spectrum(lambda: &[f64], seed: u64) -> Matrix {
    let n = lambda.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = lambda[i];
    }
    // Apply H_k ... H_1 A H_1 ... H_k with random reflectors; each
    // similarity transform preserves the spectrum exactly.
    let mut v = vec![0.0f64; n];
    for k in 0..n {
        // Random unit vector supported on rows k..n keeps cost O(n^3)
        // total while still filling the whole matrix.
        let len = n - k;
        let mut norm2 = 0.0;
        for x in v.iter_mut().take(len) {
            *x = rng.gen_range(-1.0..1.0);
            norm2 += *x * *x;
        }
        if norm2 == 0.0 {
            continue;
        }
        let inv = 1.0 / norm2.sqrt();
        for x in v.iter_mut().take(len) {
            *x *= inv;
        }
        apply_householder_similarity(&mut a, &v[..len], k);
    }
    a
}

/// `A <- H A H` with `H = I - 2 v v^T` acting on rows/cols `off..off+v.len()`.
fn apply_householder_similarity(a: &mut Matrix, v: &[f64], off: usize) {
    let n = a.rows();
    let m = v.len();
    // w_j = sum_i v_i * A(off+i, j)  for every column j, then
    // A(off+i, j) -= 2 v_i w_j  (left application), then the same from the
    // right using symmetry of the pattern (not of the intermediate matrix).
    let w: Vec<f64> = (0..n)
        .map(|j| {
            let col = a.col(j);
            v.iter()
                .zip(&col[off..off + m])
                .map(|(vi, ci)| vi * ci)
                .sum()
        })
        .collect();
    for (j, &wj) in w.iter().enumerate() {
        let col = a.col_mut(j);
        let wj2 = 2.0 * wj;
        for i in 0..m {
            col[off + i] -= wj2 * v[i];
        }
    }
    // Right application: A <- A H, i.e. for every row r:
    // A(r, off+j) -= 2 * (sum_k A(r, off+k) v_k) v_j.
    let mut u = vec![0.0f64; n];
    for (r, ur) in u.iter_mut().enumerate() {
        let mut s = 0.0;
        for k in 0..m {
            s += a[(r, off + k)] * v[k];
        }
        *ur = s;
    }
    for (j, &vj) in v.iter().enumerate() {
        let vj2 = 2.0 * vj;
        let col = a.col_mut(off + j);
        for r in 0..n {
            col[r] -= u[r] * vj2;
        }
    }
}

/// Linearly spaced eigenvalues in `[lo, hi]` (inclusive endpoints).
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n == 0 {
        return vec![];
    }
    if n == 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Eigenvalue distribution with a cluster: `n - k` values spread over
/// `[lo, hi]` plus `k` values packed within `width` of `hi`. Stresses
/// deflation (D&C) and reorthogonalization (inverse iteration).
pub fn clustered_spectrum(n: usize, k: usize, lo: f64, hi: f64, width: f64) -> Vec<f64> {
    assert!(k <= n);
    let mut v = linspace(lo, hi, n - k);
    for i in 0..k {
        v.push(hi - width * i as f64 / k.max(1) as f64);
    }
    v
}

/// Wilkinson matrix `W_n^+`: tridiagonal with diagonal
/// `|m - i|` (`m = (n-1)/2`) and unit off-diagonals. Famous for pairs of
/// pathologically close eigenvalues.
pub fn wilkinson(n: usize) -> SymTridiagonal {
    let m = (n as f64 - 1.0) / 2.0;
    let d: Vec<f64> = (0..n).map(|i| (i as f64 - m).abs()).collect();
    let e = vec![1.0; n.saturating_sub(1)];
    SymTridiagonal::new(d, e)
}

/// Clement (Kac–Sylvester) matrix of order `n`: zero diagonal,
/// `e_i = sqrt((i+1)(n-1-i))`; exact eigenvalues are
/// `-(n-1), -(n-3), ..., (n-3), (n-1)`.
pub fn clement(n: usize) -> SymTridiagonal {
    let d = vec![0.0; n];
    let e: Vec<f64> = (0..n.saturating_sub(1))
        .map(|i| (((i + 1) * (n - 1 - i)) as f64).sqrt())
        .collect();
    SymTridiagonal::new(d, e)
}

/// Exact eigenvalues of [`clement`], sorted ascending.
pub fn clement_eigenvalues(n: usize) -> Vec<f64> {
    (0..n).map(|k| 2.0 * k as f64 - (n as f64 - 1.0)).collect()
}

/// 1-D Dirichlet Laplacian: tridiagonal `(2, -1)`. Exact eigenvalues are
/// `2 - 2 cos(k pi / (n + 1))`, `k = 1..=n`.
pub fn laplacian_1d(n: usize) -> SymTridiagonal {
    SymTridiagonal::new(vec![2.0; n], vec![-1.0; n.saturating_sub(1)])
}

/// Exact eigenvalues of [`laplacian_1d`], sorted ascending.
pub fn laplacian_1d_eigenvalues(n: usize) -> Vec<f64> {
    (1..=n)
        .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
        .collect()
}

/// Dense 2-D Dirichlet Laplacian on an `nx x ny` grid (order `nx*ny`),
/// as a dense symmetric matrix — a realistic PDE-flavoured workload for
/// the full pipeline.
pub fn laplacian_2d(nx: usize, ny: usize) -> Matrix {
    let n = nx * ny;
    let mut a = Matrix::zeros(n, n);
    let idx = |x: usize, y: usize| x + y * nx;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            a[(i, i)] = 4.0;
            if x + 1 < nx {
                a[(i, idx(x + 1, y))] = -1.0;
                a[(idx(x + 1, y), i)] = -1.0;
            }
            if y + 1 < ny {
                a[(i, idx(x, y + 1))] = -1.0;
                a[(idx(x, y + 1), i)] = -1.0;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_symmetric_is_symmetric() {
        let a = random_symmetric(17, 42);
        for i in 0..17 {
            for j in 0..17 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
        // Determinism.
        assert!(a.approx_eq(&random_symmetric(17, 42), 0.0));
        assert!(!a.approx_eq(&random_symmetric(17, 43), 1e-8));
    }

    #[test]
    fn spectrum_preserved_by_construction() {
        // trace and Frobenius norm are spectral invariants: cheap checks
        // that the similarity transforms were orthogonal.
        let lambda = [1.0, 2.0, 3.0, 4.0, 5.0];
        let a = symmetric_with_spectrum(&lambda, 7);
        let trace: f64 = (0..5).map(|i| a[(i, i)]).sum();
        assert!((trace - 15.0).abs() < 1e-10, "trace {trace}");
        let fro2: f64 = a.as_slice().iter().map(|v| v * v).sum();
        let want: f64 = lambda.iter().map(|l| l * l).sum();
        assert!((fro2 - want).abs() < 1e-9 * want.max(1.0));
        // And it must be dense, not still diagonal.
        assert!(a[(4, 0)].abs() > 1e-12);
        // Symmetric.
        for i in 0..5 {
            for j in 0..5 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn clement_trace_and_bounds() {
        let n = 9;
        let t = clement(n);
        let eig = clement_eigenvalues(n);
        assert_eq!(eig.len(), n);
        // Zero trace, symmetric spectrum.
        assert!(eig.iter().sum::<f64>().abs() < 1e-12);
        let (lo, hi) = t.gershgorin_bounds();
        assert!(lo <= eig[0] && hi >= eig[n - 1]);
    }

    #[test]
    fn laplacian_1d_eigenvalues_in_range() {
        let eig = laplacian_1d_eigenvalues(10);
        assert!(eig.windows(2).all(|w| w[0] < w[1]));
        assert!(eig[0] > 0.0 && eig[9] < 4.0);
    }

    #[test]
    fn laplacian_2d_structure() {
        let a = laplacian_2d(3, 2);
        assert_eq!(a.rows(), 6);
        assert_eq!(a[(0, 0)], 4.0);
        assert_eq!(a[(0, 1)], -1.0);
        assert_eq!(a[(0, 3)], -1.0); // vertical neighbour
        assert_eq!(a[(0, 2)], 0.0); // not a neighbour across the row edge? (0,2) are x=0 and x=2 same row: not adjacent
    }

    #[test]
    fn linspace_and_cluster() {
        assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
        let c = clustered_spectrum(10, 4, 0.0, 1.0, 1e-6);
        assert_eq!(c.len(), 10);
        assert!(c[9] > 1.0 - 1e-5);
    }
}
