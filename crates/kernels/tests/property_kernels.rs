//! Property tests for the BLAS and Householder kernels.

use proptest::prelude::*;
use tseig_kernels::blas3::{
    gemm, gemm_par_with, symm_lower_left, symm_lower_left_par, syr2k_lower, syr2k_lower_par, Trans,
};
use tseig_kernels::householder::{larfb, larfg, larft, Side};
use tseig_kernels::qr::{geqrf, orgqr};
use tseig_matrix::{gen, norms, Matrix};

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
}

/// Plain triple-loop `C <- alpha op(A) op(B) + beta C` with BLAS
/// semantics: `beta == 0` overwrites `C` without reading it and
/// `alpha == 0` (or `k == 0`) leaves `beta C`.
#[allow(clippy::too_many_arguments)]
fn gemm_oracle(
    ta: Trans,
    tb: Trans,
    (m, n, k): (usize, usize, usize),
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let op_a = |i: usize, l: usize| match ta {
        Trans::No => a[(i, l)],
        Trans::Yes => a[(l, i)],
    };
    let op_b = |l: usize, j: usize| match tb {
        Trans::No => b[(l, j)],
        Trans::Yes => b[(j, l)],
    };
    for j in 0..n {
        for i in 0..m {
            let cij = &mut c[i + j * ldc];
            *cij = if beta == 0.0 { 0.0 } else { beta * *cij };
            if alpha != 0.0 {
                *cij += alpha * (0..k).map(|l| op_a(i, l) * op_b(l, j)).sum::<f64>();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// gemm against the naive oracle, all transpose combinations, random
    /// shapes and scalars.
    #[test]
    fn gemm_matches_oracle(
        m in 1usize..24, n in 1usize..24, k in 1usize..24,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        ta in 0u8..2, tb in 0u8..2, seed in 0u64..500,
    ) {
        let (ta, tb) = (
            if ta == 0 { Trans::No } else { Trans::Yes },
            if tb == 0 { Trans::No } else { Trans::Yes },
        );
        let a_log = rand_mat(m, k, seed);
        let b_log = rand_mat(k, n, seed + 1);
        let c0 = rand_mat(m, n, seed + 2);
        let a_st = match ta { Trans::No => a_log.clone(), Trans::Yes => a_log.transpose() };
        let b_st = match tb { Trans::No => b_log.clone(), Trans::Yes => b_log.transpose() };
        let mut c = c0.clone();
        gemm(ta, tb, m, n, k, alpha,
             a_st.as_slice(), a_st.rows(), b_st.as_slice(), b_st.rows(),
             beta, c.as_mut_slice(), m);
        let want = a_log.multiply(&b_log).unwrap();
        for j in 0..n {
            for i in 0..m {
                let w = alpha * want[(i, j)] + beta * c0[(i, j)];
                prop_assert!((c[(i, j)] - w).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    /// Blocked QR reconstructs A = Q R with orthogonal Q for any shape
    /// and block size.
    #[test]
    fn qr_reconstruction(m in 1usize..28, n in 1usize..28, nb in 1usize..10, seed in 0u64..500) {
        let a0 = rand_mat(m, n, seed);
        let mut a = a0.clone();
        let kmin = m.min(n);
        let mut tau = vec![0.0; kmin];
        geqrf(m, n, a.as_mut_slice(), m, &mut tau, nb);
        let q = orgqr(m, kmin, a.as_slice(), m, &tau);
        prop_assert!(norms::orthogonality(&q) < 200.0);
        let mut r = Matrix::zeros(m, n);
        for j in 0..n {
            for i in 0..=j.min(m - 1) {
                r[(i, j)] = a[(i, j)];
            }
        }
        prop_assert!(q.multiply(&r).unwrap().approx_eq(&a0, 1e-10));
    }

    /// A block reflector equals the product of its elementary reflectors.
    #[test]
    fn block_reflector_composition(mrows in 4usize..20, k in 1usize..5, seed in 0u64..500) {
        let k = k.min(mrows - 1);
        // Build k random reflectors in forward-columnwise form.
        let mut v = Matrix::zeros(mrows, k);
        let mut taus = vec![0.0; k];
        for c in 0..k {
            let mut tail = rand_mat(mrows - c - 1, 1, seed + c as u64).into_vec();
            let (_, tau) = larfg(0.5, &mut tail);
            v[(c, c)] = 1.0;
            for (i, &val) in tail.iter().enumerate() {
                v[(c + 1 + i, c)] = val;
            }
            taus[c] = tau;
        }
        let mut t = vec![0.0; k * k];
        larft(mrows, k, v.as_slice(), mrows, &taus, &mut t, k);
        // Apply blockwise to a random C and compare against sequential
        // elementary applications.
        let c0 = rand_mat(mrows, 3, seed + 100);
        let mut blocked = c0.clone();
        larfb(Side::Left, Trans::No, mrows, 3, k, v.as_slice(), mrows, &t, k,
              blocked.as_mut_slice(), mrows);
        let mut seq = c0.clone();
        let mut work = vec![0.0; 3];
        for c in (0..k).rev() {
            let u: Vec<f64> = (0..mrows).map(|r| v[(r, c)]).collect();
            tseig_kernels::householder::larf_left(&u, taus[c], mrows, 3, seq.as_mut_slice(), mrows, &mut work);
        }
        prop_assert!(blocked.approx_eq(&seq, 1e-11));
    }

    /// symm (serial and parallel) and the parallel syr2k agree with
    /// dense oracles.
    #[test]
    fn symmetric_level3_oracles(m in 1usize..30, k in 1usize..8, seed in 0u64..500) {
        let a = gen::random_symmetric(m, seed);
        let b = rand_mat(m, k, seed + 1);
        let mut c = Matrix::zeros(m, k);
        symm_lower_left_par(m, k, 1.0, a.as_slice(), m, b.as_slice(), m, 0.0, c.as_mut_slice(), m);
        let want = a.multiply(&b).unwrap();
        prop_assert!(c.approx_eq(&want, 1e-10));
        let mut cs = Matrix::zeros(m, k);
        symm_lower_left(m, k, 1.0, a.as_slice(), m, b.as_slice(), m, 0.0, cs.as_mut_slice(), m);
        prop_assert!(cs.approx_eq(&want, 1e-10));

        let x = rand_mat(m, k, seed + 2);
        let y = rand_mat(m, k, seed + 3);
        let mut s = Matrix::zeros(m, m);
        syr2k_lower_par(m, k, 1.0, x.as_slice(), m, y.as_slice(), m, 0.0, s.as_mut_slice(), m);
        let xyt = x.multiply(&y.transpose()).unwrap();
        for j in 0..m {
            for i in j..m {
                let w = xyt[(i, j)] + xyt[(j, i)];
                prop_assert!((s[(i, j)] - w).abs() < 1e-10);
            }
        }
    }

    /// The packed gemm agrees with the triple-loop oracle on shapes
    /// straddling the MR/NR strip boundaries, including k == 0,
    /// alpha == 0, and a padded ldc whose tail rows must stay untouched.
    #[test]
    fn packed_gemm_matches_unpacked(
        m in 1usize..40, n in 1usize..40, k in 0usize..40,
        alpha_sel in 0u8..4, beta in -2.0f64..2.0, pad in 0usize..5,
        ta in 0u8..2, tb in 0u8..2, seed in 0u64..500,
    ) {
        let (ta, tb) = (
            if ta == 0 { Trans::No } else { Trans::Yes },
            if tb == 0 { Trans::No } else { Trans::Yes },
        );
        let alpha = if alpha_sel == 0 { 0.0 } else { 0.5 * alpha_sel as f64 };
        let (am, an) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (bm, bn) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = rand_mat(am.max(1), an.max(1), seed);
        let b = rand_mat(bm.max(1), bn.max(1), seed + 1);
        let ldc = m + pad;
        let sentinel = 3.25f64;
        let mut c1 = vec![sentinel; ldc * n];
        let mut c2 = c1.clone();
        for j in 0..n {
            for i in 0..m {
                c1[i + j * ldc] = (i + 2 * j) as f64 * 0.1 - 1.0;
                c2[i + j * ldc] = c1[i + j * ldc];
            }
        }
        gemm(ta, tb, m, n, k, alpha,
             a.as_slice(), a.rows(), b.as_slice(), b.rows(), beta, &mut c1, ldc);
        gemm_oracle(ta, tb, (m, n, k), alpha, &a, &b, beta, &mut c2, ldc);
        for j in 0..n {
            for i in 0..m {
                prop_assert!((c1[i + j * ldc] - c2[i + j * ldc]).abs() < 1e-11, "({i},{j})");
            }
            for i in m..ldc {
                prop_assert!(c1[i + j * ldc] == sentinel, "padding clobbered at ({i},{j})");
            }
        }
    }

    /// gemm_par panel math: both parallel splits (jc column panels and
    /// ic row blocks) agree with the sequential kernel for any
    /// thread-count hint — short final chunks, transposed operands,
    /// beta applied exactly once.
    #[test]
    fn gemm_par_with_matches_serial(
        m in 1usize..80, n in 1usize..80, k in 1usize..40,
        threads in 1usize..9, beta in -2.0f64..2.0,
        ta in 0u8..2, tb in 0u8..2, seed in 0u64..500,
    ) {
        let (ta, tb) = (
            if ta == 0 { Trans::No } else { Trans::Yes },
            if tb == 0 { Trans::No } else { Trans::Yes },
        );
        let (am, an) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (bm, bn) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = rand_mat(am, an, seed);
        let b = rand_mat(bm, bn, seed + 1);
        let c0 = rand_mat(m, n, seed + 2);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(ta, tb, m, n, k, 1.5,
             a.as_slice(), a.rows(), b.as_slice(), b.rows(),
             beta, c1.as_mut_slice(), m);
        gemm_par_with(threads, ta, tb, m, n, k, 1.5,
             a.as_slice(), a.rows(), b.as_slice(), b.rows(),
             beta, c2.as_mut_slice(), m);
        prop_assert!(c1.approx_eq(&c2, 1e-11));
    }

    /// The blocked syr2k (serial and parallel) agrees with the dense
    /// oracle across the SYR2K panel boundary, with beta scaling and the
    /// upper triangle untouched.
    #[test]
    fn syr2k_blocked_matches_oracle(
        n in 1usize..100, k in 1usize..10, beta in -2.0f64..2.0, seed in 0u64..500,
    ) {
        let x = rand_mat(n, k, seed);
        let y = rand_mat(n, k, seed + 1);
        let c0 = rand_mat(n, n, seed + 2);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        syr2k_lower(n, k, 0.75, x.as_slice(), n, y.as_slice(), n, beta, c1.as_mut_slice(), n);
        syr2k_lower_par(n, k, 0.75, x.as_slice(), n, y.as_slice(), n, beta, c2.as_mut_slice(), n);
        let xyt = x.multiply(&y.transpose()).unwrap();
        for j in 0..n {
            for i in j..n {
                let w = 0.75 * (xyt[(i, j)] + xyt[(j, i)]) + beta * c0[(i, j)];
                prop_assert!((c1[(i, j)] - w).abs() < 1e-10, "serial ({i},{j})");
                prop_assert!((c2[(i, j)] - w).abs() < 1e-10, "parallel ({i},{j})");
            }
            for i in 0..j {
                prop_assert!(c1[(i, j)] == c0[(i, j)], "upper touched ({i},{j})");
                prop_assert!(c2[(i, j)] == c0[(i, j)], "upper touched ({i},{j})");
            }
        }
    }

    /// Jacobi oracle satisfies its own invariants on random input.
    #[test]
    fn jacobi_invariants(n in 1usize..20, seed in 0u64..300) {
        let a = gen::random_symmetric(n, seed);
        let r = tseig_kernels::reference::jacobi_eigen(&a, true).unwrap();
        prop_assert!(r.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
        let z = r.eigenvectors.unwrap();
        prop_assert!(norms::eigen_residual(&a, &r.eigenvalues, &z) < 500.0);
        prop_assert!(norms::orthogonality(&z) < 500.0);
    }
}
