//! Property tests for the Hermitian pipeline.

use proptest::prelude::*;
use tseig_hermitian::{validate, HermitianEigen};
use tseig_kernels::blas3::{engine::gemm_par, Op};
use tseig_kernels::reference::gemm_oracle;
use tseig_matrix::{c64, norms, C64};

/// Deterministic pseudo-random complex value from an index mix.
fn cval(seed: u64, i: usize) -> C64 {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 31;
    let re = ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    let im = (((x.wrapping_mul(0x94d049bb133111eb)) >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
    c64(re, im)
}

fn cmat(rows: usize, ld: usize, cols: usize, seed: u64) -> Vec<C64> {
    let _ = rows;
    (0..ld * cols).map(|i| cval(seed, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Packed complex GEMM against the naive triple-loop oracle on
    /// ragged shapes, all four conj-op combos, `k` straddling the
    /// packed engine's `KC = 256` so multiple depth panels (and the
    /// `beta`-after-first-panel path) are exercised, with padded `ld`s.
    #[test]
    fn packed_zgemm_matches_oracle_ragged(
        m in 1usize..40,
        n in 1usize..24,
        k in 200usize..320,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        for (opa, opb) in [
            (Op::No, Op::No),
            (Op::No, Op::ConjTrans),
            (Op::ConjTrans, Op::No),
            (Op::ConjTrans, Op::ConjTrans),
        ] {
            let (ar, ac) = match opa { Op::No => (m, k), _ => (k, m) };
            let (br, bc) = match opb { Op::No => (k, n), _ => (n, k) };
            let (lda, ldb, ldc) = (ar + pad, br + pad, m + pad);
            let a = cmat(ar, lda, ac, seed);
            let b = cmat(br, ldb, bc, seed ^ 0x55);
            let c0 = cmat(m, ldc, n, seed ^ 0xaa);
            let alpha = cval(seed ^ 0x77, 1);
            let beta = cval(seed ^ 0x77, 2);

            let mut packed = c0.clone();
            gemm_par(opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut packed, ldc);
            let mut naive = c0.clone();
            gemm_oracle(opa, opb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut naive, ldc);

            let scale = k as f64;
            for j in 0..n {
                for i in 0..m {
                    let d = (packed[i + j * ldc] - naive[i + j * ldc]).abs();
                    prop_assert!(
                        d < 1e-12 * scale,
                        "mismatch at ({i},{j}): {d:e} (opa={opa:?}, opb={opb:?}, m={m}, n={n}, k={k})"
                    );
                }
            }
        }
    }

    /// Full pipeline vs the real-embedding oracle on random Hermitian
    /// input, across band widths.
    #[test]
    fn pipeline_matches_embedding(n in 2usize..22, nb in 1usize..8, seed in 0u64..300) {
        let a = validate::rand_hermitian(n, seed);
        let want = validate::real_embedding_eigenvalues(&a);
        let r = HermitianEigen::new().nb(nb).solve(&a).unwrap();
        prop_assert!(
            norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-8,
            "eigenvalues differ (n={}, nb={})", n, nb
        );
        let z = r.eigenvectors.as_ref().unwrap();
        prop_assert!(validate::hermitian_residual(&a, &r.eigenvalues, z) < 1000.0);
        prop_assert!(validate::unitary_error(z) < 1000.0);
        // Trace invariant (diagonal of a Hermitian matrix is real).
        let tr: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        let sl: f64 = r.eigenvalues.iter().sum();
        prop_assert!((tr - sl).abs() < 1e-8 * (1.0 + tr.abs()));
    }

    /// Prescribed spectra are recovered through the complex pipeline.
    #[test]
    fn prescribed_spectrum(n in 2usize..20, seed in 0u64..300, lo in -3.0f64..0.0, w in 0.5f64..5.0) {
        let lambda = tseig_matrix::gen::linspace(lo, lo + w, n);
        let a = validate::hermitian_with_spectrum(&lambda, seed);
        let r = HermitianEigen::new().nb(4).solve(&a).unwrap();
        prop_assert!(norms::eigenvalue_distance(&r.eigenvalues, &lambda) < 1e-8);
    }
}

/// End-to-end solve at an `n` that is *not* divisible by the fused
/// back-transform's column-panel width (64 at `C64`), so
/// the panel loop runs a full panel plus a ragged tail — against the
/// independent `2n x 2n` real-embedding oracle.
#[test]
fn end_to_end_at_ragged_panel_width() {
    let n = 67;
    let pc = tseig_core::backtransform::default_panel_cols::<C64>();
    assert!(n > pc);
    assert!(n % pc != 0);
    let a = validate::rand_hermitian(n, 2024);
    let want = validate::real_embedding_eigenvalues(&a);
    let r = HermitianEigen::new().nb(8).solve(&a).unwrap();
    assert!(norms::eigenvalue_distance(&r.eigenvalues, &want) < 1e-8);
    let z = r.eigenvectors.as_ref().unwrap();
    assert!(validate::hermitian_residual(&a, &r.eigenvalues, z) < 1000.0);
    assert!(validate::unitary_error(z) < 1000.0);
}
