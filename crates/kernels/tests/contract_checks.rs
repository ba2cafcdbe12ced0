//! Entry-point contract tests: every public BLAS-3 kernel must reject
//! undersized leading dimensions, short slices, and aliased in/out
//! operands in debug builds, and (under `paranoid`) NaN/Inf input poison
//! — while never firing on valid calls.
//!
//! The `#[should_panic]` tests are debug-only: contracts compile to
//! nothing in release builds, which the release benchmark relies on.

use proptest::prelude::*;
use tseig_kernels::blas3::{
    gemm, gemm_par, gemm_par_with, symm_lower_left, symm_lower_left_par, syr2k_lower,
    syr2k_lower_par, syrk_lower, Trans,
};
use tseig_kernels::householder::{larfb_with_work, larft, Side};

fn filled(len: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Carve an aliased (read, write) view pair from one buffer, the way a
/// caller slicing from leaked or raw-parts storage could. The kernels'
/// alias contract must abort before a single element is dereferenced, so
/// the overlap is never actually exercised.
fn aliased_pair(buf: &mut [f64]) -> (&[f64], &mut [f64]) {
    let ptr = buf.as_mut_ptr();
    let len = buf.len();
    // SAFETY: both views cover one live allocation; the contract under
    // test panics on the pointer ranges before any element access.
    let r = unsafe { std::slice::from_raw_parts(ptr, len) }; // tidy: allow(unsafe-allowlist) -- alias-contract test

    // SAFETY: as above — aborted by the contract before any access.
    let w = unsafe { std::slice::from_raw_parts_mut(ptr, len) }; // tidy: allow(unsafe-allowlist) -- alias-contract test
    (r, w)
}

// ---------------------------------------------------------------------
// Bad leading dimension / short slice, one test per public entry point.
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn gemm_rejects_small_lda() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    // a is the No-trans 4 x 2 operand: lda must be >= 4.
    gemm(
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        3,
        &b,
        2,
        0.0,
        &mut c,
        4,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn gemm_par_rejects_short_b() {
    let a = filled(8, 1);
    let b = filled(5, 2); // needs (4-1)*2 + 2 = 8
    let mut c = vec![0.0; 16];
    gemm_par(
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        4,
        &b,
        2,
        0.0,
        &mut c,
        4,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn gemm_par_with_rejects_small_ldc() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    gemm_par_with(
        2,
        Trans::No,
        Trans::No,
        4,
        4,
        2,
        1.0,
        &a,
        4,
        &b,
        2,
        0.0,
        &mut c,
        3,
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn syrk_rejects_short_a() {
    let a = filled(7, 1); // No-trans 4 x 2 operand needs 1*4 + 4 = 8
    let mut c = vec![0.0; 16];
    syrk_lower(Trans::No, 4, 2, 1.0, &a, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn syr2k_rejects_small_ldb() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 16];
    syr2k_lower(4, 2, 1.0, &a, 4, &b, 3, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn syr2k_par_rejects_short_c() {
    let a = filled(8, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 15]; // needs 3*4 + 4 = 16
    syr2k_lower_par(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "leading dimension")]
fn symm_rejects_small_lda() {
    let a = filled(16, 1);
    let b = filled(8, 2);
    let mut c = vec![0.0; 8];
    symm_lower_left(4, 2, 1.0, &a, 3, &b, 4, 0.0, &mut c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "slice too short")]
fn symm_par_rejects_short_b() {
    let a = filled(16, 1);
    let b = filled(7, 2); // 4 x 2 with ldb 4 needs 8
    let mut c = vec![0.0; 8];
    symm_lower_left_par(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
}

/// `larfb` multiplies by the whole of `T` through `gemm`, so a stale
/// value below `T`'s diagonal would enter the product unnoticed.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "must be upper triangular")]
fn larfb_rejects_t_with_nonzero_strict_lower() {
    let (m, n, k) = (6, 3, 3);
    let mut v = filled(m * k, 1);
    for j in 0..k {
        v[j * m..j * m + j].fill(0.0);
        v[j + j * m] = 1.0;
    }
    let mut t = vec![0.0; k * k];
    larft(m, k, &v, m, &filled(k, 2), &mut t, k);
    t[2] = 1e-3; // (2, 0): strictly lower
    let mut c = filled(m * n, 3);
    let mut work = vec![0.0; 2 * k * n];
    larfb_with_work(
        Side::Left,
        Trans::No,
        m,
        n,
        k,
        &v,
        m,
        &t,
        k,
        &mut c,
        m,
        &mut work,
    );
}

// ---------------------------------------------------------------------
// Aliased in/out operands.
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn gemm_rejects_aliased_a_and_c() {
    let mut buf = filled(16, 1);
    let b = filled(16, 2);
    let (a, c) = aliased_pair(&mut buf);
    gemm(Trans::No, Trans::No, 4, 4, 4, 1.0, a, 4, &b, 4, 0.0, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn syr2k_rejects_aliased_b_and_c() {
    let a = filled(8, 1);
    let mut buf = filled(16, 2);
    let (b, c) = aliased_pair(&mut buf);
    syr2k_lower(4, 2, 1.0, &a, 4, b, 4, 0.0, c, 4);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
#[should_panic(expected = "overlaps output")]
fn symm_rejects_aliased_b_and_c() {
    let a = filled(16, 1);
    let mut buf = filled(16, 2);
    let (b, c) = aliased_pair(&mut buf);
    symm_lower_left(4, 2, 1.0, &a, 4, b, 4, 0.0, c, 4);
}

// ---------------------------------------------------------------------
// `paranoid`: NaN/Inf input poison detection, scoped to the read set.
// ---------------------------------------------------------------------

#[cfg(feature = "paranoid")]
mod paranoid {
    use super::*;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn gemm_catches_nan_in_a() {
        let mut a = filled(8, 1);
        a[5] = f64::NAN;
        let b = filled(8, 2);
        let mut c = vec![0.0; 16];
        gemm(
            Trans::No,
            Trans::No,
            4,
            4,
            2,
            1.0,
            &a,
            4,
            &b,
            2,
            0.0,
            &mut c,
            4,
        );
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn syrk_catches_inf_in_a() {
        let mut a = filled(8, 1);
        a[0] = f64::INFINITY;
        let mut c = vec![0.0; 16];
        syrk_lower(Trans::No, 4, 2, 1.0, &a, 4, 0.0, &mut c, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    #[should_panic(expected = "non-finite input poison")]
    fn symm_catches_nan_in_lower_triangle() {
        let mut a = filled(16, 1);
        a[2] = f64::NAN; // (2, 0): strictly lower, inside the read set
        let b = filled(8, 2);
        let mut c = vec![0.0; 8];
        symm_lower_left(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contracts compile out in release")]
    fn symm_ignores_nan_in_mirrored_triangle() {
        // The strictly-upper triangle of a `symm_lower_left` operand is
        // outside the read contract; poison there must not fire.
        let mut a = filled(16, 1);
        a[4] = f64::NAN; // (0, 1): strictly upper
        let b = filled(8, 2);
        let mut c = vec![0.0; 8];
        symm_lower_left(4, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 4);
        assert!(c.iter().all(|v| v.is_finite()));
    }
}

// ---------------------------------------------------------------------
// Contracts never fire on valid calls.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random well-formed calls — arbitrary shapes, slack in every
    /// leading dimension — must pass every contract (a panic fails the
    /// test) and produce finite output.
    #[test]
    fn contracts_accept_valid_calls(
        m in 1usize..20, n in 1usize..20, k in 1usize..20,
        sa in 0usize..3, sb in 0usize..3, sc in 0usize..3,
        seed in 0u64..500,
    ) {
        // gemm: C (m x n) += A (m x k) B (k x n), padded strides.
        let (lda, ldb, ldc) = (m + sa, k + sb, m + sc);
        let a = filled(lda * k, seed);
        let b = filled(ldb * n, seed + 1);
        let mut c = vec![0.0; ldc * n];
        gemm(Trans::No, Trans::No, m, n, k, 1.0, &a, lda, &b, ldb, 0.5, &mut c, ldc);
        prop_assert!(c.iter().all(|v| v.is_finite()));

        // syrk/syr2k: C (n x n, lower) from n x k operands.
        let ldx = n + sa;
        let x = filled(ldx * k, seed + 2);
        let y = filled(ldx * k, seed + 3);
        let lds = n + sc;
        let mut s = vec![0.0; lds * n];
        syrk_lower(Trans::No, n, k, 1.0, &x, ldx, 0.0, &mut s, lds);
        syr2k_lower(n, k, 1.0, &x, ldx, &y, ldx, 1.0, &mut s, lds);
        prop_assert!(s.iter().all(|v| v.is_finite()));

        // symm: C (m x k) = A (m x m, lower) B (m x k).
        let ldsy = m + sb;
        let sym = filled(ldsy * m, seed + 4);
        let rhs = filled((m + sa) * k, seed + 5);
        let mut out = vec![0.0; (m + sc) * k];
        symm_lower_left(m, k, 1.0, &sym, ldsy, &rhs, m + sa, 0.0, &mut out, m + sc);
        prop_assert!(out.iter().all(|v| v.is_finite()));

        // larfb: C (m x n) <- (I - V T V^T) C, T from larft, padded ldt.
        let kv = k.min(m);
        let ldv = m + sa;
        let mut v = filled(ldv * kv, seed + 6);
        for j in 0..kv {
            v[j * ldv..j * ldv + j].fill(0.0);
            v[j + j * ldv] = 1.0;
        }
        let tau = filled(kv, seed + 7);
        let ldt = kv + sb;
        let mut t = vec![0.0; ldt * kv];
        larft(m, kv, &v, ldv, &tau, &mut t, ldt);
        let mut cc = filled(ldc * n, seed + 8);
        let mut work = vec![0.0; 2 * kv * n];
        larfb_with_work(Side::Left, Trans::No, m, n, kv, &v, ldv, &t, ldt, &mut cc, ldc, &mut work);
        prop_assert!(cc.iter().all(|v| v.is_finite()));
    }
}
