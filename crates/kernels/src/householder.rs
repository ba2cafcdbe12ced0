//! Householder reflector tool-chain: `larfg`, `larf`, `larft`, `larfb`.
//!
//! Conventions (LAPACK-compatible):
//!
//! * A reflector is `H = I - tau * u u^T` with `u = [1, v]^T`; `larfg`
//!   returns `tau` and overwrites its input with `v` (the part below the
//!   implicit leading 1).
//! * Block reflectors use the compact WY form `H_1 H_2 ... H_k =
//!   I - V T V^T`, where `V` is unit lower-trapezoidal. Our `larft`/`larfb`
//!   take `V` with **explicit** unit diagonal and explicit zeros above it —
//!   callers materialize that (cheap, `k` is a block size) — because the
//!   bulge-chasing back-transformation builds `V` blocks (the paper's
//!   *diamonds*) that never lived inside a factored matrix.

use crate::blas3::{gemm, Trans};
use crate::contract;
use crate::flops::{add, add_bytes, Level};

/// Which side a (block) reflector is applied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Generate an elementary reflector for the vector `[alpha, x]`:
/// on return `H [alpha, x]^T = [beta, 0]^T`, `x` holds `v`, and the
/// function returns `(beta, tau)`. `tau == 0` means `H == I`.
pub fn larfg(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    contract::require_finite_vec("larfg", "x", x, x.len());
    let xnorm = crate::blas1::nrm2(x);
    if xnorm == 0.0 {
        return (alpha, 0.0);
    }
    add(Level::L1, 2 * x.len() as u64);
    add_bytes(Level::L1, 16 * x.len() as u64);
    let beta = -(alpha.hypot(xnorm)).copysign(alpha);
    let tau = (beta - alpha) / beta;
    let inv = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= inv;
    }
    (beta, tau)
}

/// Apply `H = I - tau u u^T` from the left: `C <- H C`, where `u` is the
/// **full** reflector vector of length `m` (leading 1 stored explicitly).
pub fn larf_left(
    u: &[f64],
    tau: f64,
    m: usize,
    n: usize,
    c: &mut [f64],
    ldc: usize,
    work: &mut [f64],
) {
    if contract::enabled() {
        contract::require_vec("larf_left", "u", u, m);
        contract::require_vec("larf_left", "work", work, n);
        contract::require_mat("larf_left", "c", c, m, n, ldc);
        contract::require_no_alias("larf_left", "u", u, "c", c);
        contract::require_finite_vec("larf_left", "u", u, m);
    }
    if tau == 0.0 {
        return;
    }
    add(Level::L2, (4 * m * n) as u64);
    // C read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, 8 * (2 * m * n + m + 2 * n) as u64);
    // work = C^T u
    for j in 0..n {
        let col = &c[j * ldc..j * ldc + m];
        let mut s = 0.0;
        for i in 0..m {
            s += col[i] * u[i];
        }
        work[j] = s;
    }
    // C -= tau u work^T
    for j in 0..n {
        let t = tau * work[j];
        if t == 0.0 {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= t * u[i];
        }
    }
}

/// Apply `H = I - tau u u^T` from the right: `C <- C H`, `u` of length `n`.
pub fn larf_right(
    u: &[f64],
    tau: f64,
    m: usize,
    n: usize,
    c: &mut [f64],
    ldc: usize,
    work: &mut [f64],
) {
    if contract::enabled() {
        contract::require_vec("larf_right", "u", u, n);
        contract::require_vec("larf_right", "work", work, m);
        contract::require_mat("larf_right", "c", c, m, n, ldc);
        contract::require_no_alias("larf_right", "u", u, "c", c);
        contract::require_finite_vec("larf_right", "u", u, n);
    }
    if tau == 0.0 {
        return;
    }
    add(Level::L2, (4 * m * n) as u64);
    // C read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, 8 * (2 * m * n + 2 * m + n) as u64);
    // work = C u
    work[..m].fill(0.0);
    for j in 0..n {
        let t = u[j];
        if t == 0.0 {
            continue;
        }
        let col = &c[j * ldc..j * ldc + m];
        for i in 0..m {
            work[i] += t * col[i];
        }
    }
    // C -= tau work u^T
    for j in 0..n {
        let t = tau * u[j];
        if t == 0.0 {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= t * work[i];
        }
    }
}

/// Apply `H = I - tau u u^T` two-sided to a symmetric matrix:
/// `A <- H A H` (order `n`, **full dense** storage, both triangles kept in
/// sync). Used by the bulge-chasing kernels on small cache-resident
/// blocks.
///
/// Uses the symmetric rank-2 form: `w = tau (A u - (tau/2) (u^T A u) u)`,
/// then `A <- A - u w^T - w u^T`.
pub fn larf_sym_two_sided(
    u: &[f64],
    tau: f64,
    n: usize,
    a: &mut [f64],
    lda: usize,
    work: &mut [f64],
) {
    if contract::enabled() {
        contract::require_vec("larf_sym_two_sided", "u", u, n);
        contract::require_vec("larf_sym_two_sided", "work", work, n);
        contract::require_mat("larf_sym_two_sided", "a", a, n, n, lda);
        contract::require_no_alias("larf_sym_two_sided", "u", u, "a", a);
        contract::require_finite_vec("larf_sym_two_sided", "u", u, n);
    }
    if tau == 0.0 {
        return;
    }
    add(Level::L2, (4 * n * n) as u64);
    // A read and written once, u/work streamed per column sweep.
    add_bytes(Level::L2, 8 * (2 * n * n + 2 * n) as u64);
    // work = A u  (A is fully stored symmetric here)
    work[..n].fill(0.0);
    for j in 0..n {
        let t = u[j];
        if t == 0.0 {
            continue;
        }
        let col = &a[j * lda..j * lda + n];
        for i in 0..n {
            work[i] += t * col[i];
        }
    }
    let uau: f64 = (0..n).map(|i| u[i] * work[i]).sum();
    let half = 0.5 * tau * uau;
    for i in 0..n {
        work[i] = tau * (work[i] - half * u[i]);
    }
    for j in 0..n {
        let (wj, uj) = (work[j], u[j]);
        let col = &mut a[j * lda..j * lda + n];
        for i in 0..n {
            col[i] -= u[i] * wj + work[i] * uj;
        }
    }
}

/// Form the upper-triangular block-reflector factor `T` (forward,
/// column-wise) such that `H_1 ... H_k = I - V T V^T`.
///
/// `V` is `m x k` with explicit unit diagonal and zeros above; `tau[i]`
/// belongs to column `i`. `T` (`k x k`, `ldt >= k`) is fully written:
/// entries below the diagonal are set to zero so `T` can be fed to
/// general (non-triangular) multiplies.
pub fn larft(m: usize, k: usize, v: &[f64], ldv: usize, tau: &[f64], t: &mut [f64], ldt: usize) {
    if contract::enabled() {
        contract::require_mat("larft", "v", v, m, k, ldv);
        contract::require_vec("larft", "tau", tau, k);
        contract::require_mat("larft", "t", t, k, k, ldt);
        contract::require_no_alias("larft", "v", v, "t", t);
        contract::require_finite_mat("larft", "v", v, m, k, ldv);
        contract::require_finite_vec("larft", "tau", tau, k);
    }
    add(Level::L3, (m * k * k) as u64);
    // V streamed once per column pair, T is k x k and cache-resident.
    add_bytes(Level::L3, 8 * (m * k + 2 * k * k) as u64);
    for i in 0..k {
        // Zero below-diagonal part of column i.
        for l in i + 1..k {
            t[l + i * ldt] = 0.0;
        }
        if tau[i] == 0.0 {
            t[i + i * ldt] = 0.0;
            for l in 0..i {
                t[l + i * ldt] = 0.0;
            }
            continue;
        }
        // w = V(:, 0..i)^T * V(:, i)
        for l in 0..i {
            let vl = &v[l * ldv..l * ldv + m];
            let vi = &v[i * ldv..i * ldv + m];
            let mut s = 0.0;
            for r in 0..m {
                s += vl[r] * vi[r];
            }
            t[l + i * ldt] = -tau[i] * s;
        }
        // T(0..i, i) = T(0..i, 0..i) * w  (in place, top-down).
        for l in 0..i {
            let mut s = 0.0;
            for q in l..i {
                s += t[l + q * ldt] * t[q + i * ldt];
            }
            t[l + i * ldt] = s;
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Apply a block reflector `H = I - V T V^T` (or `H^T`) to `C`.
///
/// * `side == Left`:  `C (m x n) <- op(H) C`, `V` is `m x k`.
/// * `side == Right`: `C (m x n) <- C op(H)`, `V` is `n x k`.
///
/// `V` carries explicit unit diagonal / explicit zeros above (see module
/// docs); `T` is the `k x k` factor from [`larft`] with a clean lower
/// triangle — both sides multiply by the whole of `T` through `gemm`,
/// and debug builds check that its strictly-lower part is zero.
#[allow(clippy::too_many_arguments)]
pub fn larfb(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    ldt: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let wlen = match side {
        Side::Left => k * n,
        Side::Right => m * k,
    };
    let mut work = vec![0.0f64; 2 * wlen];
    larfb_with_work(side, trans, m, n, k, v, ldv, t, ldt, c, ldc, &mut work);
}

/// [`larfb`] with caller-provided workspace (`work.len() >= 2*k*n` for
/// `Left`, `>= 2*m*k` for `Right`). The back-transformation applies tens
/// of thousands of small block reflectors; reusing the workspace keeps
/// the allocator out of the inner loop.
#[allow(clippy::too_many_arguments)]
pub fn larfb_with_work(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    ldt: usize,
    c: &mut [f64],
    ldc: usize,
    work: &mut [f64],
) {
    if contract::enabled() {
        let vrows = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let wlen = match side {
            Side::Left => 2 * k * n,
            Side::Right => 2 * m * k,
        };
        contract::require_mat("larfb", "v", v, vrows, k, ldv);
        contract::require_mat("larfb", "t", t, k, k, ldt);
        contract::require_mat("larfb", "c", c, m, n, ldc);
        contract::require_vec("larfb", "work", work, wlen);
        contract::require_no_alias("larfb", "v", v, "c", c);
        contract::require_no_alias("larfb", "t", t, "c", c);
        contract::require_no_alias("larfb", "work", work, "c", c);
        contract::require_zero_strict_lower("larfb", "t", t, k, ldt);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let topt = trans;
    match side {
        Side::Left => {
            // W = V^T C  (k x n); W2 = op(T) W; C -= V W2.
            let (w, w2) = work[..2 * k * n].split_at_mut(k * n);
            gemm(
                Trans::Yes,
                Trans::No,
                k,
                n,
                m,
                1.0,
                v,
                ldv,
                c,
                ldc,
                0.0,
                w,
                k,
            );
            gemm(topt, Trans::No, k, n, k, 1.0, t, ldt, w, k, 0.0, w2, k);
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                -1.0,
                v,
                ldv,
                w2,
                k,
                1.0,
                c,
                ldc,
            );
        }
        Side::Right => {
            // W = C V (m x k); W <- W op(T); C -= W V^T.
            let (w, w2) = work[..2 * m * k].split_at_mut(m * k);
            gemm(
                Trans::No,
                Trans::No,
                m,
                k,
                n,
                1.0,
                c,
                ldc,
                v,
                ldv,
                0.0,
                w,
                m,
            );
            gemm(Trans::No, topt, m, k, k, 1.0, w, m, t, ldt, 0.0, w2, m);
            gemm(
                Trans::No,
                Trans::Yes,
                m,
                n,
                k,
                -1.0,
                w2,
                m,
                v,
                ldv,
                1.0,
                c,
                ldc,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::Matrix;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        Matrix::from_col_major(m, n, rand_vec(m * n, seed)).unwrap()
    }

    /// Dense H = I - tau u u^T.
    fn dense_h(u: &[f64], tau: f64) -> Matrix {
        let n = u.len();
        Matrix::from_fn(n, n, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - tau * u[i] * u[j]
        })
    }

    #[test]
    fn larfg_annihilates() {
        let mut x = vec![3.0, 4.0];
        let alpha = 0.0;
        let (beta, tau) = larfg(alpha, &mut x);
        // Apply H to the original vector [alpha, x]: expect [beta, 0, 0].
        let u = [1.0, x[0], x[1]];
        let h = dense_h(&u, tau);
        let orig = [0.0, 3.0, 4.0];
        let mut out = [0.0; 3];
        for i in 0..3 {
            out[i] = (0..3).map(|j| h[(i, j)] * orig[j]).sum();
        }
        assert!((out[0] - beta).abs() < 1e-14);
        assert!(out[1].abs() < 1e-14 && out[2].abs() < 1e-14);
        // |beta| = ||[alpha, x]||_2 = 5.
        assert!((beta.abs() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn larfg_zero_tail_gives_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(7.5, &mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(beta, 7.5);
    }

    #[test]
    fn reflector_is_orthogonal_involution() {
        let mut x = rand_vec(5, 1);
        let (_, tau) = larfg(0.7, &mut x);
        let mut u = vec![1.0];
        u.extend_from_slice(&x);
        let h = dense_h(&u, tau);
        let hh = h.multiply(&h).unwrap();
        assert!(hh.approx_eq(&Matrix::identity(6), 1e-13), "H^2 != I");
    }

    #[test]
    fn larf_left_right_match_dense() {
        let m = 6;
        let n = 4;
        let c0 = rand_mat(m, n, 2);
        let mut x = rand_vec(m - 1, 3);
        let (_, tau) = larfg(0.3, &mut x);
        let mut u = vec![1.0];
        u.extend_from_slice(&x);
        let h = dense_h(&u, tau);

        let mut c = c0.clone();
        let mut work = vec![0.0; m.max(n)];
        larf_left(&u, tau, m, n, c.as_mut_slice(), m, &mut work);
        assert!(c.approx_eq(&h.multiply(&c0).unwrap(), 1e-13));

        let c0t = c0.transpose(); // n x m, apply from right with u of length m
        let mut cr = c0t.clone();
        larf_right(&u, tau, n, m, cr.as_mut_slice(), n, &mut work);
        assert!(cr.approx_eq(&c0t.multiply(&h).unwrap(), 1e-13));
    }

    #[test]
    fn two_sided_matches_h_a_h() {
        let n = 5;
        let mut a = tseig_matrix::gen::random_symmetric(n, 4);
        let a0 = a.clone();
        let mut x = rand_vec(n - 1, 5);
        let (_, tau) = larfg(-0.2, &mut x);
        let mut u = vec![1.0];
        u.extend_from_slice(&x);
        let h = dense_h(&u, tau);
        let mut work = vec![0.0; n];
        larf_sym_two_sided(&u, tau, n, a.as_mut_slice(), n, &mut work);
        let want = h.multiply(&a0).unwrap().multiply(&h).unwrap();
        assert!(a.approx_eq(&want, 1e-12));
    }

    /// Build k random reflectors in explicit-V form plus their taus.
    fn random_v_tau(m: usize, k: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut v = Matrix::zeros(m, k);
        let mut taus = Vec::with_capacity(k);
        for i in 0..k {
            let mut x = rand_vec(m - i - 1, seed + i as u64);
            let (_, tau) = larfg(0.5, &mut x);
            v[(i, i)] = 1.0;
            for (r, &val) in x.iter().enumerate() {
                v[(i + 1 + r, i)] = val;
            }
            taus.push(tau);
        }
        (v, taus)
    }

    fn dense_block_h(v: &Matrix, taus: &[f64]) -> Matrix {
        // H = H_1 H_2 ... H_k as dense product.
        let m = v.rows();
        let mut h = Matrix::identity(m);
        for i in 0..taus.len() {
            let u: Vec<f64> = (0..m).map(|r| v[(r, i)]).collect();
            let hi = dense_h(&u, taus[i]);
            h = h.multiply(&hi).unwrap();
        }
        h
    }

    #[test]
    fn larft_compact_wy_identity() {
        let m = 8;
        let k = 3;
        let (v, taus) = random_v_tau(m, k, 10);
        let mut t = vec![0.0; k * k];
        larft(m, k, v.as_slice(), m, &taus, &mut t, k);
        // I - V T V^T must equal H_1 H_2 H_3.
        let tmat = Matrix::from_col_major(k, k, t).unwrap();
        let vt = v.transpose();
        let vtv = v.multiply(&tmat).unwrap().multiply(&vt).unwrap();
        let mut want = dense_block_h(&v, &taus);
        // I - vtv
        let mut got = Matrix::identity(m);
        for j in 0..m {
            for i in 0..m {
                got[(i, j)] -= vtv[(i, j)];
            }
        }
        assert!(got.approx_eq(&want, 1e-13), "compact WY mismatch");
        // Lower triangle of T is clean.
        let tm = got; // reuse binding to silence lint
        let _ = tm;
        want = Matrix::identity(m);
        let _ = want;
    }

    #[test]
    fn larfb_left_both_trans() {
        let m = 9;
        let n = 5;
        let k = 4;
        let (v, taus) = random_v_tau(m, k, 20);
        let mut t = vec![0.0; k * k];
        larft(m, k, v.as_slice(), m, &taus, &mut t, k);
        let h = dense_block_h(&v, &taus);
        let c0 = rand_mat(m, n, 21);

        let mut c = c0.clone();
        larfb(
            Side::Left,
            Trans::No,
            m,
            n,
            k,
            v.as_slice(),
            m,
            &t,
            k,
            c.as_mut_slice(),
            m,
        );
        assert!(c.approx_eq(&h.multiply(&c0).unwrap(), 1e-12));

        let mut c = c0.clone();
        larfb(
            Side::Left,
            Trans::Yes,
            m,
            n,
            k,
            v.as_slice(),
            m,
            &t,
            k,
            c.as_mut_slice(),
            m,
        );
        assert!(c.approx_eq(&h.transpose().multiply(&c0).unwrap(), 1e-12));
    }

    #[test]
    fn larfb_right_both_trans() {
        let m = 5;
        let n = 9;
        let k = 3;
        let (v, taus) = random_v_tau(n, k, 30);
        let mut t = vec![0.0; k * k];
        larft(n, k, v.as_slice(), n, &taus, &mut t, k);
        let h = dense_block_h(&v, &taus);
        let c0 = rand_mat(m, n, 31);

        let mut c = c0.clone();
        larfb(
            Side::Right,
            Trans::No,
            m,
            n,
            k,
            v.as_slice(),
            n,
            &t,
            k,
            c.as_mut_slice(),
            m,
        );
        assert!(c.approx_eq(&c0.multiply(&h).unwrap(), 1e-12));

        let mut c = c0.clone();
        larfb(
            Side::Right,
            Trans::Yes,
            m,
            n,
            k,
            v.as_slice(),
            n,
            &t,
            k,
            c.as_mut_slice(),
            m,
        );
        assert!(c.approx_eq(&c0.multiply(&h.transpose()).unwrap(), 1e-12));
    }
}
