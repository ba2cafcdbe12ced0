//! Complex BLAS-like kernels and the complex Householder tool-chain.
//!
//! Conventions mirror the real kernels in `tseig-kernels`: column-major
//! `(&[C64], ld)` slices, lower-triangle Hermitian storage, explicit-`V`
//! block reflectors.
//!
//! ## One engine, both complex widths
//!
//! Everything in this module is generic over
//! `T: ComplexScalar (+ GemmScalar)` — the LAPACK-style `z` prefix is
//! kept for familiarity, but each entry point serves both `C64`
//! (`zheev`-shaped) and `C32` (`cheev`-shaped) solves. Reductions that
//! need `f64` intermediates (norms, reflector scalars) widen through the
//! `ComplexScalar` accessors and round back on store.
//!
//! The BLAS-3 entry points here are *thin wrappers over the generic
//! packed engine* (`tseig_kernels::blas3::engine`): [`zgemm`] is the
//! packed, rayon-parallel nest monomorphized at the element type, and
//! [`zher2k_lower`] / [`zhemm_lower_left`] are blocked exactly like the
//! real `syr2k_lower` / `symm_lower_left` — a small diagonal kernel per
//! column panel plus packed `gemm`s for everything off-diagonal. The
//! operand-op vocabulary is the shared [`Op`] enum re-exported from
//! `tseig-kernels` (one dialect for both pipelines; the real API's
//! LAPACK-style `Trans` maps into it via `From`).
//!
//! The pre-engine naive triple loops survive **only as the test/bench
//! oracle** [`zgemm_oracle`] — the differential baseline the packed
//! complex path is validated (and its speedup measured) against.
//!
//! Flops are charged at 8 real flops per complex multiply-add pair
//! (LAPACK's conventional `zgemm = 8mnk` accounting), and bytes on the
//! packed-engine traffic model, so arithmetic-intensity reports stay
//! comparable between the real and complex columns.

use tseig_kernels::blas3::engine::{self, GemmScalar};
use tseig_kernels::contract;
use tseig_kernels::flops::{add, add_bytes, Level};
use tseig_matrix::ComplexScalar;

/// The shared operand-op vocabulary of the generic engine
/// (`No`/`Trans`/`ConjTrans`) — re-exported so complex callers and the
/// real pipeline speak one dialect.
pub use tseig_kernels::blas3::Op;

/// Column-panel width of the blocked `zher2k`/`zhemm` (same panel order
/// as the real `syr2k`/`symm`'s `TRI_JB`).
const ZBLK_JB: usize = 64;

/// `C <- alpha op(A) op(B) + beta C` (complex). `op(A)` is `m x k`,
/// `op(B)` is `k x n`.
///
/// Thin wrapper over the generic packed engine: BLIS-style packing with
/// the conjugation folded into the pack gather, the portable complex
/// microkernel, and the `jc`/`ic` rayon splits — one code path with the
/// real `gemm`. Counters (8mnk flops, packed-model bytes) are charged
/// by the engine entry.
#[allow(clippy::too_many_arguments)]
pub fn zgemm<T: ComplexScalar + GemmScalar>(
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
    engine::gemm_par(opa, opb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// Naive triple-loop `zgemm` — the **test oracle and bench baseline**
/// the packed path is differential-tested and speedup-measured against.
/// Not called by the pipeline. Byte accounting keeps this kernel's
/// historical streamed model (`A`/`B` read once, `C` read+written),
/// which is also the model its unblocked access pattern actually has.
#[allow(clippy::too_many_arguments)]
pub fn zgemm_oracle<T: ComplexScalar>(
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
    // A and B streamed once, C read and written once.
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

/// Traffic model of the blocked `zhemm`: stored triangle read once, `B`
/// re-streamed once per panel sweep, `C` read+written once.
fn zhemm_bytes(elem_bytes: u64, m: usize, k: usize) -> u64 {
    let sweeps = m.div_ceil(ZBLK_JB).max(1) as u64;
    elem_bytes * (((m * m / 2) + 2 * m * k) as u64 + (m * k) as u64 * sweeps)
}

/// `C <- alpha A B + beta C` with `A` Hermitian of order `m` (lower
/// triangle stored), `B`/`C` `m x k`.
///
/// Blocked mirror of the real `symm_lower_left`: per `ZBLK_JB`-wide
/// column panel of `A`, a small Hermitian diagonal kernel plus two
/// packed `gemm`s (`No` for the strictly-lower block, `ConjTrans` for
/// its mirrored upper image).
#[allow(clippy::too_many_arguments)]
pub fn zhemm_lower_left<T: ComplexScalar + GemmScalar>(
    m: usize,
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
    if contract::enabled() {
        contract::require_mat("zhemm_lower_left", "a", a, m, m, lda);
        contract::require_mat("zhemm_lower_left", "b", b, m, k, ldb);
        contract::require_mat("zhemm_lower_left", "c", c, m, k, ldc);
        contract::require_no_alias("zhemm_lower_left", "a", a, "c", c);
        contract::require_no_alias("zhemm_lower_left", "b", b, "c", c);
        contract::require_finite_lower("zhemm_lower_left", "a", a, m, lda);
        contract::require_finite_mat("zhemm_lower_left", "b", b, m, k, ldb);
    }
    add(Level::L3, T::MULADD_FLOPS * (m * m * k) as u64);
    add_bytes(Level::L3, zhemm_bytes(T::BYTES, m, k));
    for j in 0..k {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else if beta != T::ONE {
            for v in col.iter_mut() {
                *v *= beta;
            }
        }
    }
    if alpha == T::ZERO || m == 0 || k == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < m {
        let jn = ZBLK_JB.min(m - j0);
        // Hermitian diagonal block (rows/cols j0..j0+jn).
        zhemm_diag(
            jn,
            k,
            alpha,
            &a[j0 + j0 * lda..],
            lda,
            &b[j0..],
            ldb,
            &mut c[j0..],
            ldc,
        );
        let rows_below = m - j0 - jn;
        if rows_below > 0 {
            let r0 = j0 + jn;
            // C[r0.., :] += alpha * A[r0.., j0..r0] * B[j0..r0, :]
            engine::gemm_into(
                Op::No,
                Op::No,
                rows_below,
                k,
                jn,
                alpha,
                &a[r0 + j0 * lda..],
                lda,
                &b[j0..],
                ldb,
                &mut c[r0..],
                ldc,
            );
            // C[j0..r0, :] += alpha * A[r0.., j0..r0]^H * B[r0.., :]
            // (the mirrored upper image of the stored strictly-lower block).
            engine::gemm_into(
                Op::ConjTrans,
                Op::No,
                jn,
                k,
                rows_below,
                alpha,
                &a[r0 + j0 * lda..],
                lda,
                &b[r0..],
                ldb,
                &mut c[j0..],
                ldc,
            );
        }
        j0 += jn;
    }
}

/// Accumulate-only Hermitian-diagonal-block kernel of
/// [`zhemm_lower_left`] (scaling and accounting are the caller's):
/// one pass over the stored triangle serves the lower part and its
/// mirrored conjugate image; the diagonal's imaginary part is ignored
/// per the Hermitian storage contract.
#[allow(clippy::too_many_arguments)]
fn zhemm_diag<T: ComplexScalar>(
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    for ja in 0..m {
        let acol = &a[ja * lda..ja * lda + m];
        for jb in 0..k {
            let bcol = &b[jb * ldb..jb * ldb + m];
            let ccol = &mut c[jb * ldc..jb * ldc + m];
            let t = alpha * bcol[ja];
            // Diagonal (real part only counts for a Hermitian matrix).
            ccol[ja] += T::new(acol[ja].re(), 0.0) * t;
            let mut s = T::ZERO;
            for i in ja + 1..m {
                ccol[i] += acol[i] * t;
                // Mirrored upper entry A[ja, i] = conj(A[i, ja]).
                s += bcol[i].mul_conj(acol[i]);
            }
            ccol[ja] += alpha * s;
        }
    }
}

/// Traffic model shared with the real `syr2k`: `X`/`Y` each packed
/// twice (once per `gemm` role), the stored triangle read+written once
/// per rank-`KC` update (packed-engine model, `KC = 256`).
fn zher2k_bytes(elem_bytes: u64, n: usize, k: usize) -> u64 {
    let npc = k.div_ceil(256).max(1) as u64;
    elem_bytes * (4 * (n * k) as u64 + (n * n) as u64 * npc)
}

/// Hermitian rank-2k update of the lower triangle:
/// `A <- A + alpha (X Y^H + Y X^H)` with `X`, `Y` `n x k` and real
/// `alpha` (keeps the matrix Hermitian).
///
/// Blocked mirror of the real `syr2k_lower`: `ZBLK_JB`-wide diagonal
/// blocks run the rank-1 kernel (which also snaps the diagonal real),
/// the strictly sub-diagonal part of each column panel is two packed
/// `gemm`s with `ConjTrans` folded into the pack step.
#[allow(clippy::too_many_arguments)]
pub fn zher2k_lower<T: ComplexScalar + GemmScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    x: &[T],
    ldx: usize,
    y: &[T],
    ldy: usize,
    a: &mut [T],
    lda: usize,
) {
    if contract::enabled() {
        contract::require_mat("zher2k_lower", "x", x, n, k, ldx);
        contract::require_mat("zher2k_lower", "y", y, n, k, ldy);
        contract::require_mat("zher2k_lower", "a", a, n, n, lda);
        contract::require_no_alias("zher2k_lower", "x", x, "a", a);
        contract::require_no_alias("zher2k_lower", "y", y, "a", a);
        contract::require_finite_mat("zher2k_lower", "x", x, n, k, ldx);
        contract::require_finite_mat("zher2k_lower", "y", y, n, k, ldy);
    }
    add(Level::L3, T::MULADD_FLOPS * (n * n * k) as u64);
    add_bytes(Level::L3, zher2k_bytes(T::BYTES, n, k));
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    let calpha = T::new(alpha, 0.0);
    let mut j0 = 0;
    while j0 < n {
        let jn = ZBLK_JB.min(n - j0);
        zher2k_diag(
            jn,
            k,
            alpha,
            &x[j0..],
            ldx,
            &y[j0..],
            ldy,
            &mut a[j0 + j0 * lda..],
            lda,
        );
        let rows_below = n - j0 - jn;
        if rows_below > 0 {
            let r0 = j0 + jn;
            let apanel = &mut a[r0 + j0 * lda..];
            // A[r0.., j0..r0] += alpha * X[r0.., :] Y[j0..r0, :]^H
            engine::gemm_into(
                Op::No,
                Op::ConjTrans,
                rows_below,
                jn,
                k,
                calpha,
                &x[r0..],
                ldx,
                &y[j0..],
                ldy,
                apanel,
                lda,
            );
            // A[r0.., j0..r0] += alpha * Y[r0.., :] X[j0..r0, :]^H
            engine::gemm_into(
                Op::No,
                Op::ConjTrans,
                rows_below,
                jn,
                k,
                calpha,
                &y[r0..],
                ldy,
                &x[j0..],
                ldx,
                apanel,
                lda,
            );
        }
        j0 += jn;
    }
}

/// Rank-1-loop `zher2k` on a diagonal block (accumulate only; the
/// caller owns scaling and accounting). Keeps the diagonal exactly
/// real, per the Hermitian storage contract.
#[allow(clippy::too_many_arguments)]
fn zher2k_diag<T: ComplexScalar>(
    n: usize,
    k: usize,
    alpha: f64,
    x: &[T],
    ldx: usize,
    y: &[T],
    ldy: usize,
    a: &mut [T],
    lda: usize,
) {
    for kk in 0..k {
        let xcol = &x[kk * ldx..kk * ldx + n];
        let ycol = &y[kk * ldy..kk * ldy + n];
        for j in 0..n {
            let tx = xcol[j].conj().scale(alpha);
            let ty = ycol[j].conj().scale(alpha);
            if tx == T::ZERO && ty == T::ZERO {
                continue;
            }
            let acol = &mut a[j * lda..j * lda + n];
            for i in j..n {
                acol[i] += xcol[i] * ty + ycol[i] * tx;
            }
            // Keep the diagonal exactly real.
            acol[j] = T::new(acol[j].re(), 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Complex Householder tool-chain.
// ---------------------------------------------------------------------

/// Complex reflector generation (LAPACK `zlarfg`): finds `H = I - tau v
/// v^H` with `v = [1, x']` such that `H^H [alpha, x] = [beta, 0]` and
/// **beta real**. Overwrites `x` with the tail of `v`; returns
/// `(beta, tau)`. The reflector scalars are computed in `f64` and
/// rounded to `T`'s component precision on store.
pub fn zlarfg<T: ComplexScalar>(alpha: T, x: &mut [T]) -> (f64, T) {
    let xnorm = {
        let mut s = 0.0f64;
        for v in x.iter() {
            s += v.abs2();
        }
        s.sqrt()
    };
    add(Level::L1, T::MULADD_FLOPS * x.len() as u64);
    add_bytes(Level::L1, T::BYTES * 2 * x.len() as u64);
    if xnorm == 0.0 && alpha.im() == 0.0 {
        return (alpha.re(), T::ZERO);
    }
    // beta = -sign(alpha.re) * ||[alpha, x]||.
    let (are, aim) = (alpha.re(), alpha.im());
    let norm = (are * are + aim * aim + xnorm * xnorm).sqrt();
    let beta = if are >= 0.0 { -norm } else { norm };
    let tau = T::new((beta - are) / beta, -aim / beta);
    let denom = alpha - T::new(beta, 0.0);
    let inv = T::ONE / denom;
    for v in x.iter_mut() {
        *v *= inv;
    }
    (beta, tau)
}

/// Left application `C <- (I - tau' v v^H) C`, with `tau'` passed
/// explicitly (callers pass `conj(tau)` to apply `H^H`, `tau` for `H`).
pub fn zlarf_left<T: ComplexScalar>(
    v: &[T],
    tau: T,
    m: usize,
    n: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if tau == T::ZERO {
        return;
    }
    add(Level::L2, 2 * T::MULADD_FLOPS * (m * n) as u64);
    // C read and written once, v/work streamed per column sweep.
    add_bytes(Level::L2, T::BYTES * (2 * m * n + m + 2 * n) as u64);
    // work_j = v^H C[:, j].
    for j in 0..n {
        let col = &c[j * ldc..j * ldc + m];
        let mut s = T::ZERO;
        for i in 0..m {
            s += col[i].mul_conj(v[i]);
        }
        work[j] = s;
    }
    for j in 0..n {
        let t = tau * work[j];
        if t == T::ZERO {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= v[i] * t;
        }
    }
}

/// Right application `C <- C (I - tau v v^H)`.
pub fn zlarf_right<T: ComplexScalar>(
    v: &[T],
    tau: T,
    m: usize,
    n: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if tau == T::ZERO {
        return;
    }
    add(Level::L2, 2 * T::MULADD_FLOPS * (m * n) as u64);
    // C read and written once, v/work streamed per column sweep.
    add_bytes(Level::L2, T::BYTES * (2 * m * n + 2 * m + n) as u64);
    // work = C v.
    work[..m].fill(T::ZERO);
    for j in 0..n {
        let t = v[j];
        if t == T::ZERO {
            continue;
        }
        let col = &c[j * ldc..j * ldc + m];
        for i in 0..m {
            work[i] += col[i] * t;
        }
    }
    // C[:, j] -= tau * work * conj(v_j).
    for j in 0..n {
        let t = tau * v[j].conj();
        if t == T::ZERO {
            continue;
        }
        let col = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            col[i] -= work[i] * t;
        }
    }
}

/// Complex forward-columnwise `T` factor: `H_1 ... H_k = I - V T V^H`,
/// `V` with explicit unit diagonal and zeros above. `T`'s lower triangle
/// is zero-filled.
pub fn zlarft<T: ComplexScalar>(
    m: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    tau: &[T],
    t: &mut [T],
    ldt: usize,
) {
    add(Level::L3, (T::MULADD_FLOPS / 2) * (m * k * k) as u64);
    // V streamed once per column pair, T is k x k and cache-resident.
    add_bytes(Level::L3, T::BYTES * (m * k + 2 * k * k) as u64);
    for i in 0..k {
        for l in i + 1..k {
            t[l + i * ldt] = T::ZERO;
        }
        if tau[i] == T::ZERO {
            for l in 0..=i {
                t[l + i * ldt] = T::ZERO;
            }
            continue;
        }
        // w = V(:, 0..i)^H v_i.
        for l in 0..i {
            let vl = &v[l * ldv..l * ldv + m];
            let vi = &v[i * ldv..i * ldv + m];
            let mut s = T::ZERO;
            for r in 0..m {
                s += vi[r].mul_conj(vl[r]);
            }
            t[l + i * ldt] = -(tau[i] * s);
        }
        // T(0..i, i) = T(0..i, 0..i) * w (top-down, in place).
        for l in 0..i {
            let mut s = T::ZERO;
            for q in l..i {
                s += t[l + q * ldt] * t[q + i * ldt];
            }
            t[l + i * ldt] = s;
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Blocked left application `C <- (I - V T V^H) C` (`op == Op::No`) or
/// `C <- (I - V T^H V^H)^...` — precisely: applies `I - V op(T) V^H`.
#[allow(clippy::too_many_arguments)]
pub fn zlarfb_left<T: ComplexScalar + GemmScalar>(
    opt: Op,
    m: usize,
    n: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (w, w2) = work[..2 * k * n].split_at_mut(k * n);
    // W = V^H C.
    zgemm(
        Op::ConjTrans,
        Op::No,
        k,
        n,
        m,
        T::ONE,
        v,
        ldv,
        c,
        ldc,
        T::ZERO,
        w,
        k,
    );
    // W2 = op(T) W  (T has a clean lower triangle, so dense multiply is fine).
    zgemm(opt, Op::No, k, n, k, T::ONE, t, ldt, w, k, T::ZERO, w2, k);
    // C -= V W2.
    zgemm(
        Op::No,
        Op::No,
        m,
        n,
        k,
        -T::ONE,
        v,
        ldv,
        w2,
        k,
        T::ONE,
        c,
        ldc,
    );
}

/// Unblocked complex QR of an `m x nc` panel (`zgeqr2`): reflectors below
/// the diagonal, `R` above, `tau` out.
pub fn zgeqr2<T: ComplexScalar>(m: usize, nc: usize, a: &mut [T], lda: usize, tau: &mut [T]) {
    let kmin = m.min(nc);
    let mut work = vec![T::ZERO; nc];
    let mut u = vec![T::ZERO; m];
    for j in 0..kmin {
        let (beta, tj) = {
            let col = &mut a[j * lda..j * lda + m];
            let (head, tail) = col.split_at_mut(j + 1);
            zlarfg(head[j], &mut tail[..m - j - 1])
        };
        a[j + j * lda] = T::new(beta, 0.0);
        tau[j] = tj;
        if tj == T::ZERO || j + 1 == nc {
            continue;
        }
        let rows = m - j;
        u[0] = T::ONE;
        for r in 1..rows {
            u[r] = a[j + r + j * lda];
        }
        // Trailing update with H^H.
        zlarf_left(
            &u[..rows],
            tj.conj(),
            rows,
            nc - j - 1,
            &mut a[j + (j + 1) * lda..],
            lda,
            &mut work,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{c64, CMatrix, C64};

    fn rand_cmat(m: usize, n: usize, seed: u64) -> CMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrix::from_fn(m, n, |_, _| {
            c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    fn rand_hermitian(n: usize, seed: u64) -> CMatrix {
        let mut a = rand_cmat(n, n, seed);
        a.hermitize_from_lower();
        a
    }

    #[test]
    fn zgemm_all_ops_vs_naive() {
        let (m, n, k) = (5, 6, 4);
        let a = rand_cmat(m, k, 1);
        let b = rand_cmat(k, n, 2);
        let want = a.multiply(&b);
        let ah = a.adjoint();
        let bh = b.adjoint();
        for (oa, ob, am, bm) in [
            (Op::No, Op::No, &a, &b),
            (Op::ConjTrans, Op::No, &ah, &b),
            (Op::No, Op::ConjTrans, &a, &bh),
            (Op::ConjTrans, Op::ConjTrans, &ah, &bh),
        ] {
            let mut c = CMatrix::zeros(m, n);
            zgemm(
                oa,
                ob,
                m,
                n,
                k,
                C64::ONE,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                C64::ZERO,
                c.as_mut_slice(),
                m,
            );
            assert!(c.max_diff(&want) < 1e-13, "{oa:?} {ob:?}");
        }
    }

    #[test]
    fn zhemm_matches_dense() {
        let n = 7;
        let k = 3;
        let a = rand_hermitian(n, 3);
        let b = rand_cmat(n, k, 4);
        let mut c = CMatrix::zeros(n, k);
        zhemm_lower_left(
            n,
            k,
            C64::ONE,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            C64::ZERO,
            c.as_mut_slice(),
            n,
        );
        assert!(c.max_diff(&a.multiply(&b)) < 1e-13);
    }

    #[test]
    fn zher2k_matches_dense() {
        let n = 6;
        let k = 3;
        let x = rand_cmat(n, k, 5);
        let y = rand_cmat(n, k, 6);
        let mut a = rand_hermitian(n, 7);
        let want = {
            let mut w = a.clone();
            let xyh = x.multiply(&y.adjoint());
            let yxh = y.multiply(&x.adjoint());
            for j in 0..n {
                for i in 0..n {
                    let adds = (xyh[(i, j)] + yxh[(i, j)]).scale(0.5);
                    w[(i, j)] += adds;
                }
            }
            w.hermitize_from_lower();
            w
        };
        zher2k_lower(
            n,
            k,
            0.5,
            x.as_slice(),
            n,
            y.as_slice(),
            n,
            a.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!((a[(i, j)] - want[(i, j)]).abs() < 1e-13, "({i},{j})");
            }
        }
    }

    #[test]
    fn zlarfg_real_beta_and_annihilation() {
        let alpha = c64(0.3, -0.7);
        let mut x = vec![c64(1.0, 0.5), c64(-0.2, 0.8)];
        let x0 = x.clone();
        let (beta, tau) = zlarfg(alpha, &mut x);
        // H^H [alpha, x] must equal [beta, 0, 0] with beta real.
        let v = [C64::ONE, x[0], x[1]];
        let orig = [alpha, x0[0], x0[1]];
        // H^H y = y - conj(tau) v (v^H y).
        let vhy: C64 = orig
            .iter()
            .zip(&v)
            .map(|(y, vi)| y.mul_conj(*vi))
            .fold(C64::ZERO, |a, b| a + b);
        let out: Vec<C64> = orig
            .iter()
            .zip(&v)
            .map(|(y, vi)| *y - *vi * tau.conj() * vhy)
            .collect();
        assert!((out[0] - c64(beta, 0.0)).abs() < 1e-13, "{:?}", out[0]);
        assert!(out[1].abs() < 1e-13 && out[2].abs() < 1e-13);
        // |beta| == ||[alpha, x]||.
        let nrm = (alpha.abs2() + x0[0].abs2() + x0[1].abs2()).sqrt();
        assert!((beta.abs() - nrm).abs() < 1e-13);
    }

    #[test]
    fn reflector_unitary() {
        let mut x = vec![c64(0.4, -0.1), c64(0.2, 0.9), c64(-0.6, 0.3)];
        let (_, tau) = zlarfg(c64(1.0, 0.2), &mut x);
        let mut v = vec![C64::ONE];
        v.extend_from_slice(&x);
        let n = v.len();
        // H = I - tau v v^H; check H H^H = I.
        let h = CMatrix::from_fn(n, n, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - tau * v[i] * v[j].conj()
        });
        let prod = h.multiply(&h.adjoint());
        assert!(prod.max_diff(&CMatrix::identity(n)) < 1e-13);
    }

    #[test]
    fn zlarf_left_right_match_dense() {
        let (m, n) = (5, 4);
        let mut x = vec![c64(0.3, 0.2), c64(-0.4, 0.6), c64(0.1, -0.9), c64(0.5, 0.0)];
        let (_, tau) = zlarfg(c64(0.7, -0.3), &mut x);
        let mut v = vec![C64::ONE];
        v.extend_from_slice(&x);
        let h = CMatrix::from_fn(m, m, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - tau * v[i] * v[j].conj()
        });
        let c0 = rand_cmat(m, n, 9);
        let mut work = vec![C64::ZERO; m.max(n)];

        let mut c = c0.clone();
        zlarf_left(&v, tau, m, n, c.as_mut_slice(), m, &mut work);
        assert!(c.max_diff(&h.multiply(&c0)) < 1e-13);

        let c0t = rand_cmat(n, m, 10);
        let mut cr = c0t.clone();
        zlarf_right(&v, tau, n, m, cr.as_mut_slice(), n, &mut work);
        assert!(cr.max_diff(&c0t.multiply(&h)) < 1e-13);
    }

    #[test]
    fn zlarft_block_identity() {
        let m = 7;
        let k = 3;
        let mut v = CMatrix::zeros(m, k);
        let mut taus = vec![C64::ZERO; k];
        for c in 0..k {
            let mut tail: Vec<C64> = (0..m - c - 1)
                .map(|r| {
                    c64(
                        ((r + c) % 3) as f64 * 0.3 - 0.2,
                        ((r * c + 1) % 4) as f64 * 0.25,
                    )
                })
                .collect();
            let (_, tau) = zlarfg(c64(0.4, 0.1), &mut tail);
            v[(c, c)] = C64::ONE;
            for (r, &val) in tail.iter().enumerate() {
                v[(c + 1 + r, c)] = val;
            }
            taus[c] = tau;
        }
        let mut t = vec![C64::ZERO; k * k];
        zlarft(m, k, v.as_slice(), m, &taus, &mut t, k);
        // Dense product H_1 H_2 H_3.
        let mut hprod = CMatrix::identity(m);
        for c in 0..k {
            let vc: Vec<C64> = (0..m).map(|r| v[(r, c)]).collect();
            let hc = CMatrix::from_fn(m, m, |i, j| {
                let idp = if i == j { C64::ONE } else { C64::ZERO };
                idp - taus[c] * vc[i] * vc[j].conj()
            });
            hprod = hprod.multiply(&hc);
        }
        // I - V T V^H.
        let tm = CMatrix::from_fn(k, k, |i, j| t[i + j * k]);
        let vtv = v.multiply(&tm).multiply(&v.adjoint());
        let got = CMatrix::from_fn(m, m, |i, j| {
            let idp = if i == j { C64::ONE } else { C64::ZERO };
            idp - vtv[(i, j)]
        });
        assert!(got.max_diff(&hprod) < 1e-12);
    }

    #[test]
    fn zgeqr2_reconstructs() {
        let (m, n) = (8, 5);
        let a0 = rand_cmat(m, n, 11);
        let mut a = a0.clone();
        let mut tau = vec![C64::ZERO; n];
        zgeqr2(m, n, a.as_mut_slice(), m, &mut tau);
        // Materialize Q by applying reflectors to I in reverse.
        let mut q = CMatrix::identity(m);
        let mut u = vec![C64::ZERO; m];
        let mut work = vec![C64::ZERO; m];
        for j in (0..n).rev() {
            let rows = m - j;
            u[0] = C64::ONE;
            for r in 1..rows {
                u[r] = a[(j + r, j)];
            }
            let ldq = q.ld();
            zlarf_left(
                &u[..rows],
                tau[j],
                rows,
                m,
                &mut q.as_mut_slice()[j..],
                ldq,
                &mut work,
            );
        }
        let r = CMatrix::from_fn(m, n, |i, j| if i <= j { a[(i, j)] } else { C64::ZERO });
        assert!(q.multiply(&r).max_diff(&a0) < 1e-12, "QR != A");
        // Q unitary.
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrix::identity(m)) < 1e-12);
    }
}
