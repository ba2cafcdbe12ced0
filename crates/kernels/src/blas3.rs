//! Level-3 BLAS: cache-blocked, compute-bound matrix-matrix kernels.
//!
//! `gemm` is the kernel whose execution rate is the `alpha` parameter of
//! the paper's performance model (Table 3); everything the two-stage
//! pipeline gains comes from recasting `symv` work into these kernels.
//!
//! ## The packed loop nest
//!
//! [`gemm`] is organized BLIS-style around *packed* panels:
//!
//! ```text
//! for jc in 0..n step NC            // B panel picks its L3 slice
//!   for pc in 0..k step KC          // rank-KC update
//!     pack op(B)[pc.., jc..]  ->  Bp   (KC x NC, NR-column strips)
//!     for ic in 0..m step MC        // A panel sized for L2
//!       pack op(A)[ic.., pc..] ->  Ap   (MC x KC, MR-row strips)
//!       for jr, ir:  microkernel(Ap strip, Bp strip)  // MR x NR tile
//! ```
//!
//! Packing copies each operand once per cache block into contiguous,
//! zero-padded micro-panels, so the microkernel always streams unit-stride
//! memory regardless of `lda`/`ldb` *and* of the transpose flags — all
//! four of `NN`/`NT`/`TN`/`TT` share this one fast path; the transpose
//! only changes the gather pattern of the (O(n^2)) pack, never the
//! (O(n^3)) compute loop. Zero-padding the edge strips to full `MR`/`NR`
//! removes every edge case from the microkernel.
//!
//! The packing buffers are per-thread and grow-only (`thread_local`), so
//! they are reused across the whole `jc`/`pc`/`ic` nest and across calls
//! from the same thread — the allocator stays out of the hot loop.
//!
//! [`gemm_par`] parallelizes the packed nest itself: over `jc` column
//! panels when `n` is wide enough (each worker packs its own panels into
//! its thread-local buffers and owns a disjoint column range of `C`), and
//! over `ic` row blocks with private accumulators when the problem is
//! tall and narrow.
//!
//! ## Microkernel dispatch
//!
//! The register tile itself lives in [`simd`]: explicit AVX-512 (24x8)
//! and AVX2+FMA (4x12) `std::arch` kernels plus a portable scalar 16x4
//! fallback, selected once at first call (`TSEIG_SIMD` overrides for
//! testing/benchmarking). The packing formats are parameterized by the
//! selected `(MR, NR)`, so this file's macrokernel loop is shared by
//! every ISA path.

pub mod blocking;
pub mod engine;
pub mod simd;

use crate::contract;
use crate::flops::{add, add_bytes, Level};
use engine::{scale_c, GemmScalar};
use rayon::prelude::*;
use simd::MicroKernel;
use tseig_matrix::{ComplexScalar, Scalar};

/// Transpose flag, LAPACK-style. The kernels of this module and of
/// `householder`/`qr` are generic over the element type with Hermitian
/// semantics: `Yes` is the conjugate transpose, which is the plain
/// transpose on the real types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the (conjugate) transpose.
    Yes,
}

/// Operand op of the element-type-generic engine: the transpose /
/// conjugate vocabulary of [`engine`]. [`Trans`] maps into it per
/// element type (see [`op`]): `Yes` is `ConjTrans` on the complex types
/// and `Trans` on the real ones, where the two coincide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    No,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose (`X^H`); folded into the pack step,
    /// so it costs nothing in the O(n³) loop.
    ConjTrans,
}

/// The engine op of a [`Trans`] flag at element type `T`: `Yes` is the
/// conjugate transpose, packed as the plain transpose on real types.
#[inline]
pub fn op<T: Scalar>(t: Trans) -> Op {
    match t {
        Trans::No => Op::No,
        Trans::Yes if T::IS_COMPLEX => Op::ConjTrans,
        Trans::Yes => Op::Trans,
    }
}

pub use blocking::KC;
/// Column quad width of the scalar triangular diagonal-block multiply.
const NR: usize = 4;
/// Column-block reference size used by the byte-traffic model.
const NC: usize = 1024;

/// Stored dimensions `(rows, cols)` of the operand behind `op(X)` when
/// `op(X)` is `rows_of_op x cols_of_op`.
fn op_dims(trans: Trans, rows_of_op: usize, cols_of_op: usize) -> (usize, usize) {
    match trans {
        Trans::No => (rows_of_op, cols_of_op),
        Trans::Yes => (cols_of_op, rows_of_op),
    }
}

/// Entry contract shared by every public `gemm`-shaped kernel: operand
/// coverage, leading-dimension bounds, in/out alias rejection, and
/// (`paranoid`) input poison.
#[allow(clippy::too_many_arguments)]
fn gemm_contract<T: Scalar>(
    kernel: &str,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &[T],
    ldc: usize,
) {
    if !contract::enabled() {
        return;
    }
    let (ar, ac) = op_dims(transa, m, k);
    let (br, bc) = op_dims(transb, k, n);
    contract::require_mat(kernel, "a", a, ar, ac, lda);
    contract::require_mat(kernel, "b", b, br, bc, ldb);
    contract::require_mat(kernel, "c", c, m, n, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_mat(kernel, "a", a, ar, ac, lda);
    contract::require_finite_mat(kernel, "b", b, br, bc, ldb);
}

/// Estimated memory traffic of one packed `gemm` call, in bytes: each
/// operand is read from memory and written to its packed buffer once per
/// cache block that revisits it (`A` once per `jc` panel, `B` once in
/// total), and `C` is read+written once per rank-`KC` update.
fn gemm_bytes<T: Scalar>(m: usize, n: usize, k: usize) -> u64 {
    let njc = n.div_ceil(NC).max(1) as u64;
    let npc = k.div_ceil(KC).max(1) as u64;
    let (m, n, k) = (m as u64, n as u64, k as u64);
    T::BYTES * (2 * m * k * njc + 2 * k * n + 2 * m * n * npc)
}

/// `C <- alpha op(A) op(B) + beta C`, at any engine element type
/// (`op(X) = X^H` for `Trans::Yes`, see [`Trans`]).
///
/// `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`; all column-major
/// with the given leading dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: GemmScalar>(
    transa: Trans,
    transb: Trans,
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
    gemm_with_kernel(
        T::kernel(),
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// [`gemm`] forced through a specific dispatch path. The public entry
/// for differential tests and benches that compare ISA paths in one
/// process; production code goes through [`gemm`], which picks the
/// type's selected kernel ([`simd::selected`] at `f64`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel<T: GemmScalar>(
    kern: &MicroKernel<T>,
    transa: Trans,
    transb: Trans,
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
    gemm_contract("gemm", transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, gemm_bytes::<T>(m, n, k));
    scale_c(beta, m, n, c, ldc);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_into_with(kern, transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// The packed loop nest: `C += alpha op(A) op(B)`, no scaling, no flop
/// accounting. Shared by every public entry point (serial and parallel,
/// `gemm` and the structured kernels built on it).
#[allow(clippy::too_many_arguments)]
fn gemm_into<T: GemmScalar>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_into_with(
        T::kernel(),
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
    );
}

/// [`gemm_into`] on an explicit microkernel: the generic packed nest in
/// [`engine`]. At `f64` the nest, the packing formats and the `KC`
/// split are byte-for-byte the pre-generic ones (`Trans::Yes` maps to
/// `Op::Trans`), so every dispatch path stays bitwise identical — the
/// differential suite in `tests/simd_dispatch.rs` pins this.
#[allow(clippy::too_many_arguments)]
fn gemm_into_with<T: GemmScalar>(
    kern: &MicroKernel<T>,
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    engine::gemm_into_with(
        kern,
        op::<T>(transa),
        op::<T>(transb),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
    );
}

/// Parallel [`gemm`] over the packed loop nest. Wide problems split the
/// `jc` loop: each worker owns a disjoint `NR`-aligned column panel of
/// `C` and packs its own panels into thread-local buffers. Tall-narrow
/// problems (too few column panels to balance) split the `ic` loop
/// instead, each worker accumulating its row block into a private buffer
/// that is summed into `C` afterwards. Falls back to the sequential
/// kernel for small problems where the fork/join overhead would
/// dominate.
#[allow(clippy::too_many_arguments)]
pub fn gemm_par<T: GemmScalar>(
    transa: Trans,
    transb: Trans,
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
    let work = m.saturating_mul(n).saturating_mul(k);
    let threads = rayon::current_num_threads();
    if work < 64 * 64 * 64 || threads == 1 {
        gemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    gemm_par_with(
        threads, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
    );
}

/// [`gemm_par`] with an explicit worker-count hint; exposed so tests can
/// exercise the panel arithmetic of both parallel splits deterministically
/// regardless of the machine's thread count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_par_with<T: GemmScalar>(
    threads: usize,
    transa: Trans,
    transb: Trans,
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
    gemm_contract("gemm_par", transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * n * k) as u64);
    add_bytes(Level::L3, gemm_bytes::<T>(m, n, k));
    if alpha == T::ZERO || k == 0 {
        scale_c(beta, m, n, c, ldc);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    // The split itself (jc column panels / ic row blocks with private
    // accumulators) is element-type independent and lives once in the
    // generic engine.
    engine::par_nest(
        T::kernel(),
        threads,
        op::<T>(transa),
        op::<T>(transb),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// Symmetric rank-k update of the lower triangle:
/// `C <- alpha A A^T + beta C` (`trans == No`, `A` is `n x k`) or
/// `C <- alpha A^T A + beta C` (`trans == Yes`, `A` is `k x n`).
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower(
    trans: Trans,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if contract::enabled() {
        let (ar, ac) = op_dims(trans, n, k);
        contract::require_mat("syrk_lower", "a", a, ar, ac, lda);
        contract::require_mat("syrk_lower", "c", c, n, n, ldc);
        contract::require_no_alias("syrk_lower", "a", a, "c", c);
        contract::require_finite_mat("syrk_lower", "a", a, ar, ac, lda);
    }
    add(Level::L3, (n * n * k) as u64);
    add_bytes(Level::L3, {
        let npc = k.div_ceil(KC).max(1) as u64;
        8 * (2 * (n * k) as u64 + (n * n) as u64 * npc)
    });
    scale_lower(beta, n, c, ldc);
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    match trans {
        Trans::No => {
            for kk in 0..k {
                let acol = &a[kk * lda..kk * lda + n];
                for j in 0..n {
                    let t = alpha * acol[j];
                    if t == 0.0 {
                        continue;
                    }
                    let ccol = &mut c[j * ldc..j * ldc + n];
                    for i in j..n {
                        ccol[i] += t * acol[i];
                    }
                }
            }
        }
        Trans::Yes => {
            for j in 0..n {
                let aj = &a[j * lda..j * lda + k];
                for i in j..n {
                    let ai = &a[i * lda..i * lda + k];
                    let mut s = 0.0;
                    for l in 0..k {
                        s += ai[l] * aj[l];
                    }
                    c[i + j * ldc] += alpha * s;
                }
            }
        }
    }
}

/// Scale the lower triangle (diagonal included) of an order-`n` matrix.
fn scale_lower<T: Scalar>(beta: T, n: usize, c: &mut [T], ldc: usize) {
    if beta == T::ONE {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc + j..j * ldc + n];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// Column-panel width of the blocked `syr2k` and `symm`: everything
/// below a panel's diagonal block goes through the packed `gemm`
/// (`syr2k` runs the diagonal block itself through a rank-1 kernel).
const TRI_JB: usize = 64;

/// Traffic model shared by the serial and parallel `syr2k`: `A`/`B`
/// each packed twice (once per `gemm` role), the `C` triangle
/// read+written once per rank-`KC` update.
fn syr2k_bytes<T: Scalar>(n: usize, k: usize) -> u64 {
    let npc = k.div_ceil(KC).max(1) as u64;
    T::BYTES * (4 * (n * k) as u64 + (n * n) as u64 * npc)
}

/// Symmetric / Hermitian rank-2k update of the lower triangle
/// (`dsyr2k` / `zher2k`):
/// `C <- alpha A B^H + conj(alpha) B A^H + beta C`, with `A`, `B` both
/// `n x k` (`^H` is `^T` on the real types). On the complex types the
/// diagonal is kept exactly real, so `beta` must be real there.
///
/// This is the trailing-matrix update of both the one-stage (`latrd` +
/// `syr2k`) and the first stage of the two-stage reduction. Blocked:
/// `TRI_JB`-wide diagonal blocks run the rank-1 kernel, the strictly
/// sub-diagonal part of each column panel is two packed `gemm`s.
#[allow(clippy::too_many_arguments)]
pub fn syr2k_lower<T: ComplexScalar + GemmScalar>(
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
    syr2k_contract("syr2k_lower", n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (n * n * k) as u64);
    add_bytes(Level::L3, syr2k_bytes::<T>(n, k));
    scale_lower(beta, n, c, ldc);
    if alpha == T::ZERO || n == 0 || k == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let jn = TRI_JB.min(n - j0);
        syr2k_panel(n, k, alpha, a, lda, b, ldb, &mut c[j0 * ldc..], ldc, j0, jn);
        j0 += jn;
    }
}

/// Entry contract shared by the serial and parallel `syr2k`: `A`, `B`
/// are `n x k`, `C` covers an order-`n` triangle, nothing aliases `C`.
#[allow(clippy::too_many_arguments)]
fn syr2k_contract<T: Scalar>(
    kernel: &str,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &[T],
    ldc: usize,
) {
    if !contract::enabled() {
        return;
    }
    contract::require_mat(kernel, "a", a, n, k, lda);
    contract::require_mat(kernel, "b", b, n, k, ldb);
    contract::require_mat(kernel, "c", c, n, n, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_mat(kernel, "a", a, n, k, lda);
    contract::require_finite_mat(kernel, "b", b, n, k, ldb);
}

/// One `TRI_JB`-wide column panel `j0..j0+jn` of the `syr2k` update
/// (accumulate only; scaling and accounting are the callers'): the
/// rank-1-loop diagonal block, then two packed `gemm`s for the rows
/// below it. `cpanel` starts at column `j0` of `C`.
#[allow(clippy::too_many_arguments)]
fn syr2k_panel<T: ComplexScalar + GemmScalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    cpanel: &mut [T],
    ldc: usize,
    j0: usize,
    jn: usize,
) {
    syr2k_diag(
        jn,
        k,
        alpha,
        &a[j0..],
        lda,
        &b[j0..],
        ldb,
        &mut cpanel[j0..],
        ldc,
    );
    let rows_below = n - j0 - jn;
    if rows_below > 0 {
        let r0 = j0 + jn;
        gemm_into(
            Trans::No,
            Trans::Yes,
            rows_below,
            jn,
            k,
            alpha,
            &a[r0..],
            lda,
            &b[j0..],
            ldb,
            &mut cpanel[r0..],
            ldc,
        );
        gemm_into(
            Trans::No,
            Trans::Yes,
            rows_below,
            jn,
            k,
            alpha.conj(),
            &b[r0..],
            ldb,
            &a[j0..],
            lda,
            &mut cpanel[r0..],
            ldc,
        );
    }
}

/// Rank-1-loop `syr2k` on a diagonal block (accumulate only; scaling and
/// accounting are the callers' responsibility). Snaps the diagonal's
/// imaginary part to zero (a no-op on the real types).
#[allow(clippy::too_many_arguments)]
fn syr2k_diag<T: ComplexScalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    for kk in 0..k {
        let acol = &a[kk * lda..kk * lda + n];
        let bcol = &b[kk * ldb..kk * ldb + n];
        for j in 0..n {
            // conj(alpha a_j) and alpha conj(b_j): the row-j factors of
            // conj(alpha) B A^H and alpha A B^H.
            let ta = (alpha * acol[j]).conj();
            let tb = alpha * bcol[j].conj();
            if ta == T::ZERO && tb == T::ZERO {
                continue;
            }
            let ccol = &mut c[j * ldc..j * ldc + n];
            for i in j..n {
                ccol[i] += bcol[i] * ta + acol[i] * tb;
            }
        }
    }
    if T::IS_COMPLEX {
        for j in 0..n {
            let d = &mut c[j + j * ldc];
            *d = T::new(d.re(), 0.0);
        }
    }
}

/// Parallel [`syr2k_lower`]: column panels of the lower triangle are
/// disjoint, one rayon task each; within a panel the sub-diagonal block
/// runs the packed `gemm` with per-thread packing buffers.
#[allow(clippy::too_many_arguments)]
pub fn syr2k_lower_par<T: ComplexScalar + GemmScalar>(
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
    if n * n * k < 48 * 48 * 48 || rayon::current_num_threads() == 1 {
        syr2k_lower(n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    syr2k_contract("syr2k_lower_par", n, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (n * n * k) as u64);
    add_bytes(Level::L3, syr2k_bytes::<T>(n, k));
    let jb = TRI_JB;
    c[..(n - 1) * ldc + n]
        .par_chunks_mut(jb * ldc)
        .enumerate()
        .for_each(|(p, cpanel)| {
            let j0 = p * jb;
            let jn = jb.min(n - j0);
            // Scale this panel's triangle columns (rows j..n of column j).
            for jj in 0..jn {
                let col = &mut cpanel[jj * ldc + j0 + jj..jj * ldc + n];
                if beta == T::ZERO {
                    col.fill(T::ZERO);
                } else if beta != T::ONE {
                    for v in col {
                        *v *= beta;
                    }
                }
            }
            if alpha == T::ZERO || k == 0 {
                return;
            }
            syr2k_panel(n, k, alpha, a, lda, b, ldb, cpanel, ldc, j0, jn);
        });
}

/// Traffic model of the blocked `symm_lower_left`: the stored triangle
/// is read once, `B` is re-streamed once per `TRI_JB`-wide column panel
/// of `A`, `C` read+written once.
fn symm_bytes<T: Scalar>(m: usize, k: usize) -> u64 {
    let sweeps = m.div_ceil(TRI_JB).max(1) as u64;
    T::BYTES * (((m * m / 2) + 2 * m * k) as u64 + (m * k) as u64 * sweeps)
}

/// Symmetric / Hermitian times rectangular multiply (`dsymm` /
/// `zhemm`, left side, lower storage): `C <- alpha A B + beta C` with
/// `A` of order `m` (lower triangle stored, the upper one its
/// conjugate mirror, the diagonal's imaginary part ignored) and `B`, `C`
/// `m x k`. Blocked like [`syr2k_lower`]: per `TRI_JB`-wide column panel
/// of `A`, the diagonal block (mirrored into a full square) plus two
/// packed `gemm`s — `No` for the strictly-lower block, `Yes` for its
/// mirrored upper image — so every flop runs on the packed engine.
///
/// This is the `A2 * (V T)` product at the heart of the stage-1 trailing
/// update.
#[allow(clippy::too_many_arguments)]
pub fn symm_lower_left<T: ComplexScalar + GemmScalar>(
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
    symm_contract("symm_lower_left", m, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * m * k) as u64);
    add_bytes(Level::L3, symm_bytes::<T>(m, k));
    scale_c(beta, m, k, c, ldc);
    if alpha == T::ZERO {
        return;
    }
    symm_into(m, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Entry contract shared by the serial and parallel `symm`: `A` is a
/// stored lower triangle of order `m` (only that triangle is poison-
/// scanned), `B` and `C` are `m x k`, nothing aliases `C`.
#[allow(clippy::too_many_arguments)]
fn symm_contract<T: Scalar>(
    kernel: &str,
    m: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &[T],
    ldc: usize,
) {
    if !contract::enabled() {
        return;
    }
    contract::require_mat(kernel, "a", a, m, m, lda);
    contract::require_mat(kernel, "b", b, m, k, ldb);
    contract::require_mat(kernel, "c", c, m, k, ldc);
    contract::require_no_alias(kernel, "a", a, "c", c);
    contract::require_no_alias(kernel, "b", b, "c", c);
    contract::require_finite_lower(kernel, "a", a, m, lda);
    contract::require_finite_mat(kernel, "b", b, m, k, ldb);
}

/// Accumulate-only blocked body of [`symm_lower_left`] (no scaling, no
/// accounting): `C += alpha A B`, one `TRI_JB`-wide column panel of the
/// stored triangle at a time. The panel's diagonal block is mirrored
/// into a full square on the stack, so it runs through the packed
/// `gemm` too.
#[allow(clippy::too_many_arguments)]
fn symm_into<T: ComplexScalar + GemmScalar>(
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
    if m == 0 || k == 0 {
        return;
    }
    let mut diag = [T::ZERO; TRI_JB * TRI_JB];
    let mut j0 = 0;
    while j0 < m {
        let jn = TRI_JB.min(m - j0);
        // Diagonal block A[j0..j0+jn, j0..j0+jn], both triangles.
        for j in 0..jn {
            let d = a[j0 + j + (j0 + j) * lda];
            diag[j + j * jn] = T::new(d.re(), 0.0);
            for i in j + 1..jn {
                let v = a[j0 + i + (j0 + j) * lda];
                diag[i + j * jn] = v;
                diag[j + i * jn] = v.conj();
            }
        }
        gemm_into(
            Trans::No,
            Trans::No,
            jn,
            k,
            jn,
            alpha,
            &diag,
            jn,
            &b[j0..],
            ldb,
            &mut c[j0..],
            ldc,
        );
        let rows_below = m - j0 - jn;
        if rows_below > 0 {
            let r0 = j0 + jn;
            // C[r0.., :] += alpha * A[r0.., j0..r0] * B[j0..r0, :]
            gemm_into(
                Trans::No,
                Trans::No,
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
            gemm_into(
                Trans::Yes,
                Trans::No,
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

/// Parallel [`symm_lower_left`]: `A`'s columns are split into chunks of
/// roughly equal stored-element count, each worker accumulates into a
/// private `C` — the off-diagonal blocks through the packed `gemm` —
/// and the partials are summed. `A` is streamed exactly once in total.
#[allow(clippy::too_many_arguments)]
pub fn symm_lower_left_par<T: ComplexScalar + GemmScalar>(
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
    if m * m * k < 48 * 48 * 48 || rayon::current_num_threads() == 1 {
        symm_lower_left(m, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    symm_contract("symm_lower_left_par", m, k, a, lda, b, ldb, c, ldc);
    add(Level::L3, T::MULADD_FLOPS * (m * m * k) as u64);
    add_bytes(Level::L3, symm_bytes::<T>(m, k));
    // Chunk boundaries over A's column range, balanced by trapezoid
    // area; each chunk contributes a blocked diagonal symm plus two
    // packed gemms, accumulated into a private C and reduced.
    let threads = rayon::current_num_threads();
    let nchunks = (2 * threads).max(m / 96).max(2);
    let total = m * (m + 1) / 2;
    let mut bounds = vec![0usize];
    let mut last = 0usize;
    let mut acc = 0usize;
    let mut next = total / nchunks;
    for j in 0..m {
        acc += m - j;
        if acc >= next && last < j + 1 {
            last = j + 1;
            bounds.push(last);
            next = acc + total / nchunks;
        }
    }
    if last != m {
        bounds.push(m);
    }
    let partials: Vec<(usize, usize, Vec<T>)> = bounds
        .par_windows(2)
        .map(|w| {
            let (c0, c1) = (w[0], w[1]);
            let wl = c1 - c0;
            let rl = m - c1;
            // Private output covering only the rows this chunk touches
            // (c0..m), k columns.
            let rows = m - c0;
            let mut pc = vec![T::ZERO; rows * k];
            // Diagonal block: rows/cols c0..c1.
            symm_into(
                wl,
                k,
                T::ONE,
                &a[c0 + c0 * lda..],
                lda,
                &b[c0..],
                ldb,
                &mut pc,
                rows,
            );
            if rl > 0 {
                // C[c1.., :] += A[c1.., c0..c1] * B[c0..c1, :]
                gemm_into(
                    Trans::No,
                    Trans::No,
                    rl,
                    k,
                    wl,
                    T::ONE,
                    &a[c1 + c0 * lda..],
                    lda,
                    &b[c0..],
                    ldb,
                    &mut pc[wl..],
                    rows,
                );
                // C[c0..c1, :] += A[c1.., c0..c1]^H * B[c1.., :]
                gemm_into(
                    Trans::Yes,
                    Trans::No,
                    wl,
                    k,
                    rl,
                    T::ONE,
                    &a[c1 + c0 * lda..],
                    lda,
                    &b[c1..],
                    ldb,
                    &mut pc,
                    rows,
                );
            }
            (c0, rows, pc)
        })
        .collect();
    for j in 0..k {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else if beta != T::ONE {
            for v in col.iter_mut() {
                *v *= beta;
            }
        }
        for (c0, rows, pc) in &partials {
            let pcol = &pc[j * rows..j * rows + rows];
            for i in 0..*rows {
                col[c0 + i] += alpha * pcol[i];
            }
        }
    }
}

/// In-place triangular multiply `B <- op(L) B` with `L` a `k x k`
/// **unit lower-triangular** matrix (implicit ones on the diagonal; only
/// the strictly-lower entries of `l` are read) and `B` `k x n`.
///
/// No solver path calls it any more: the diamond back-transformation
/// now runs its unit-triangular top through packed `gemm`s on the
/// zero-padded parallelogram. It stays public as the scalar
/// triangular-multiply probe of the per-layer benchmark.
pub fn trmm_unit_lower_left(
    trans: Trans,
    k: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if contract::enabled() {
        contract::require_mat("trmm_unit_lower_left", "l", l, k, k, ldl);
        contract::require_mat("trmm_unit_lower_left", "b", b, k, n, ldb);
        contract::require_no_alias("trmm_unit_lower_left", "l", l, "b", b);
    }
    add(Level::L3, (n * k * k) as u64);
    add_bytes(Level::L3, 8 * ((k * k / 2) as u64 + 2 * (k * n) as u64));
    if k == 0 || n == 0 {
        return;
    }
    let mut j = 0;
    while j < n {
        let jn = NR.min(n - j);
        match trans {
            Trans::No => {
                // b_i <- b_i + sum_{l < i} L(i,l) b_l : bottom-up keeps
                // the unread originals intact.
                for i in (1..k).rev() {
                    let mut s = [0.0f64; NR];
                    for p in 0..i {
                        let lv = l[i + p * ldl];
                        for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                            *sv += lv * b[p + (j + jj) * ldb];
                        }
                    }
                    for (jj, sv) in s.iter().enumerate().take(jn) {
                        b[i + (j + jj) * ldb] += sv;
                    }
                }
            }
            Trans::Yes => {
                // b_i <- b_i + sum_{l > i} L(l,i) b_l : top-down.
                for i in 0..k {
                    let mut s = [0.0f64; NR];
                    for p in i + 1..k {
                        let lv = l[p + i * ldl];
                        for (jj, sv) in s.iter_mut().enumerate().take(jn) {
                            *sv += lv * b[p + (j + jj) * ldb];
                        }
                    }
                    for (jj, sv) in s.iter().enumerate().take(jn) {
                        b[i + (j + jj) * ldb] += sv;
                    }
                }
            }
        }
        j += jn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{CMatrixG, Matrix, C64};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        a.multiply(b).unwrap()
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_all_transpose_combos() {
        let m = 7;
        let n = 9;
        let k = 5;
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let want = naive(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        for (ta, tb, am, bm) in [
            (Trans::No, Trans::No, &a, &b),
            (Trans::Yes, Trans::No, &at, &b),
            (Trans::No, Trans::Yes, &a, &bt),
            (Trans::Yes, Trans::Yes, &at, &bt),
        ] {
            let mut c = Matrix::zeros(m, n);
            gemm(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                0.0,
                c.as_mut_slice(),
                m,
            );
            assert!(c.approx_eq(&want, 1e-13), "combo {ta:?} {tb:?} wrong");
        }
    }

    #[test]
    fn gemm_packed_matches_unpacked_across_blocks() {
        // Shapes straddling the MR/NR/KC/MC boundaries: the packed path
        // must agree to rounding with `alpha A B + beta C` formed from
        // the unblocked triple-loop product.
        for (m, n, k, seed) in [
            (16, 4, 256, 30),
            (17, 5, 257, 31),
            (15, 3, 255, 32),
            (300, 40, 70, 33),
            (33, 1030, 12, 34),
            (1, 1, 1, 35),
        ] {
            let a = rand_mat(m, k, seed);
            let b = rand_mat(k, n, seed + 100);
            let mut c = rand_mat(m, n, seed + 200);
            let ab = naive(&a, &b);
            let want = Matrix::from_fn(m, n, |i, j| 1.3 * ab[(i, j)] + 0.7 * c[(i, j)]);
            gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.3,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.7,
                c.as_mut_slice(),
                m,
            );
            assert!(c.approx_eq(&want, 1e-11), "(m,n,k)=({m},{n},{k})");
        }
    }

    #[test]
    fn gemm_unpacked_all_transpose_combos() {
        // Odd shapes off every tile multiple, all four operand
        // transpositions (the shapes the seed's unpacked kernel was
        // pinned on, now run through the packed path).
        let m = 19;
        let n = 11;
        let k = 23;
        let a = rand_mat(m, k, 40);
        let b = rand_mat(k, n, 41);
        let want = naive(&a, &b);
        let at = a.transpose();
        let bt = b.transpose();
        for (ta, tb, am, bm) in [
            (Trans::No, Trans::No, &a, &b),
            (Trans::Yes, Trans::No, &at, &b),
            (Trans::No, Trans::Yes, &a, &bt),
            (Trans::Yes, Trans::Yes, &at, &bt),
        ] {
            let mut c = Matrix::zeros(m, n);
            gemm(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                am.as_slice(),
                am.rows(),
                bm.as_slice(),
                bm.rows(),
                0.0,
                c.as_mut_slice(),
                m,
            );
            assert!(c.approx_eq(&want, 1e-13), "combo {ta:?} {tb:?} wrong");
        }
    }

    #[test]
    fn gemm_with_padded_ldc() {
        // ldc > m: rows m..ldc of each C column must stay untouched.
        let (m, n, k, ldc) = (21, 9, 17, 29);
        let a = rand_mat(m, k, 50);
        let b = rand_mat(k, n, 51);
        let mut c = vec![7.5f64; ldc * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            &mut c,
            ldc,
        );
        let want = naive(&a, &b);
        for j in 0..n {
            for i in 0..m {
                assert!((c[i + j * ldc] - want[(i, j)]).abs() < 1e-13);
            }
            for i in m..ldc {
                assert_eq!(c[i + j * ldc], 7.5, "padding clobbered at ({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = rand_mat(6, 4, 3);
        let b = rand_mat(4, 5, 4);
        let c0 = rand_mat(6, 5, 5);
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            6,
            5,
            4,
            2.0,
            a.as_slice(),
            6,
            b.as_slice(),
            4,
            -3.0,
            c.as_mut_slice(),
            6,
        );
        let want = naive(&a, &b);
        for j in 0..5 {
            for i in 0..6 {
                let w = 2.0 * want[(i, j)] - 3.0 * c0[(i, j)];
                assert!((c[(i, j)] - w).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn gemm_par_matches_sequential() {
        let m = 130;
        let n = 117;
        let k = 83;
        let a = rand_mat(m, k, 6);
        let b = rand_mat(k, n, 7);
        let mut c1 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        // Exercise the jc split with several worker-count hints,
        // including ones that do not divide n.
        for threads in [2, 3, 7] {
            let mut c2 = Matrix::zeros(m, n);
            gemm_par_with(
                threads,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.0,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.0,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
    }

    #[test]
    fn gemm_par_transb_matches() {
        let m = 96;
        let n = 101;
        let k = 64;
        let a = rand_mat(m, k, 8);
        let bt = rand_mat(n, k, 9);
        let mut c1 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            n,
            k,
            1.5,
            a.as_slice(),
            m,
            bt.as_slice(),
            n,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        for threads in [2, 5] {
            let mut c2 = Matrix::zeros(m, n);
            gemm_par_with(
                threads,
                Trans::No,
                Trans::Yes,
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                m,
                bt.as_slice(),
                n,
                0.0,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
    }

    #[test]
    fn gemm_par_tall_narrow_row_split() {
        // n too narrow for a column split: the ic-parallel path with
        // private accumulators must take over and still match, beta
        // applied exactly once.
        let m = 400;
        let n = 6;
        let k = 90;
        let a = rand_mat(m, k, 60);
        let b = rand_mat(k, n, 61);
        let c0 = rand_mat(m, n, 62);
        let mut c1 = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            2.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            -0.5,
            c1.as_mut_slice(),
            m,
        );
        for threads in [2, 3, 8] {
            let mut c2 = c0.clone();
            gemm_par_with(
                threads,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                2.0,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                -0.5,
                c2.as_mut_slice(),
                m,
            );
            assert!(c1.approx_eq(&c2, 1e-12), "threads={threads}");
        }
        // Transposed A: the row split offsets into A's columns.
        let at = rand_mat(k, m, 63);
        let mut c3 = c0.clone();
        let mut c4 = c0.clone();
        gemm(
            Trans::Yes,
            Trans::No,
            m,
            n,
            k,
            1.0,
            at.as_slice(),
            k,
            b.as_slice(),
            k,
            1.0,
            c3.as_mut_slice(),
            m,
        );
        gemm_par_with(
            4,
            Trans::Yes,
            Trans::No,
            m,
            n,
            k,
            1.0,
            at.as_slice(),
            k,
            b.as_slice(),
            k,
            1.0,
            c4.as_mut_slice(),
            m,
        );
        assert!(c3.approx_eq(&c4, 1e-12));
    }

    #[test]
    fn gemm_par_short_final_chunk() {
        // n chosen so the last column panel is a single short column and
        // the C slice ends mid-panel ((n-1)*ldc + m).
        let m = 70;
        let n = 65;
        let k = 64;
        let a = rand_mat(m, k, 70);
        let b = rand_mat(k, n, 71);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c1.as_mut_slice(),
            m,
        );
        gemm_par_with(
            8,
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            k,
            0.0,
            c2.as_mut_slice(),
            m,
        );
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn syrk_matches_gemm() {
        let n = 8;
        let k = 5;
        let a = rand_mat(n, k, 10);
        let mut c = Matrix::zeros(n, n);
        syrk_lower(
            Trans::No,
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        let want = naive(&a, &a.transpose());
        for j in 0..n {
            for i in j..n {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-13);
            }
        }
        // Trans variant.
        let at = a.transpose();
        let mut c2 = Matrix::zeros(n, n);
        syrk_lower(
            Trans::Yes,
            n,
            k,
            1.0,
            at.as_slice(),
            k,
            0.0,
            c2.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!((c2[(i, j)] - want[(i, j)]).abs() < 1e-13);
            }
        }
    }

    /// Random `m x n` matrix with entries in the unit box (the imaginary
    /// part is dropped at `f64`).
    fn rand_t<T: ComplexScalar>(m: usize, n: usize, seed: u64) -> CMatrixG<T> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrixG::from_fn(m, n, |_, _| {
            T::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    /// `syr2k` / `her2k` against the dense `alpha A B^H + conj(alpha) B
    /// A^H + beta C` on the lower triangle, at orders on both sides of
    /// the `TRI_JB` panel width; the upper triangle stays untouched and,
    /// on complex types, the diagonal comes out exactly real.
    fn syr2k_matches_dense_at<T: ComplexScalar + GemmScalar>() {
        let k = 4;
        for n in [1, 9, 63, 64, 65, 130] {
            let a = rand_t::<T>(n, k, 11);
            let b = rand_t::<T>(n, k, 12);
            let mut c0 = rand_t::<T>(n, n, 13);
            c0.hermitize_from_lower();
            let (alpha, beta) = (T::new(0.5, -0.25), T::new(0.5, 0.0));
            let mut c = c0.clone();
            syr2k_lower(
                n,
                k,
                alpha,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                beta,
                c.as_mut_slice(),
                n,
            );
            let abh = a.multiply(&b.adjoint());
            let bah = b.multiply(&a.adjoint());
            for j in 0..n {
                for i in j..n {
                    let w = alpha * abh[(i, j)] + alpha.conj() * bah[(i, j)] + beta * c0[(i, j)];
                    assert!((c[(i, j)] - w).abs() < 1e-13, "n={n} ({i},{j})");
                }
                for i in 0..j {
                    assert!(c[(i, j)] == c0[(i, j)], "upper triangle touched");
                }
                assert_eq!(c[(j, j)].im(), 0.0, "diagonal not real");
            }
        }
    }

    #[test]
    fn syr2k_matches_gemm_pair() {
        syr2k_matches_dense_at::<f64>();
        syr2k_matches_dense_at::<C64>();
    }

    #[test]
    fn syr2k_blocked_crosses_panel_boundary() {
        // n > TRI_JB so the blocked serial path runs its gemm arm;
        // check against the rank-1 diagonal kernel on the full triangle.
        let n = 150;
        let k = 20;
        let a = rand_mat(n, k, 26);
        let b = rand_mat(n, k, 27);
        let c0 = rand_mat(n, n, 28);
        let mut c1 = c0.clone();
        syr2k_lower(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c1.as_mut_slice(),
            n,
        );
        // Oracle: full dense alpha(AB^T + BA^T) + beta C on the triangle.
        let abt = naive(&a, &b.transpose());
        let bat = naive(&b, &a.transpose());
        for j in 0..n {
            for i in j..n {
                let w = abt[(i, j)] + bat[(i, j)] + 0.5 * c0[(i, j)];
                assert!((c1[(i, j)] - w).abs() < 1e-11, "mismatch at ({i},{j})");
            }
            for i in 0..j {
                assert_eq!(
                    c1[(i, j)],
                    c0[(i, j)],
                    "upper triangle touched at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn syr2k_par_matches_sequential() {
        let n = 150;
        let k = 40;
        let a = rand_mat(n, k, 13);
        let b = rand_mat(n, k, 14);
        let mut c1 = rand_mat(n, n, 15);
        let mut c2 = c1.clone();
        syr2k_lower(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c1.as_mut_slice(),
            n,
        );
        syr2k_lower_par(
            n,
            k,
            1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            0.5,
            c2.as_mut_slice(),
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!(
                    (c1[(i, j)] - c2[(i, j)]).abs() < 1e-11,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    /// `symm` / `hemm` against the dense product at orders on both sides
    /// of the `TRI_JB` panel width (and one spanning three panels), the
    /// stage-1 column count, and padded leading dimensions with NaN in
    /// every unread slot, each with two `(alpha, beta)` pairs, all to
    /// the same absolute bound. On complex types the stored diagonal
    /// carries a junk imaginary part the Hermitian contract ignores.
    fn symm_matches_dense_at<T: ComplexScalar + GemmScalar>() {
        let nan = T::new(f64::NAN, f64::NAN);
        for m in [1, 9, 63, 64, 65, 130] {
            for k in [1, 4, 48] {
                for (alpha, beta) in [
                    (T::new(2.0, 0.5), T::new(-1.0, 0.25)),
                    (T::new(1.5, -0.5), T::new(0.5, 0.75)),
                ] {
                    let (lda, ldb, ldc) = (m + 3, m + 1, m + 2);
                    let mut full = rand_t::<T>(m, m, (m + k) as u64);
                    full.hermitize_from_lower();
                    let mut a = vec![nan; lda * m];
                    for j in 0..m {
                        for i in j..m {
                            a[i + j * lda] = full[(i, j)];
                        }
                        a[j + j * lda] += T::new(0.0, 0.75);
                    }
                    let bm = rand_t::<T>(m, k, 26);
                    let mut b = vec![nan; ldb * k];
                    let c0 = rand_t::<T>(m, k, 27);
                    let mut c = vec![nan; ldc * k];
                    for j in 0..k {
                        for i in 0..m {
                            b[i + j * ldb] = bm[(i, j)];
                            c[i + j * ldc] = c0[(i, j)];
                        }
                    }
                    symm_lower_left(m, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
                    let want = full.multiply(&bm);
                    for j in 0..k {
                        for i in 0..m {
                            let w = alpha * want[(i, j)] + beta * c0[(i, j)];
                            let got = c[i + j * ldc];
                            assert!((got - w).abs() < 1e-13, "m={m} k={k} ({i},{j})");
                        }
                        assert!(c[m + j * ldc..(j + 1) * ldc]
                            .iter()
                            .all(|v| v.re().is_nan()));
                    }
                }
            }
        }
    }

    #[test]
    fn symm_matches_dense() {
        symm_matches_dense_at::<f64>();
        symm_matches_dense_at::<C64>();
    }

    #[test]
    fn symm_par_matches_sequential() {
        let m = 200;
        let k = 24;
        let a = tseig_matrix::gen::random_symmetric(m, 23);
        let b = rand_mat(m, k, 24);
        let mut c1 = rand_mat(m, k, 25);
        let mut c2 = c1.clone();
        symm_lower_left(
            m,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.5,
            c1.as_mut_slice(),
            m,
        );
        symm_lower_left_par(
            m,
            k,
            1.5,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.5,
            c2.as_mut_slice(),
            m,
        );
        assert!(c1.approx_eq(&c2, 1e-10));
    }

    #[test]
    fn trmm_unit_lower_matches_dense() {
        let k = 9;
        let n = 6;
        let mut l = rand_mat(k, k, 90);
        let mut dense = Matrix::zeros(k, k);
        for j in 0..k {
            for i in 0..k {
                if i > j {
                    dense[(i, j)] = l[(i, j)];
                } else if i == j {
                    dense[(i, j)] = 1.0;
                    l[(i, j)] = f64::NAN; // prove diagonal is implicit
                } else {
                    l[(i, j)] = f64::NAN; // prove upper part unread
                }
            }
        }
        let b0 = rand_mat(k, n, 91);
        let mut b = b0.clone();
        trmm_unit_lower_left(Trans::No, k, n, l.as_slice(), k, b.as_mut_slice(), k);
        assert!(b.approx_eq(&naive(&dense, &b0), 1e-13));

        let mut b2 = b0.clone();
        trmm_unit_lower_left(Trans::Yes, k, n, l.as_slice(), k, b2.as_mut_slice(), k);
        assert!(b2.approx_eq(&naive(&dense.transpose(), &b0), 1e-13));
    }

    #[test]
    fn gemm_every_dispatch_path_matches_scalar_bitwise() {
        // The kernels share KC blocking and FMA accumulation order, so
        // every ISA path must agree with the scalar tile bit for bit.
        for (m, n, k) in [(40, 29, 17), (97, 65, 300), (24, 8, 256), (5, 13, 9)] {
            let a = rand_mat(m, k, 80);
            let b = rand_mat(k, n, 81);
            let c0 = rand_mat(m, n, 82);
            let mut want = c0.clone();
            gemm_with_kernel(
                &simd::SCALAR,
                Trans::No,
                Trans::No,
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                1.0,
                want.as_mut_slice(),
                m,
            );
            for kern in simd::available() {
                let mut c = c0.clone();
                gemm_with_kernel(
                    kern,
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k,
                    1.5,
                    a.as_slice(),
                    m,
                    b.as_slice(),
                    k,
                    1.0,
                    c.as_mut_slice(),
                    m,
                );
                for (i, (&got, &w)) in c.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        got, w,
                        "kernel {} differs at {i} (m={m},n={n},k={k})",
                        kern.name
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_sizes_are_noops() {
        let mut c = [1.0f64];
        gemm(
            Trans::No,
            Trans::No,
            0,
            0,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            1.0,
            &mut c,
            1,
        );
        assert_eq!(c[0], 1.0);
        gemm(
            Trans::No,
            Trans::No,
            1,
            1,
            0,
            1.0,
            &[],
            1,
            &[],
            1,
            0.5,
            &mut c,
            1,
        );
        assert_eq!(c[0], 0.5);
    }
}
