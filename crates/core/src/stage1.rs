//! Stage 1: dense to symmetric (Hermitian) band reduction (`sy2sb`).
//!
//! Bischof–Lang SBR-style block reduction. For each panel `k` (columns
//! `j0..j0+nb`), the sub-panel below the band — rows `r0 = j0+nb .. n` —
//! is QR-factorized; the resulting block reflector `Q_k = I - V T V^H` is
//! applied to both sides of the trailing Hermitian submatrix through the
//! rank-2k form
//!
//! ```text
//! W = A V T,   M = V^H W,   X = W - 1/2 V (T^H M),
//! A <- A - V X^H - X V^H              (syr2k / her2k)
//! ```
//!
//! Everything is Level-3 (`gemm`/`symm`/`syr2k`, each blocked onto the
//! packed GEMM engine; the scheduled pipeline picks their rayon-parallel
//! variants, the serial one their sequential forms): the compute-bound
//! recasting that motivates the whole two-stage design.
//! `V` and `T` are retained per panel for the back-transformation
//! (`Q1` application, paper Fig. 3a).
//!
//! One code path for every element type: `T = f64` is the symmetric
//! reduction (`conj` is the identity, so `^H` reads `^T`), `C32`/`C64`
//! the Hermitian one. The dense input is any column-major
//! [`ColMajorMut`] matrix (`Matrix`, `CMatrixG<T>`).

use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::blas3::{
    gemm, gemm_par, symm_lower_left, symm_lower_left_par, syr2k_lower, syr2k_lower_par, Trans,
};
use tseig_kernels::contract;
use tseig_kernels::qr::{extract_v_t_vec, geqrf_req, geqrf_ws, QrWs};
use tseig_matrix::workspace::{reset_zeroed, MemReq};
use tseig_matrix::{ColMajorMut, ComplexScalar, Ctrl, SymBandMatrix};

/// One panel's block reflector: `Q_k = I - V T V^H` acting on rows
/// `r0..r0 + rows`. Generic over the element type: the real reduction
/// stores `f64` panels, the Hermitian one complex panels, and the one
/// back-transformation applies either.
pub struct Q1Panel<T = f64> {
    /// First global row the reflector touches.
    pub r0: usize,
    /// Row count of `V` (`n - r0`).
    pub rows: usize,
    /// `rows x kb` reflector block, column-major, explicit unit diagonal.
    pub v: Vec<T>,
    /// `kb x kb` upper-triangular factor (clean lower triangle).
    pub t: Vec<T>,
}

impl<T> Q1Panel<T> {
    /// Reflector count `kb` (the column count of `V`).
    pub fn kb(&self) -> usize {
        self.v.len().checked_div(self.rows).unwrap_or(0)
    }
}

/// Result of the stage-1 reduction.
pub struct BandForm<T = f64> {
    /// The symmetric (Hermitian) band matrix `B` (with `nb` extra
    /// workspace diagonals ready for the bulge chase).
    pub band: SymBandMatrix<T>,
    /// Panel reflectors composing `Q1` in application order.
    pub panels: Vec<Q1Panel<T>>,
    /// Semi-bandwidth.
    pub nb: usize,
}

impl<T: ComplexScalar> BandForm<T> {
    /// Bytes of heap capacity retained by the band store and every
    /// panel's `(V, T)` pair (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        self.band.capacity_bytes()
            + self
                .panels
                .iter()
                .map(|p| (p.v.capacity() + p.t.capacity()) * std::mem::size_of::<T>())
                .sum::<usize>()
    }
}

impl<T: ComplexScalar> Default for BandForm<T> {
    /// The empty (order-0) band form.
    fn default() -> Self {
        BandForm {
            band: SymBandMatrix::zeros(0, 0, 0),
            panels: Vec::new(),
            nb: 0,
        }
    }
}

/// Reusable scratch of the stage-1 reduction: panel QR workspace plus the
/// four intermediates of the symmetric rank-2k update. All buffers retain
/// capacity across panels and solves.
pub struct Stage1Ws<T = f64> {
    tau: Vec<T>,
    qr: QrWs<T>,
    vt: Vec<T>,
    w: Vec<T>,
    mm: Vec<T>,
    tm: Vec<T>,
}

impl<T: ComplexScalar> Default for Stage1Ws<T> {
    fn default() -> Self {
        Stage1Ws {
            tau: Vec::new(),
            qr: QrWs::new(),
            vt: Vec::new(),
            w: Vec::new(),
            mm: Vec::new(),
            tm: Vec::new(),
        }
    }
}

impl<T: ComplexScalar> Stage1Ws<T> {
    pub fn new() -> Self {
        Stage1Ws::default()
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        [&self.tau, &self.vt, &self.w, &self.mm, &self.tm]
            .iter()
            .map(|b| b.capacity())
            .sum::<usize>()
            * std::mem::size_of::<T>()
            + self.qr.capacity_bytes()
    }
}

/// Workspace requirement of [`sy2sb_ws`] for an order-`n` problem at
/// element type `T` (excluding the caller's `work` copy and the
/// [`BandForm`] output — see [`sy2sb_out_req`]).
pub fn sy2sb_ws_req<T>(n: usize, nb: usize, ib: usize) -> MemReq {
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    if n <= nb {
        return MemReq::EMPTY;
    }
    let m0 = n - nb; // largest sub-panel row count
    MemReq::of::<T>(nb) // tau
        .and(geqrf_req::<T>(m0, nb, ib))
        .and(MemReq::of::<T>(2 * m0 * nb)) // vt + w
        .and(MemReq::of::<T>(2 * nb * nb)) // mm + tm
}

/// Requirement of [`sy2sb_ws`]'s outputs at element type `T`: the band
/// store plus every panel's `(V, T)` pair.
pub fn sy2sb_out_req<T>(n: usize, nb: usize) -> MemReq {
    let nb = nb.max(1);
    let mut req = MemReq::of::<T>((2 * nb + 1) * n); // band + workspace diagonals
    let mut j0 = 0usize;
    // tidy: allow(checkpoint-loop) -- pure sizing arithmetic, no solver work
    while j0 + nb < n {
        let m = n - (j0 + nb);
        let kb = nb.min(m);
        req = req.and(MemReq::of::<T>(m * kb + kb * kb));
        j0 += nb;
    }
    req
}

/// Reduce the dense symmetric (Hermitian) `a` (lower triangle referenced)
/// to band form with semi-bandwidth `nb`. `ib` is the inner blocking of
/// the panel QR (defaults to `nb` when 0).
pub fn sy2sb<T, M>(a: &M, nb: usize, ib: usize) -> BandForm<T>
where
    T: ComplexScalar + GemmScalar,
    M: ColMajorMut<T> + Default,
{
    let mut work = M::default();
    let mut out = BandForm::default();
    let mut ws = Stage1Ws::new();
    // An inert control never fails a checkpoint.
    let _ = sy2sb_ws(a, nb, ib, true, &mut work, &mut out, &mut ws, &Ctrl::NONE);
    out
}

/// Planned variant of [`sy2sb`]: the dense working copy, the band/panel
/// outputs and all QR/update scratch live in caller-owned storage, so a
/// warmed-up plan runs the reduction without heap allocation.
/// `parallel` selects the rayon BLAS-3 variants (the scheduled pipeline)
/// or the strictly serial ones (the allocation-free plan path).
/// Polls `ctrl` once per panel; an armed cancel or expired deadline
/// aborts between panels with the structured error (outputs are then
/// partial but the storage stays reusable).
#[allow(clippy::too_many_arguments)]
pub fn sy2sb_ws<T, M>(
    a: &M,
    nb: usize,
    ib: usize,
    parallel: bool,
    work: &mut M,
    out: &mut BandForm<T>,
    ws: &mut Stage1Ws<T>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()>
where
    T: ComplexScalar + GemmScalar,
    M: ColMajorMut<T>,
{
    let n = a.nrows();
    assert_eq!(n, a.ncols());
    if contract::enabled() {
        contract::require_mat("sy2sb", "a", a.col_major(), n, n, n);
        contract::require_finite_lower("sy2sb", "a", a.col_major(), n, n);
    }
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    work.copy_from(a);
    let lda = n;
    let mut npanels = 0usize;

    let mut j0 = 0usize;
    while j0 + nb < n {
        ctrl.checkpoint()?;
        let r0 = j0 + nb;
        let m = n - r0; // rows of the sub-panel
        let kb = nb.min(m); // reflector count of this panel
        let wk = work.col_major_mut();
        // QR-factorize the sub-panel A[r0.., j0..j0+nb] in place.
        reset_zeroed(&mut ws.tau, kb);
        geqrf_ws(
            m,
            nb,
            &mut wk[r0 + j0 * lda..],
            lda,
            &mut ws.tau,
            ib,
            &mut ws.qr,
        );
        // Extract the clean V and T into the (reused) panel slot.
        if out.panels.len() <= npanels {
            out.panels.push(Q1Panel {
                r0,
                rows: m,
                v: Vec::new(), // tidy: allow(plan-no-alloc) -- empty placeholder; the pool grows only while the plan is cold
                t: Vec::new(), // tidy: allow(plan-no-alloc) -- empty placeholder; the pool grows only while the plan is cold
            });
        }
        let p = &mut out.panels[npanels];
        p.r0 = r0;
        p.rows = m;
        extract_v_t_vec(
            &wk[r0 + j0 * lda..],
            lda,
            m,
            kb,
            &ws.tau,
            &mut p.v,
            &mut p.t,
        );
        npanels += 1;
        // Zero the annihilated part of the panel in A (below the R
        // factor) so the band extraction below sees the true band; R
        // itself (the new band block) stays.
        for jj in 0..nb {
            let col = (j0 + jj) * lda;
            wk[col + (r0 + jj + 1).min(n)..col + n].fill(T::ZERO);
        }
        // Two-sided trailing update A2 <- Q^H A2 Q on A[r0.., r0..].
        let p = &out.panels[npanels - 1];
        two_sided_update(wk, lda, r0, &p.v, kb, &p.t, parallel, ws);
        j0 += nb;
    }

    out.panels.truncate(npanels);
    out.band.refill_from_dense_lower(work, nb, nb);
    out.nb = nb;
    Ok(())
}

/// `A2 <- (I - V T V^H)^H A2 (I - V T V^H)` for the trailing Hermitian
/// block of the order-`lda` matrix `a` starting at `r0`, via the
/// Hermitian rank-2k form.
#[allow(clippy::too_many_arguments)]
fn two_sided_update<T: ComplexScalar + GemmScalar>(
    a: &mut [T],
    lda: usize,
    r0: usize,
    v: &[T],
    kb: usize,
    t: &[T],
    parallel: bool,
    ws: &mut Stage1Ws<T>,
) {
    let m = lda - r0;
    if m == 0 || kb == 0 {
        return;
    }
    let (one, zero) = (T::ONE, T::ZERO);
    // X1 = V T  (m x kb)
    reset_zeroed(&mut ws.vt, m * kb);
    let gemm_big = if parallel { gemm_par } else { gemm };
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        one,
        v,
        m,
        t,
        kb,
        zero,
        &mut ws.vt,
        m,
    );
    // W = A2 * X1 (Hermitian multiply, lower storage)
    reset_zeroed(&mut ws.w, m * kb);
    let symm = if parallel {
        symm_lower_left_par
    } else {
        symm_lower_left
    };
    symm(
        m,
        kb,
        one,
        &a[r0 + r0 * lda..],
        lda,
        &ws.vt,
        m,
        zero,
        &mut ws.w,
        m,
    );
    // M = V^H W (kb x kb)
    reset_zeroed(&mut ws.mm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        m,
        one,
        v,
        m,
        &ws.w,
        m,
        zero,
        &mut ws.mm,
        kb,
    );
    // TM = T^H M
    reset_zeroed(&mut ws.tm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        kb,
        one,
        t,
        kb,
        &ws.mm,
        kb,
        zero,
        &mut ws.tm,
        kb,
    );
    // X = W - 1/2 V TM (accumulated in place: W doubles as X)
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        T::new(-0.5, 0.0),
        v,
        m,
        &ws.tm,
        kb,
        one,
        &mut ws.w,
        m,
    );
    // A2 -= V X^H + X V^H
    let syr2k = if parallel {
        syr2k_lower_par
    } else {
        syr2k_lower
    };
    syr2k(
        m,
        kb,
        -one,
        v,
        m,
        &ws.w,
        m,
        one,
        &mut a[r0 + r0 * lda..],
        lda,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms, CMatrix, Matrix};

    /// Materialize Q1 = Q_0 Q_1 ... Q_K explicitly into the order-`n`
    /// identity `q` (tests only).
    fn form_q1<T: ComplexScalar + GemmScalar>(bf: &BandForm<T>, n: usize, q: &mut [T]) {
        // Apply Q_k from the right: Q <- Q * (I - V T V^H), k ascending
        // gives Q = Q_0 Q_1 ... Q_K.
        for p in &bf.panels {
            let m = n - p.r0;
            let kb = p.kb();
            tseig_kernels::householder::larfb(
                tseig_kernels::householder::Side::Right,
                tseig_kernels::Trans::No,
                n,
                m,
                kb,
                &p.v,
                m,
                &p.t,
                kb,
                &mut q[p.r0 * n..],
                n,
            );
        }
    }

    fn check(n: usize, nb: usize, seed: u64) {
        let a = gen::random_symmetric(n, seed);
        let bf = sy2sb(&a, nb, 0);
        // Band must actually be banded.
        assert_eq!(bf.band.bandwidth(), nb);
        assert_eq!(bf.band.max_below_subdiagonal(nb), 0.0);
        // A == Q1 B Q1^T.
        let mut q = Matrix::identity(n);
        form_q1(&bf, n, q.as_mut_slice());
        assert!(
            norms::orthogonality(&q) < 100.0,
            "Q1 not orthogonal n={n} nb={nb}"
        );
        let b = bf.band.to_dense();
        let qbqt = q.multiply(&b).unwrap().multiply(&q.transpose()).unwrap();
        let tol = 200.0 * norms::norm1(&a) * n as f64 * norms::EPS;
        assert!(
            qbqt.approx_eq(&a, tol),
            "Q1 B Q1^T != A (n={n}, nb={nb}), err {}",
            {
                let mut d = qbqt.clone();
                for (x, y) in d.as_mut_slice().iter_mut().zip(a.as_slice()) {
                    *x -= *y;
                }
                d.max_abs()
            }
        );

        // The same reduction at C64: banded, A == Q1 B Q1^H, Q1 unitary.
        let a = gen::random_hermitian(n, seed);
        let bf = sy2sb(&a, nb, 0);
        assert_eq!(bf.band.bandwidth(), nb);
        assert_eq!(bf.band.max_below_subdiagonal(nb), 0.0);
        let mut q = CMatrix::identity(n);
        form_q1(&bf, n, q.as_mut_slice());
        let b = CMatrix::from_fn(n, n, |i, j| bf.band.get(i, j));
        let qbq = q.multiply(&b).multiply(&q.adjoint());
        assert!(
            qbq.max_diff(&a) < 1e-11 * n as f64,
            "C64 Q1 B Q1^H != A (n={n}, nb={nb})"
        );
        let qqh = q.multiply(&q.adjoint());
        assert!(
            qqh.max_diff(&CMatrix::identity(n)) < 1e-11,
            "C64 Q1 not unitary"
        );
    }

    #[test]
    fn exact_tiles() {
        check(48, 8, 1);
    }

    #[test]
    fn ragged_tail() {
        check(50, 8, 2);
        check(37, 5, 3);
        check(24, 5, 41);
    }

    #[test]
    fn band_one_is_tridiagonal_path() {
        check(20, 1, 4);
    }

    #[test]
    fn wide_band() {
        check(30, 12, 5);
    }

    #[test]
    fn already_banded_matrix_unchanged_spectrum() {
        let n = 40;
        let nb = 6;
        let lambda = gen::linspace(-4.0, 4.0, n);
        let a = gen::symmetric_with_spectrum(&lambda, 7);
        let bf = sy2sb(&a, nb, 3);
        let t = bf.band.to_dense();
        let got = tseig_kernels::reference::jacobi_eigen(&t, false)
            .unwrap()
            .eigenvalues;
        assert!(norms::eigenvalue_distance(&got, &lambda) < 1e-10);

        // C64: the Hermitian band keeps the spectrum (real-embedding oracle).
        let n = 20;
        let a = gen::random_hermitian(n, 42);
        let bf = sy2sb(&a, 4, 0);
        let b = CMatrix::from_fn(n, n, |i, j| bf.band.get(i, j));
        let eig = |m: &CMatrix| -> Vec<f64> {
            let all = tseig_kernels::reference::jacobi_eigen(&m.real_embedding(), false)
                .unwrap()
                .eigenvalues;
            all.iter().step_by(2).copied().collect()
        };
        assert!(norms::eigenvalue_distance(&eig(&b), &eig(&a)) < 1e-9);
    }

    #[test]
    fn no_panels_when_band_covers_matrix() {
        let a = gen::random_symmetric(6, 9);
        let bf = sy2sb(&a, 8, 0);
        assert!(bf.panels.is_empty());
        assert!(bf.band.to_dense().approx_eq(
            &{
                let mut s = a.clone();
                s.symmetrize_from_lower();
                s
            },
            1e-15
        ));
        let a = gen::random_hermitian(5, 43);
        let bf = sy2sb(&a, 8, 0);
        assert!(bf.panels.is_empty());
        let b = CMatrix::from_fn(5, 5, |i, j| bf.band.get(i, j));
        assert!(b.max_diff(&a) < 1e-14);
    }
}
