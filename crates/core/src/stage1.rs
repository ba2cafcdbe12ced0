//! Stage 1: dense to symmetric band reduction (`sy2sb`).
//!
//! Bischof–Lang SBR-style block reduction. For each panel `k` (columns
//! `j0..j0+nb`), the sub-panel below the band — rows `r0 = j0+nb .. n` —
//! is QR-factorized; the resulting block reflector `Q_k = I - V T V^T` is
//! applied to both sides of the trailing symmetric submatrix through the
//! symmetric rank-2k form
//!
//! ```text
//! W = A V T,   M = V^T W,   X = W - 1/2 V (T^T M),
//! A <- A - V X^T - X V^T              (syr2k)
//! ```
//!
//! Everything is Level-3 (`gemm`/`symm`/`syr2k`, each blocked onto the
//! packed GEMM engine; the scheduled pipeline picks their rayon-parallel
//! variants, the serial one their sequential forms): the compute-bound
//! recasting that motivates the whole two-stage design.
//! `V` and `T` are retained per panel for the back-transformation
//! (`Q1` application, paper Fig. 3a).

use tseig_kernels::blas3::{
    gemm, gemm_par, symm_lower_left, symm_lower_left_par, syr2k_lower, syr2k_lower_par, Trans,
};
use tseig_kernels::contract;
use tseig_kernels::qr::{extract_v_t_vec, geqrf_req, geqrf_ws, QrWs};
use tseig_matrix::workspace::{reset_f64s, MemReq};
use tseig_matrix::{Ctrl, Matrix, SymBandMatrix};

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
pub struct BandForm {
    /// The symmetric band matrix `B` (with `nb` extra workspace
    /// diagonals ready for the bulge chase).
    pub band: SymBandMatrix,
    /// Panel reflectors composing `Q1` in application order.
    pub panels: Vec<Q1Panel>,
    /// Semi-bandwidth.
    pub nb: usize,
}

impl BandForm {
    /// Bytes of heap capacity retained by the band store and every
    /// panel's `(V, T)` pair (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        self.band.capacity_bytes()
            + self
                .panels
                .iter()
                .map(|p| (p.v.capacity() + p.t.capacity()) * std::mem::size_of::<f64>())
                .sum::<usize>()
    }
}

impl Default for BandForm {
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
#[derive(Default)]
pub struct Stage1Ws {
    tau: Vec<f64>,
    qr: QrWs,
    vt: Matrix,
    w: Matrix,
    mm: Vec<f64>,
    tm: Vec<f64>,
}

impl Stage1Ws {
    pub fn new() -> Self {
        Stage1Ws::default()
    }

    /// Retained capacity in bytes (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.tau.capacity() + self.mm.capacity() + self.tm.capacity()) * std::mem::size_of::<f64>()
            + self.qr.capacity_bytes()
            + self.vt.capacity_bytes()
            + self.w.capacity_bytes()
    }
}

/// Workspace requirement of [`sy2sb_ws`] for an order-`n` problem
/// (excluding the caller's `work` copy and the [`BandForm`] output —
/// see [`sy2sb_out_req`]).
pub fn sy2sb_ws_req(n: usize, nb: usize, ib: usize) -> MemReq {
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    if n <= nb {
        return MemReq::EMPTY;
    }
    let m0 = n - nb; // largest sub-panel row count
    MemReq::f64s(nb) // tau
        .and(geqrf_req(m0, nb, ib))
        .and(MemReq::f64s(2 * m0 * nb)) // vt + w
        .and(MemReq::f64s(2 * nb * nb)) // mm + tm
}

/// Requirement of [`sy2sb_ws`]'s outputs: the band store plus every
/// panel's `(V, T)` pair.
pub fn sy2sb_out_req(n: usize, nb: usize) -> MemReq {
    let nb = nb.max(1);
    let mut req = MemReq::f64s((2 * nb + 1) * n); // band + workspace diagonals
    let mut j0 = 0usize;
    // tidy: allow(checkpoint-loop) -- pure sizing arithmetic, no solver work
    while j0 + nb < n {
        let m = n - (j0 + nb);
        let kb = nb.min(m);
        req = req.and(MemReq::f64s(m * kb + kb * kb));
        j0 += nb;
    }
    req
}

/// Reduce the dense symmetric `a` (lower triangle referenced) to band
/// form with semi-bandwidth `nb`. `ib` is the inner blocking of the panel
/// QR (defaults to `nb` when 0).
pub fn sy2sb(a: &Matrix, nb: usize, ib: usize) -> BandForm {
    let mut work = Matrix::zeros(0, 0);
    let mut out = BandForm {
        band: SymBandMatrix::zeros(0, 0, 0),
        panels: Vec::new(),
        nb: 0,
    };
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
pub fn sy2sb_ws(
    a: &Matrix,
    nb: usize,
    ib: usize,
    parallel: bool,
    work: &mut Matrix,
    out: &mut BandForm,
    ws: &mut Stage1Ws,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    if contract::enabled() {
        contract::require_mat("sy2sb", "a", a.as_slice(), n, n, a.ld());
        contract::require_finite_lower("sy2sb", "a", a.as_slice(), n, a.ld());
    }
    let nb = nb.max(1);
    let ib = if ib == 0 { nb } else { ib };
    work.copy_from(a);
    let lda = work.ld();
    let mut npanels = 0usize;

    let mut j0 = 0usize;
    while j0 + nb < n {
        ctrl.checkpoint()?;
        let r0 = j0 + nb;
        let m = n - r0; // rows of the sub-panel
        let kb = nb.min(m); // reflector count of this panel
                            // QR-factorize the sub-panel A[r0.., j0..j0+nb] in place.
        reset_f64s(&mut ws.tau, kb);
        {
            let panel = &mut work.as_mut_slice()[r0 + j0 * lda..];
            geqrf_ws(m, nb, panel, lda, &mut ws.tau, ib, &mut ws.qr);
        }
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
        {
            let panel = &work.as_slice()[r0 + j0 * lda..];
            extract_v_t_vec(panel, lda, m, kb, &ws.tau, &mut p.v, &mut p.t);
        }
        npanels += 1;
        // Zero the annihilated part of the panel in A (below the R
        // factor) so the band extraction below sees the true band; R
        // itself (the new band block) stays.
        for jj in 0..nb {
            for i in (r0 + jj + 1).min(n)..n {
                work[(i, j0 + jj)] = 0.0;
            }
        }
        // Two-sided trailing update A2 <- Q^T A2 Q on A[r0.., r0..].
        let p = &out.panels[npanels - 1];
        two_sided_update(work, r0, &p.v, kb, &p.t, parallel, ws);
        j0 += nb;
    }

    out.panels.truncate(npanels);
    out.band.refill_from_dense_lower(work, nb, nb);
    out.nb = nb;
    Ok(())
}

/// `A2 <- (I - V T V^T)^T A2 (I - V T V^T)` for the trailing symmetric
/// block starting at `r0`, via the symmetric rank-2k form.
fn two_sided_update(
    a: &mut Matrix,
    r0: usize,
    v: &[f64],
    kb: usize,
    t: &[f64],
    parallel: bool,
    ws: &mut Stage1Ws,
) {
    let n = a.rows();
    let lda = a.ld();
    let m = n - r0;
    if m == 0 || kb == 0 {
        return;
    }
    // X1 = V T  (m x kb)
    let vt = &mut ws.vt;
    vt.reset_to(m, kb);
    let gemm_big = if parallel { gemm_par } else { gemm };
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        1.0,
        v,
        m,
        t,
        kb,
        0.0,
        vt.as_mut_slice(),
        m,
    );
    // W = A2 * X1 (symmetric multiply, lower storage)
    let w = &mut ws.w;
    w.reset_to(m, kb);
    {
        let a2 = &a.as_slice()[r0 + r0 * lda..];
        let symm = if parallel {
            symm_lower_left_par
        } else {
            symm_lower_left
        };
        symm(
            m,
            kb,
            1.0,
            a2,
            lda,
            vt.as_slice(),
            m,
            0.0,
            w.as_mut_slice(),
            m,
        );
    }
    // M = V^T W (kb x kb)
    reset_f64s(&mut ws.mm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        m,
        1.0,
        v,
        m,
        w.as_slice(),
        m,
        0.0,
        &mut ws.mm,
        kb,
    );
    // TM = T^T M
    reset_f64s(&mut ws.tm, kb * kb);
    gemm(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        kb,
        1.0,
        t,
        kb,
        &ws.mm,
        kb,
        0.0,
        &mut ws.tm,
        kb,
    );
    // X = W - 1/2 V TM (accumulated in place: W doubles as X)
    let x = &mut ws.w;
    gemm_big(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        -0.5,
        v,
        m,
        &ws.tm,
        kb,
        1.0,
        x.as_mut_slice(),
        m,
    );
    // A2 -= V X^T + X V^T
    {
        let a2 = &mut a.as_mut_slice()[r0 + r0 * lda..];
        let syr2k = if parallel {
            syr2k_lower_par
        } else {
            syr2k_lower
        };
        syr2k(m, kb, -1.0, v, m, x.as_slice(), m, 1.0, a2, lda);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::{gen, norms};

    /// Materialize Q1 = Q_0 Q_1 ... Q_K explicitly (tests only).
    pub(crate) fn form_q1(bf: &BandForm, n: usize) -> Matrix {
        let mut q = Matrix::identity(n);
        // Apply Q_k from the right: Q <- Q * (I - V T V^T), k ascending
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
                &mut q.as_mut_slice()[p.r0 * n..],
                n,
            );
        }
        q
    }

    fn check(n: usize, nb: usize, seed: u64) {
        let a = gen::random_symmetric(n, seed);
        let bf = sy2sb(&a, nb, 0);
        // Band must actually be banded.
        assert_eq!(bf.band.bandwidth(), nb);
        assert_eq!(bf.band.max_below_subdiagonal(nb), 0.0);
        // A == Q1 B Q1^T.
        let q = form_q1(&bf, n);
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
    }

    #[test]
    fn exact_tiles() {
        check(48, 8, 1);
    }

    #[test]
    fn ragged_tail() {
        check(50, 8, 2);
        check(37, 5, 3);
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
    }
}
