//! Stage 1 (Hermitian): dense to Hermitian band (`he2hb`).
//!
//! Mirror of `tseig_core::stage1::sy2sb` on the same generic kernels:
//! `geqrf` each sub-panel, apply `Q = I - V T V^H` two-sided via the
//! Hermitian rank-2k form
//!
//! ```text
//! W = A V T,  M = V^H W,  X = W - 1/2 V (T^H M),
//! A <- A - V X^H - X V^H            (her2k)
//! ```
//!
//! The panels are the real pipeline's [`Q1Panel`] store at the complex
//! element type, so the one back-transformation applies them.

use tseig_core::stage1::Q1Panel;
use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::blas3::{gemm_par, symm_lower_left, syr2k_lower, Trans};
use tseig_kernels::qr::{extract_v_t_vec, geqrf_ws, QrWs};
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, C64};

/// Result of the Hermitian band reduction. The band is kept as a dense
/// Hermitian matrix with entries zeroed outside the band (complex band
/// storage would mirror `SymBandMatrix`; dense keeps this crate compact
/// while stage 2 still only touches band-window blocks).
pub struct BandFormC<T: ComplexScalar = C64> {
    pub band: CMatrixG<T>,
    pub panels: Vec<Q1Panel<T>>,
    pub nb: usize,
}

/// Reduce the dense Hermitian `a` (lower triangle referenced) to band
/// form with semi-bandwidth `nb`.
pub fn he2hb<T: ComplexScalar + GemmScalar>(a: &CMatrixG<T>, nb: usize) -> BandFormC<T> {
    match he2hb_with(a, nb, &Ctrl::NONE) {
        Ok(form) => form,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`he2hb`] under a request control: polls `ctrl` once per panel so an
/// armed cancel or expired deadline aborts between panels with the
/// structured error and no partial output escapes.
pub fn he2hb_with<T: ComplexScalar + GemmScalar>(
    a: &CMatrixG<T>,
    nb: usize,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<BandFormC<T>> {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    let nb = nb.max(1);
    let mut a = a.clone();
    a.hermitize_from_lower();
    let lda = a.ld();
    let mut panels = Vec::new();
    let mut qr = QrWs::new();

    let mut j0 = 0usize;
    while j0 + nb < n {
        ctrl.checkpoint()?;
        let r0 = j0 + nb;
        let m = n - r0;
        let kb = nb.min(m);
        let mut tau = vec![T::ZERO; kb];
        geqrf_ws(
            m,
            nb,
            &mut a.as_mut_slice()[r0 + j0 * lda..],
            lda,
            &mut tau,
            nb,
            &mut qr,
        );
        // Extract clean V and T.
        let mut p = Q1Panel {
            r0,
            rows: m,
            v: Vec::new(),
            t: Vec::new(),
        };
        extract_v_t_vec(
            &a.as_slice()[r0 + j0 * lda..],
            lda,
            m,
            kb,
            &tau,
            &mut p.v,
            &mut p.t,
        );
        // Zero the annihilated part below the R factor, and mirror the
        // panel's new band block into the upper triangle.
        for jj in 0..nb {
            for i in (r0 + jj + 1).min(n)..n {
                a[(i, j0 + jj)] = T::ZERO;
            }
        }
        for jj in 0..nb {
            for i in j0 + jj..n.min(r0 + jj + 1) {
                let val = a[(i, j0 + jj)];
                a[(j0 + jj, i)] = val.conj();
            }
        }
        two_sided_update(&mut a, r0, &p.v, kb, &p.t);
        panels.push(p);
        j0 += nb;
    }

    // Zero everything outside the band for a clean band form, and make
    // the matrix exactly Hermitian.
    for j in 0..n {
        for i in j + nb + 1..n {
            a[(i, j)] = T::ZERO;
        }
    }
    a.hermitize_from_lower();
    Ok(BandFormC {
        band: a,
        panels,
        nb,
    })
}

/// `A2 <- Q^H A2 Q` on the trailing block at `r0` (Hermitian rank-2k),
/// `V` the `m x kb` reflector block.
fn two_sided_update<T: ComplexScalar + GemmScalar>(
    a: &mut CMatrixG<T>,
    r0: usize,
    v: &[T],
    kb: usize,
    t: &[T],
) {
    let n = a.rows();
    let lda = a.ld();
    let m = n - r0;
    if m == 0 || kb == 0 {
        return;
    }
    let (one, zero) = (T::ONE, T::ZERO);
    // VT = V T.
    let mut vt = vec![zero; m * kb];
    gemm_par(
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
        &mut vt,
        m,
    );
    // W = A2 VT (Hermitian multiply).
    let mut w = vec![zero; m * kb];
    let a2 = &a.as_slice()[r0 + r0 * lda..];
    symm_lower_left(m, kb, one, a2, lda, &vt, m, zero, &mut w, m);
    // M = V^H W.
    let mut mm = vec![zero; kb * kb];
    gemm_par(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        m,
        one,
        v,
        m,
        &w,
        m,
        zero,
        &mut mm,
        kb,
    );
    // TM = T^H M.
    let mut tm = vec![zero; kb * kb];
    gemm_par(
        Trans::Yes,
        Trans::No,
        kb,
        kb,
        kb,
        one,
        t,
        kb,
        &mm,
        kb,
        zero,
        &mut tm,
        kb,
    );
    // X = W - 1/2 V TM.
    let mut x = w;
    let half = T::new(-0.5, 0.0);
    gemm_par(
        Trans::No,
        Trans::No,
        m,
        kb,
        kb,
        half,
        v,
        m,
        &tm,
        kb,
        one,
        &mut x,
        m,
    );
    // A2 -= V X^H + X V^H.
    let a2 = &mut a.as_mut_slice()[r0 + r0 * lda..];
    syr2k_lower(m, kb, -one, v, m, &x, m, one, a2, lda);
    // Restore exact Hermitian symmetry of the trailing block (the upper
    // triangle is stale after the lower-only update).
    for j in r0..n {
        for i in j + 1..n {
            let val = a[(i, j)];
            a[(j, i)] = val.conj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{rand_hermitian, real_embedding_eigenvalues};
    use tseig_matrix::CMatrix;

    /// Materialize Q1 = Q_0 Q_1 ... explicitly (tests only).
    pub(crate) fn form_q1(bf: &BandFormC, n: usize) -> CMatrix {
        let mut q = CMatrix::identity(n);
        for p in &bf.panels {
            // Q <- Q (I - V T V^H).
            let (m, kb) = (p.rows, p.kb());
            tseig_kernels::householder::larfb(
                tseig_kernels::householder::Side::Right,
                Trans::No,
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

    #[test]
    fn band_structure_and_reconstruction() {
        let n = 24;
        let nb = 5;
        let a = rand_hermitian(n, 41);
        let bf = he2hb(&a, nb);
        // Banded.
        for j in 0..n {
            for i in j + nb + 1..n {
                assert_eq!(bf.band[(i, j)], C64::ZERO);
            }
        }
        // Q1 B Q1^H == A.
        let q = form_q1(&bf, n);
        let qbq = q.multiply(&bf.band).multiply(&q.adjoint());
        assert!(qbq.max_diff(&a) < 1e-11 * n as f64, "Q1 B Q1^H != A");
        // Q1 unitary.
        assert!(q.multiply(&q.adjoint()).max_diff(&CMatrix::identity(n)) < 1e-11);
    }

    #[test]
    fn spectrum_preserved() {
        let n = 20;
        let a = rand_hermitian(n, 42);
        let bf = he2hb(&a, 4);
        let want = real_embedding_eigenvalues(&a);
        let got = real_embedding_eigenvalues(&bf.band);
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&got, &want) < 1e-9,
            "band spectrum differs"
        );
    }

    #[test]
    fn wide_band_no_panels() {
        let a = rand_hermitian(5, 43);
        let bf = he2hb(&a, 8);
        assert!(bf.panels.is_empty());
        assert!(bf.band.max_diff(&a) < 1e-14);
    }
}
