//! Two-stage **Hermitian** eigensolver — the complex counterpart of
//! `tseig-core`.
//!
//! The paper's algorithm is stated for "symmetric (or hermitian)"
//! matrices; this crate carries the complex case end to end on
//! `tseig-core`'s pipeline, instantiated at the complex element type:
//!
//! 1. `tseig_core::stage1::sy2sb_ws` — dense Hermitian → Hermitian band
//!    (`SymBandMatrix<T>`): blocked `geqrf` panels and the `her2k`-form
//!    two-sided update,
//! 2. `tseig_core::stage2::reduce_scheduled` — band → tridiagonal bulge
//!    chasing with the paper's three kernels; every sub-diagonal produced
//!    by an elimination is *real* by `larfg`'s convention,
//! 3. phase folding (`tseig_core::stage2::phase_fold`) — any residual
//!    complex off-diagonals are rotated real by a unitary diagonal `D`
//!    (LAPACK `zhetrd` convention), so the tridiagonal eigensolve happens
//!    entirely in **real** arithmetic via `tseig-tridiag`,
//! 4. back-transformation — `Z = Q1 Q2 D E` through the one
//!    diamond-blocked engine of `tseig_core::backtransform`.
//!
//! There is no complex copy of any stage: the Householder, QR and
//! BLAS-3 kernels of `tseig-kernels` and both reduction stages and the
//! back-transformation of `tseig-core` are generic over the element type
//! with Hermitian semantics.
//!
//! Entry point: [`driver::HermitianEigen`]. Validation helpers (complex
//! residual/orthogonality, a real `2n x 2n` embedding oracle) live in
//! [`validate`].
//!
//! The whole pipeline is generic over the complex element width
//! (`T: ComplexScalar + GemmScalar`): `CMatrixG<C64>` (= `CMatrix`)
//! gives the `zheev`-equivalent solve, `CMatrixG<C32>` the
//! `cheev`-equivalent one, both through the same packed SIMD GEMM engine
//! and with verification tolerances scaled by the element type's
//! epsilon.

pub mod driver;
pub mod generalized;
pub mod validate;

pub use driver::{HermitianEigen, HermitianResult, VERIFY_BOUND};
pub use tseig_core::Scheduler;
pub use tseig_matrix::diagnostics::{Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
