//! Two-stage **Hermitian** eigensolver — the complex counterpart of
//! `tseig-core`.
//!
//! The paper's algorithm is stated for "symmetric (or hermitian)"
//! matrices; this crate carries the complex case end to end:
//!
//! 1. [`stage1::he2hb`] — dense Hermitian → Hermitian band: blocked
//!    `geqrf` panels and the `her2k`-form two-sided update,
//! 2. [`stage2::reduce`] — band → tridiagonal bulge chasing with the same
//!    three kernels in complex arithmetic; every sub-diagonal produced by
//!    an elimination is *real* by `larfg`'s convention,
//! 3. phase folding — any residual complex off-diagonals are rotated real
//!    by a unitary diagonal `D` (LAPACK `zhetrd` convention), so the
//!    tridiagonal eigensolve happens entirely in **real** arithmetic via
//!    `tseig-tridiag`,
//! 4. back-transformation — `Z = Q1 Q2 D E` through the one
//!    diamond-blocked engine of `tseig_core::backtransform`.
//!
//! There is no complex kernel copy: the Householder, QR and BLAS-3
//! kernels of `tseig-kernels` are generic over the element type with
//! Hermitian semantics, and the reflector and panel stores
//! (`tseig_core::V2Set`, `tseig_core::stage1::Q1Panel`) are the real
//! pipeline's, instantiated at the complex type.
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
pub mod stage1;
pub mod stage2;
pub mod validate;

pub use driver::{HermitianEigen, HermitianResult, VERIFY_BOUND};
pub use stage2::Scheduler;
pub use tseig_matrix::diagnostics::{Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
