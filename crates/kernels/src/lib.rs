//! From-scratch BLAS-like kernels and Householder transformations.
//!
//! This crate is the computational substrate of the two-stage eigensolver.
//! It mirrors the split the paper relies on:
//!
//! * **Level-1/2 kernels** ([`blas1`], [`blas2`]) — memory-bound: `symv`,
//!   `gemv`, `ger`, `syr2`. These dominate the *one-stage* reduction and
//!   are the reason it cannot scale (paper §4, Table 2).
//! * **Level-3 kernels** ([`blas3`]) — compute-bound, cache-blocked and
//!   optionally rayon-parallel: `gemm`, `syrk`, `syr2k`, `symm`. These
//!   dominate the *two-stage* pipeline.
//! * **Householder tool-chain** ([`householder`], [`qr`]) — `larfg`,
//!   `larf`, `larft`, `larfb`, blocked QR: the building blocks of both
//!   reduction stages and of the back-transformation.
//! * **Flop accounting** ([`flops`]) — relaxed atomic counters, split by
//!   BLAS level, used to *measure* the complexity columns of the paper's
//!   Table 1 instead of trusting the formulas.
//! * **Contracts** ([`contract`]) — debug-build argument validation
//!   (dimensions, leading-dimension bounds, slice coverage, alias
//!   overlap) at every public kernel entry point, plus opt-in NaN/Inf
//!   poison detection behind the `paranoid` feature. Compiles out in
//!   release builds.
//! * **Reference oracle** ([`reference`]) — a cyclic Jacobi eigensolver,
//!   independent of everything above, that tests compare against.
//!
//! All kernels follow LAPACK conventions: column-major storage passed as
//! `(&[f64], ld)` pairs, lower-triangular symmetric storage.

// BLAS-style entry points pass every dimension/stride explicitly; the
// argument counts are the interface, not an accident.
#![allow(clippy::too_many_arguments)]

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod cholesky;
pub mod contract;
pub mod flops;
pub mod householder;
pub mod qr;
pub mod reference;
pub mod scaling;

pub use blas3::Trans;
