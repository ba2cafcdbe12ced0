//! Matrix storage for the `tseig` two-stage symmetric eigensolver.
//!
//! This crate provides the data-structure substrate of the whole project:
//!
//! * [`Matrix`] — a column-major dense matrix of `f64`, the layout every
//!   LAPACK-style kernel in `tseig-kernels` expects,
//! * [`SymBandMatrix`] — lower-triangular symmetric (or, at a complex
//!   element type, Hermitian) band storage with extra workspace
//!   sub-diagonals so the bulge-chasing stage can let fill-in grow below
//!   the band without reallocating,
//! * [`SymTridiagonal`] — the `(d, e)` pair produced by both reduction
//!   pipelines and consumed by the tridiagonal eigensolvers,
//! * generators for reproducible test and benchmark workloads
//!   ([`gen`]), including matrices with a *prescribed spectrum* (the
//!   standard way to validate an eigensolver end to end),
//! * norms and residual checks ([`norms`]) used by tests, examples and the
//!   benchmark harness alike.
//!
//! Everything is `f64`: the paper evaluates in double precision only.

pub mod band;
pub mod chaos;
pub mod complex;
pub mod ctrl;
pub mod dense;
pub mod diagnostics;
pub mod error;
pub mod gen;
pub mod io;
pub mod norms;
pub mod scalar;
pub mod tile;
pub mod tridiagonal;
pub mod workspace;

pub use band::{GeBandMatrix, SymBandMatrix};
pub use complex::{c32, c64, CMatrix, CMatrixG, C32, C64};
pub use ctrl::{CancelToken, Ctrl, Deadline, MemBudget};
pub use dense::{ColMajorMut, Matrix};
pub use diagnostics::{Recorder, Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
pub use error::{Error, Result};
pub use scalar::{ComplexScalar, Scalar};
pub use tridiagonal::SymTridiagonal;
pub use workspace::MemReq;
