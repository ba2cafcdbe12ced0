//! Two-stage symmetric eigensolver with eigenvectors — the paper's
//! contribution.
//!
//! The pipeline (`A` dense symmetric, `f64`; stages 1, 2 and 4 are
//! generic over the element type, and `tseig-hermitian` runs them at
//! `C64`/`C32` for a Hermitian `A`):
//!
//! 1. **Stage 1** ([`stage1`]): reduce `A` to a symmetric *band* matrix
//!    `B` of semi-bandwidth `nb` with blocked Householder panels —
//!    `A = Q1 B Q1^T`. All Level-3, compute-bound: this is where the
//!    one-stage algorithm's memory-bound `4/3 n^3` becomes
//!    `4/3 n^3 / (alpha p)` (paper Eq. (5)).
//! 2. **Stage 2** ([`stage2`]): chase `B` to tridiagonal `T` with
//!    column-wise bulge chasing — `B = Q2 T Q2^T` — using the paper's
//!    three cache-resident kernels (`hbceu`, `hbrel`, `hblru`) and the
//!    *delayed annihilation* trick (only the first column of each bulge
//!    is eliminated; the rest waits for later sweeps). Runs serially, on
//!    the static pipelined scheduler, or on the dynamic task runtime.
//! 3. **Tridiagonal solve**: any method from `tseig-tridiag`
//!    (D&C, QR, bisection+inverse iteration), full spectrum or a subset.
//! 4. **Back-transformation** ([`backtransform`]): `Z = Q1 (Q2 E)`.
//!    `Q2`'s reflectors are grouped into *diamond* blocks (same chase
//!    depth, `ell` consecutive sweeps) applied as compact-WY Level-3
//!    updates, independently per cache-sized column panel of `E` — the
//!    paper's Figure 3. This doubles the flops versus one-stage
//!    (`4 n^3 f` vs `2 n^3 f`, Table 1) and is the trade-off the paper
//!    demonstrates is worth making.
//!
//! Entry point: [`driver::SymmetricEigen`].
//!
//! ```
//! use tseig_core::SymmetricEigen;
//! use tseig_matrix::gen;
//!
//! let a = gen::symmetric_with_spectrum(&gen::linspace(0.0, 10.0, 64), 1);
//! let result = SymmetricEigen::new().nb(8).solve(&a).unwrap();
//! let z = result.eigenvectors.as_ref().unwrap();
//! assert!(tseig_matrix::norms::eigen_residual(&a, &result.eigenvalues, z) < 500.0);
//! ```

pub mod backtransform;
pub mod batch;
pub mod driver;
pub mod generalized;
pub mod plan;
pub mod stage1;
pub mod stage2;

pub use batch::{BatchDriver, BatchSummary, PoolEvents, ScalarTag};
pub use driver::{SymmetricEigen, TwoStageResult, VERIFY_BOUND};
pub use generalized::{solve_generalized, solve_generalized_with_plan, GenPlan};
pub use plan::SolvePlan;
pub use stage2::V2Set;
pub use tseig_matrix::diagnostics::{Recovery, SolveDiagnostics, VerifyLevel, VerifyReport};
pub use tseig_runtime::chase::Scheduler;
