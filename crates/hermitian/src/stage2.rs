//! Stage 2 (Hermitian): band to tridiagonal bulge chasing.
//!
//! The same three-kernel column-wise chase as the real pipeline
//! ([`zhbceu`]/[`zhbrel`]/[`zhblru`], delayed annihilation), in complex
//! arithmetic. `larfg` makes every annihilation result *real*, so the
//! final tridiagonal is real up to the entries no sweep ever touches;
//! [`phase_fold`] rotates those real too with a unitary diagonal that is
//! handed to the back-transformation.
//!
//! The band is kept in the dense Hermitian matrix produced by stage 1;
//! every kernel works on a copied square or rectangular window (the
//! cache-resident blocks of the paper), then writes it back and mirrors
//! the conjugate triangle so the dense matrix stays exactly Hermitian.
//!
//! Execution: [`reduce`] runs the kernel sequence serially;
//! [`reduce_scheduled`] hands the same `(sweep, depth)` tasks to the
//! chase engine (`tseig_runtime::chase`) as [`HermitianChase`], which
//! runs them on the dynamic superscalar runtime or the static pipelined
//! scheduler with dependences inferred from the exact diagonal-index
//! interval each task touches. The chase geometry is the real one, so the
//! declared footprints are identical, and every schedule is bit-identical
//! to the serial order.

use std::marker::PhantomData;
use tseig_core::V2Set;
use tseig_kernels::householder::{larf_left, larf_right, larfg};
use tseig_matrix::{CMatrixG, ComplexScalar, Ctrl, SymTridiagonal, C64};
use tseig_runtime::chase::{self, touch_band, Builder, Task};
use tseig_runtime::Access;

/// How the chase's task graph is executed: the engine's one scheduler.
pub use tseig_runtime::chase::Scheduler;

/// One stored stage-2 reflector: `(start row, tau, v)` with `v[0] == 1`.
type ReflectorC<T = C64> = (usize, T, Vec<T>);

/// Result of the Hermitian chase: real tridiagonal + reflectors + the
/// unitary diagonal phases folded out of the off-diagonals. The
/// tridiagonal is always `f64` — the real solver downstream runs at
/// full precision regardless of the complex element width.
pub struct ChaseResultC<T: ComplexScalar = C64> {
    pub tridiagonal: SymTridiagonal,
    pub v2: V2Set<T>,
    /// `phases[j]` scales row `j` of the real tridiagonal eigenvectors:
    /// eigenvectors of the complex tridiagonal are `diag(phases) * E`.
    pub phases: Vec<T>,
}

// Band entries of a block with rows `[.., r1]`, columns `[c0, ..]`
// (`c0 <= r1`) occupy exactly the diagonal index interval `[c0, r1]`;
// the Hermitian mirror `(j, i)` of an entry `(i, j)` lands in the same
// interval, so one touch covers both triangles. Every kernel below
// reports its block through `touch_band` before accessing the dense
// matrix, so a task reaching outside its declared span fails loudly in
// debug builds.

/// Kernel 1 (`zHBCEU`): start sweep `s` — annihilate column `s` below
/// the first sub-diagonal (to a *real* `beta`, courtesy of `larfg`) and
/// update the symmetric diamond block two-sided. Returns the generated
/// reflector `(start_row, tau, v)`.
pub fn zhbceu<T: ComplexScalar>(a: &mut CMatrixG<T>, s: usize, b: usize) -> ReflectorC<T> {
    let n = a.rows();
    let r0 = s + 1;
    let r1 = (s + b).min(n - 1);
    let l = r1 - r0 + 1;
    // Column s (and its conjugate mirror) is gathered and rewritten.
    touch_band(s, r1, Access::Write);
    let mut v: Vec<T> = (0..l).map(|i| a[(r0 + i, s)]).collect();
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = T::ONE;
    a[(r0, s)] = T::new(beta, 0.0);
    a[(s, r0)] = T::new(beta, 0.0);
    for i in 1..l {
        a[(r0 + i, s)] = T::ZERO;
        a[(s, r0 + i)] = T::ZERO;
    }
    two_sided_window(a, r0, l, &v, tau);
    (r0, tau, v)
}

/// Kernel 2 (`zHBREL`): chase step — apply the previous reflector from
/// the right to the sub-band block below it (creating the bulge),
/// annihilate **only the bulge's first column** (delayed annihilation)
/// and left-update the remaining columns while the block is cache-hot.
/// Returns the new reflector, or `None` when the chase ran off the
/// matrix edge.
pub fn zhbrel<T: ComplexScalar>(
    a: &mut CMatrixG<T>,
    b: usize,
    prev: (usize, T, &[T]),
) -> Option<ReflectorC<T>> {
    let n = a.rows();
    let (pr0, ptau, pv) = prev;
    let pl = pv.len();
    let br0 = pr0 + pl;
    if br0 >= n {
        return None;
    }
    let br1 = (br0 + b - 1).min(n - 1);
    let rl = br1 - br0 + 1;
    // Copy block A[br0..=br1, pr0..pr0+pl] (write-back is reported by
    // `write_back_rect`).
    touch_band(pr0, br1, Access::Read);
    let mut blk = vec![T::ZERO; rl * pl];
    for j in 0..pl {
        for i in 0..rl {
            blk[i + j * rl] = a[(br0 + i, pr0 + j)];
        }
    }
    let mut work = vec![T::ZERO; rl.max(pl)];
    // Right-apply the previous reflector (creates the bulge).
    larf_right(pv, ptau, rl, pl, &mut blk, rl, &mut work);
    if rl < 2 {
        write_back_rect(a, br0, rl, pr0, pl, &blk);
        return None;
    }
    // Annihilate the bulge's first column (delayed annihilation).
    let mut nv = blk[..rl].to_vec();
    let (nbeta, ntau) = {
        let (head, tail) = nv.split_at_mut(1);
        larfg(head[0], tail)
    };
    nv[0] = T::ONE;
    blk[0] = T::new(nbeta, 0.0);
    blk[1..rl].fill(T::ZERO);
    // Left-apply the new reflector's H^H to the remaining columns.
    if pl > 1 {
        larf_left(&nv, ntau.conj(), rl, pl - 1, &mut blk[rl..], rl, &mut work);
    }
    write_back_rect(a, br0, rl, pr0, pl, &blk);
    Some((br0, ntau, nv))
}

/// Kernel 3 (`zHBLRU`): apply the new reflector two-sided to the next
/// symmetric diagonal window.
pub fn zhblru<T: ComplexScalar>(a: &mut CMatrixG<T>, refl: (usize, T, &[T])) {
    let (r0, tau, v) = refl;
    two_sided_window(a, r0, v.len(), v, tau);
}

/// Run the bulge chase on a banded dense Hermitian matrix (entries
/// outside semi-bandwidth `nb` must be zero — stage 1 guarantees it).
pub fn reduce<T: ComplexScalar>(a: CMatrixG<T>, nb: usize) -> ChaseResultC<T> {
    match reduce_with(a, nb, &Ctrl::NONE) {
        Ok(r) => r,
        // Unreachable: the inert control never fails a checkpoint.
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`reduce`] polling a lifecycle control at every sweep boundary.
pub fn reduce_with<T: ComplexScalar>(
    mut a: CMatrixG<T>,
    nb: usize,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<ChaseResultC<T>> {
    let n = a.rows();
    let b = nb.max(1);
    let mut v2 = V2Set::new(n, b);
    if n > 2 && b > 1 {
        for s in 0..n - 2 {
            ctrl.checkpoint()?;
            run_sweep(&mut a, s, b, &mut v2);
        }
    }
    let (tridiagonal, phases) = phase_fold(&a);
    Ok(ChaseResultC {
        tridiagonal,
        v2,
        phases,
    })
}

fn run_sweep<T: ComplexScalar>(a: &mut CMatrixG<T>, s: usize, b: usize, v2: &mut V2Set<T>) {
    let mut k = 0usize;
    // tidy: allow(checkpoint-loop) -- per-sweep reflector chain; reduce_with polls once per sweep
    while run_step(a, v2, b, s, k) {
        k += 1;
    }
    debug_assert_eq!(
        k,
        chase::sym_depth_of_sweep(a.rows(), b, s),
        "sweep {s} depth"
    );
}

/// Chase task `(s, k)`: the sweep head `zhbceu` for `k == 0`, otherwise
/// the `zhbrel`+`zhblru` step from reflector `(s, k - 1)`, read from its
/// V2 slot. Stores the new reflector as `(s, k)`; returns `false`,
/// storing nothing, when the chase ran off the matrix.
fn run_step<T: ComplexScalar>(
    a: &mut CMatrixG<T>,
    v2: &mut V2Set<T>,
    b: usize,
    s: usize,
    k: usize,
) -> bool {
    let n = a.rows();
    let (start, tau, v) = if k == 0 {
        zhbceu(a, s, b)
    } else {
        chase::touch_slot::<HermitianChase<T>>(n, b, s, k - 1, Access::Read);
        let (pr0, ptau, pv) = &v2.sweep(s)[k - 1];
        let Some((start, tau, v)) = zhbrel(a, b, (*pr0, *ptau, pv)) else {
            return false;
        };
        zhblru(a, (start, tau, &v));
        (start, tau, v)
    };
    chase::touch_slot::<HermitianChase<T>>(n, b, s, k, Access::Write);
    v2.store(s, k, start, tau, &v);
    true
}

// ---------------------------------------------------------------------
// Scheduled driver: the chase engine running this file's kernels.
// ---------------------------------------------------------------------

/// The Hermitian chase as the engine sees it: the dense Hermitian store,
/// the [`V2Set`] slots, and the `zhbceu` / `zhbrel`+`zhblru` kernels.
/// The chase geometry is the real one, so the footprints are too.
pub struct HermitianChase<T = C64>(PhantomData<T>);

// SAFETY: `run_task` runs `run_step`, whose `zhbceu` / `zhbrel` /
// `zhblru` touch the store only inside the task's `row_span` (each
// window reports its access) and the V2 slots only as `slot_access`
// declares.
unsafe impl<T: ComplexScalar> Builder for HermitianChase<T> {
    type Store = CMatrixG<T>;
    type Slots = V2Set<T>;
    type Output = ChaseResultC<T>;
    const TAGS: [&'static str; 2] = ["zhbceu", "zhbrel+zhblru"];

    fn steps_of_sweep(n: usize, b: usize, s: usize) -> usize {
        chase::sym_steps_of_sweep(n, b, s)
    }

    /// Every task stores reflector `(s, k)` except the final step of an
    /// `nb`-aligned sweep; chase steps read their predecessor's.
    fn slot_access(n: usize, b: usize, t: Task) -> (bool, bool) {
        (t.k < chase::sym_depth_of_sweep(n, b, t.s), t.k > 0)
    }

    fn new_slots(n: usize, b: usize) -> V2Set<T> {
        V2Set::new(n, b)
    }

    fn run_task(a: &mut CMatrixG<T>, v2: &mut V2Set<T>, b: usize, t: Task) {
        run_step(a, v2, b, t.s, t.k);
    }

    fn finish(a: CMatrixG<T>, v2: V2Set<T>) -> ChaseResultC<T> {
        let (tridiagonal, phases) = phase_fold(&a);
        ChaseResultC {
            tridiagonal,
            v2,
            phases,
        }
    }
}

/// Run the Hermitian bulge chase under the chosen scheduler. Produces
/// the same tridiagonal, reflector set and phases as [`reduce`],
/// bit-identical, because the schedulers only reorder tasks whose data
/// regions are disjoint.
pub fn reduce_scheduled<T: ComplexScalar>(
    a: CMatrixG<T>,
    nb: usize,
    sched: Scheduler,
    ctrl: &Ctrl,
) -> Result<ChaseResultC<T>, String> {
    let (n, b) = (a.rows(), nb.max(1));
    chase::run::<HermitianChase<T>>(a, n, b, sched, &|| ctrl.poll_stop(), |a| {
        reduce_with(a, nb, ctrl).map_err(|e| e.to_string())
    })
}

/// `A[r0..r0+l, r0..r0+l] <- H^H (.) H` on a copied window.
fn two_sided_window<T: ComplexScalar>(a: &mut CMatrixG<T>, r0: usize, l: usize, v: &[T], tau: T) {
    if tau == T::ZERO {
        return;
    }
    touch_band(r0, r0 + l - 1, Access::Write);
    let mut blk = vec![T::ZERO; l * l];
    for j in 0..l {
        for i in 0..l {
            blk[i + j * l] = a[(r0 + i, r0 + j)];
        }
    }
    let mut work = vec![T::ZERO; l];
    larf_left(v, tau.conj(), l, l, &mut blk, l, &mut work);
    larf_right(v, tau, l, l, &mut blk, l, &mut work);
    for j in 0..l {
        for i in 0..l {
            a[(r0 + i, r0 + j)] = blk[i + j * l];
        }
        // Snap the diagonal real (Hermitian invariant up to rounding).
        a[(r0 + j, r0 + j)] = T::new(a[(r0 + j, r0 + j)].re(), 0.0);
    }
}

/// Write a strictly-sub-diagonal block back, mirroring the conjugate
/// into the upper triangle.
fn write_back_rect<T: ComplexScalar>(
    a: &mut CMatrixG<T>,
    r0: usize,
    rl: usize,
    c0: usize,
    cl: usize,
    blk: &[T],
) {
    touch_band(c0, r0 + rl - 1, Access::Write);
    for j in 0..cl {
        for i in 0..rl {
            let val = blk[i + j * rl];
            a[(r0 + i, c0 + j)] = val;
            a[(c0 + j, r0 + i)] = val.conj();
        }
    }
}

/// Extract the tridiagonal and rotate its off-diagonals real with a
/// unitary diagonal: `T_complex = D T_real D^H`, `D = diag(phases)`.
// tidy: allow(task-storage) -- main-thread read-only extraction, runs after all tasks completed
pub fn phase_fold<T: ComplexScalar>(a: &CMatrixG<T>) -> (SymTridiagonal, Vec<T>) {
    let n = a.rows();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n.saturating_sub(1)];
    let mut phases = vec![T::ONE; n];
    for j in 0..n {
        d[j] = a[(j, j)].re();
    }
    for j in 0..n.saturating_sub(1) {
        let ej = a[(j + 1, j)];
        let m = ej.abs();
        e[j] = m;
        phases[j + 1] = if m == 0.0 {
            phases[j]
        } else {
            // p_{j+1} = e_j p_j / |e_j| makes conj(p_{j+1}) e_j p_j real.
            (ej * phases[j]).scale(1.0 / m)
        };
    }
    (SymTridiagonal::new(d, e), phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::he2hb;
    use crate::validate::{rand_hermitian, real_embedding_eigenvalues};
    use tseig_matrix::{c64, norms, CMatrix};
    use tseig_runtime::chase::conformance;

    type Chase = HermitianChase<C64>;

    fn banded_hermitian(n: usize, b: usize, seed: u64) -> CMatrix {
        let a = rand_hermitian(n, seed);
        let mut out = CMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i.abs_diff(j) <= b {
                    out[(i, j)] = a[(i, j)];
                }
            }
        }
        out.hermitize_from_lower();
        out
    }

    #[test]
    fn chase_spectrum_preserved() {
        for (n, b, seed) in [(14, 3, 60), (20, 5, 61), (11, 10, 62)] {
            let a = banded_hermitian(n, b, seed);
            let want = real_embedding_eigenvalues(&a);
            let r = reduce(a, b);
            let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
            assert!(
                norms::eigenvalue_distance(&got, &want) < 1e-9,
                "spectrum changed (n={n}, b={b})"
            );
            // Off-diagonals are non-negative real by construction.
            assert!(r.tridiagonal.off_diag().iter().all(|&x| x >= 0.0));
            // Phases are unit modulus.
            assert!(r.phases.iter().all(|p| (p.abs() - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    fn q2_reconstructs_band() {
        // B == Q2 (D T_real D^H) Q2^H with Q2 from the stored reflectors.
        let n = 12;
        let b = 3;
        let a0 = banded_hermitian(n, b, 63);
        let r = reduce(a0.clone(), b);
        // Build Q2 = H_1 H_2 ... (chase order) densely.
        let mut q2 = CMatrix::identity(n);
        let mut work = vec![C64::ZERO; n];
        for s in (0..r.v2.sweep_count()).rev() {
            for (start, tau, v) in r.v2.sweep(s).iter().rev() {
                let ldq = q2.ld();
                larf_left(
                    v,
                    *tau,
                    v.len(),
                    n,
                    &mut q2.as_mut_slice()[*start..],
                    ldq,
                    &mut work,
                );
            }
        }
        // T_complex = D T D^H.
        let t = r.tridiagonal.to_dense();
        let tc = CMatrix::from_fn(n, n, |i, j| {
            r.phases[i] * c64(t[(i, j)], 0.0) * r.phases[j].conj()
        });
        let recon = q2.multiply(&tc).multiply(&q2.adjoint());
        assert!(recon.max_diff(&a0) < 1e-10 * n as f64, "Q2 T Q2^H != B");
    }

    #[test]
    fn schedulers_match_serial() {
        let n = 40;
        let b = 5;
        let a = banded_hermitian(n, b, 65);
        let serial = reduce(a.clone(), b);
        for sched in [
            Scheduler::Dynamic(4),
            Scheduler::Static(3),
            Scheduler::Static(1),
        ] {
            let r = reduce_scheduled(a.clone(), b, sched, &Ctrl::NONE).unwrap();
            // Bit-identical results: every scheduler runs the same
            // kernels in a serial-equivalent order.
            assert_eq!(
                r.tridiagonal.diag(),
                serial.tridiagonal.diag(),
                "{sched:?} d"
            );
            assert_eq!(
                r.tridiagonal.off_diag(),
                serial.tridiagonal.off_diag(),
                "{sched:?} e"
            );
            assert_eq!(r.phases, serial.phases, "{sched:?} phases");
            assert_eq!(r.v2.reflector_count(), serial.v2.reflector_count());
            for s in 0..serial.v2.sweep_count() {
                assert_eq!(r.v2.sweep(s), serial.v2.sweep(s), "{sched:?} sweep {s}");
            }
        }
    }

    #[test]
    fn chase_graph_certified_race_free() {
        let instances = [(20, 3), (24, 4), (14, 5), (13, 2)];
        conformance::graph_certified_race_free::<Chase>(&instances, &[1, 2, 3, 4]);
    }

    #[test]
    fn exact_spans_drop_spurious_same_sweep_edges() {
        conformance::exact_spans_drop_spurious_same_sweep_edges::<Chase>();
    }

    #[test]
    fn deleted_edge_caught_by_graphcheck() {
        conformance::deleted_edge_caught_by_graphcheck::<Chase>();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn narrowed_declaration_caught_by_shadow_checker() {
        conformance::narrowed_declaration_caught::<Chase>(banded_hermitian(18, 3, 66), 18, 3);
    }

    #[test]
    fn scheduled_runs_validate_touches_in_debug() {
        conformance::scheduled_runs_validate_touches::<Chase>(banded_hermitian(20, 3, 67), 20, 3);
    }

    #[test]
    fn cancel_during_scheduled_chase() {
        // A real `CancelToken` through `reduce_scheduled`'s `Ctrl`.
        use tseig_matrix::CancelToken;
        let a = &banded_hermitian(60, 5, 68);
        let scheduled = |sched| {
            move |tok: &CancelToken| {
                let ctrl = Ctrl::new().with_cancel(tok.clone());
                reduce_scheduled(a.clone(), 5, sched, &ctrl)
            }
        };
        conformance::cancel_during_scheduled_chase(
            CancelToken::new,
            CancelToken::cancel,
            &[
                &scheduled(Scheduler::Dynamic(4)),
                &scheduled(Scheduler::Static(3)),
            ],
        );
    }

    #[test]
    fn full_pipeline_spectrum() {
        let n = 18;
        let a = rand_hermitian(n, 64);
        let bf = he2hb(&a, 4);
        let want = real_embedding_eigenvalues(&a);
        let r = reduce(bf.band.clone(), 4);
        let got = tseig_tridiag::sturm::bisect_eigenvalues(&r.tridiagonal, 0, n).unwrap();
        assert!(norms::eigenvalue_distance(&got, &want) < 1e-9);
    }
}
