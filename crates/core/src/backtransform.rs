//! Back-transformation `Z = Q1 (Q2 (D E))` (paper §6, Fig. 3).
//!
//! One engine for the real and the Hermitian pipelines, generic over the
//! element type: the real chase hands over `f64` reflectors, the
//! Hermitian chase complex ones plus the unitary diagonal `D` of its
//! phase fold (the real tridiagonal eigenvectors `E` become eigenvectors
//! of the complex tridiagonal as `D E`). `D` is optional and, when
//! given, is applied first in each panel.
//!
//! ## Applying `Q2` — the hard part
//!
//! `Q2 = H_{(0,0)} H_{(0,1)} ... H_{(s,k)} ...` is the chase-ordered
//! product of all bulge-chasing reflectors, so `E <- Q2 E` applies them
//! in *reverse* chase order. Applied one by one this is Level-2 and
//! memory-bound — the naive implementation the paper rejects.
//!
//! The Level-3 reformulation groups reflectors of `ell` **consecutive
//! sweeps at the same chase depth `k`** into a *diamond* block: their
//! supports shift down one row per sweep, giving a parallelogram `V` of
//! height `<= nb + ell - 1` that is exactly the forward-columnwise
//! structure `larft`/`larfb` want. Two facts make the reordering legal
//! (each is a swap of *commuting* factors, i.e. reflectors with disjoint
//! row ranges — an argument about row supports only, so it holds for
//! complex reflectors verbatim):
//!
//! * within a block of `ell` sweeps, the chase-ordered product equals
//!   `G_K G_{K-1} ... G_0` where `G_k` is the diamond at depth `k`
//!   (ascending sweep order inside the diamond);
//! * whole sweep-blocks stay in chase order.
//!
//! So `E <- Q2 E` is: for sweep-blocks from last to first, for `k`
//! ascending, `E <- (I - V_k T_k V_k^H) E` on the diamond's row range.
//!
//! ## The diamond kernel — three packed GEMMs on the padded parallelogram
//!
//! A diamond's `V` is a parallelogram: column `c` is supported on local
//! rows `c..c+len_c`, so its top `k x k` block is unit lower triangular
//! and the rest is zero-padded to a full `h x k` rectangle. After `larft`
//! the unit diagonal is split out and the diamond stores
//! `V' = V - [I; 0]`, the parallelogram with a zero diagonal. The
//! application `C <- (I - V T V^H) C` is then
//!
//! ```text
//! W  = C_top + V'^H C             copy + packed GEMM
//! W2 = T W                        packed GEMM (T has a clean lower part)
//! C -= V' W2                      packed GEMM
//! C_top -= W2                     the split-out identity
//! ```
//!
//! so every O(nb) x cols x O(nb) product runs through the SIMD-dispatched
//! packed microkernel (`kernels::blas3::simd`), as the paper's §6 does:
//! it accepts the zero padding of the parallelogram, about
//! `(nb + ell - 1)/nb` times the flops of the reflectors themselves, in
//! exchange for GEMM rate. Keeping the identity out of the GEMMs adds
//! the top rows exactly instead of as `1.0 * x` products, which keeps
//! the orthogonality of the result at the level of the reflector-wise
//! application.
//!
//! ## Applying `Q1`, and the fused single pass
//!
//! `Q1` is plain reverse-order blocked reflectors from stage 1
//! (`larfb`). [`apply_q`] fuses both applications: the columns of `E`
//! are split into panels sized for the L2 cache (Fig. 3c), and every
//! panel applies `D`, the *entire* diamond sequence **and then** the
//! reverse `Q1` chain while it is cache-resident — one pass over the
//! `n x k` eigenvector matrix instead of two, and no barrier between the
//! stages. The serial and the parallel panel loops share one per-panel
//! body; the parallel loop takes its scratch from one allocation per
//! call, the serial (planned) one from the plan. [`apply_q2`] /
//! [`apply_q1`] / [`apply_phases`] remain as the unfused pieces for
//! benches and tests.
//!
//! `E` is any column-major matrix with `n` rows (`Matrix`, `CMatrixG`):
//! the entry points take it through [`ColMajorMut`] and check its row
//! count.

use crate::stage1::Q1Panel;
use crate::stage2::V2Set;
use rayon::prelude::*;
use tseig_kernels::blas3::engine::GemmScalar;
use tseig_kernels::blas3::{gemm, Trans};
use tseig_kernels::householder::{larf_left, larfb_with_work, larft, Side};
use tseig_matrix::workspace::{reset_zeroed, MemReq};
use tseig_matrix::{ColMajorMut, ComplexScalar, Ctrl};
use tseig_runtime::chase;

/// Column-panel width used for the cache-local distribution of `E` at
/// `f64`. Chosen so a panel of a few thousand rows plus a diamond block
/// fit in a per-core L2 cache; exposed for the Figure-5-style tuning
/// bench. Other element types keep the same panel footprint in bytes,
/// see [`default_panel_cols`].
pub const DEFAULT_PANEL_COLS: usize = 128;

/// The default column-panel width at element type `T`: the footprint of
/// [`DEFAULT_PANEL_COLS`] `f64` columns (128 at `f64`, 64 at `C64`).
pub fn default_panel_cols<T>() -> usize {
    DEFAULT_PANEL_COLS * std::mem::size_of::<f64>() / std::mem::size_of::<T>()
}

/// One prebuilt diamond block: `I - V T V^H` acting on rows
/// `r0 .. r0 + rows`. Column `c` of `V` is supported on local rows
/// `c .. c + len[c]` (the parallelogram structure); `v` stores
/// `V' = V - [I; 0]` column-major, the parallelogram with its unit
/// diagonal zeroed.
struct Diamond<T> {
    r0: usize,
    rows: usize,
    v: Vec<T>,
    t: Vec<T>,
}

impl<T> Diamond<T> {
    fn kb(&self) -> usize {
        self.v.len() / self.rows
    }
}

/// One stored stage-2 reflector: `(start row, tau, v)`.
type Reflector<T> = (usize, T, Vec<T>);

/// Build the diamond sequence in *application order* for `E <- Q2 E`
/// (sweep-blocks descending, depth ascending within each block) into
/// `plan`'s retained storage: diamond slots, member scratch and `tau`
/// buffers are reused by index, so a warmed-up plan rebuilds without
/// heap allocation.
fn build_diamonds<T: ComplexScalar>(v2: &V2Set<T>, ell: usize, plan: &mut BtPlan<T>) {
    let ell = ell.max(1);
    let nsweeps = v2.sweep_count();
    let mut nd = 0usize;
    if nsweeps == 0 {
        plan.diamonds.truncate(0);
        return;
    }
    let nblocks = nsweeps.div_ceil(ell);
    for blk in (0..nblocks).rev() {
        let s0 = blk * ell;
        let s1 = (s0 + ell).min(nsweeps); // exclusive
        let max_depth = (s0..s1).map(|s| v2.sweep(s).len()).max().unwrap_or(0);
        for k in 0..max_depth {
            // Gather the reflectors (s, k) for s in s0..s1 that exist.
            plan.members.clear();
            plan.members
                .extend((s0..s1).filter(|&s| v2.sweep(s).get(k).is_some_and(|r| !r.2.is_empty())));
            if plan.members.is_empty() {
                continue;
            }
            let member = |i: usize| -> &Reflector<T> { &v2.sweep(plan.members[i])[k] };
            // Diamond geometry: reflector of sweep s starts at
            // s + 1 + k*nb; sweeps ascend, so starts ascend one by one.
            let r0 = member(0).0;
            let rend = (0..plan.members.len())
                .map(|i| {
                    let r = member(i);
                    r.0 + r.2.len()
                })
                .max()
                .unwrap_or(r0);
            let height = rend - r0;
            let kb = plan.members.len();
            if plan.diamonds.len() <= nd {
                plan.diamonds.push(Diamond {
                    r0: 0,
                    rows: 0,
                    v: Vec::new(), // tidy: allow(plan-no-alloc) -- empty placeholder; the pool grows only while the plan is cold
                    t: Vec::new(), // tidy: allow(plan-no-alloc) -- empty placeholder; the pool grows only while the plan is cold
                });
            }
            reset_zeroed(&mut plan.tau, kb);
            let d = &mut plan.diamonds[nd];
            d.r0 = r0;
            d.rows = height;
            reset_zeroed(&mut d.v, height * kb);
            for col in 0..kb {
                let r = member(col);
                let off = r.0 - r0;
                debug_assert_eq!(off, col, "diamond columns shift one row per sweep");
                d.v[off + col * height..][..r.2.len()].copy_from_slice(&r.2);
                plan.tau[col] = r.1;
            }
            reset_zeroed(&mut d.t, kb * kb);
            larft(height, kb, &d.v, height, &plan.tau, &mut d.t, kb);
            // Split out the unit diagonal: `apply_diamond` adds it back
            // exactly, outside the GEMMs.
            for col in 0..kb {
                debug_assert!(d.v[col + col * height] == T::ONE, "explicit leading 1");
                d.v[col + col * height] = T::ZERO;
            }
            nd += 1;
        }
    }
    plan.diamonds.truncate(nd);
}

/// Retained storage of the planned back-transformation: the diamond
/// sequence (rebuilt in place each solve — its values depend on the
/// reflectors, but its shape only on `(n, nb, ell)`), the member/`tau`
/// build scratch, and the per-panel apply scratch of the serial loop.
#[derive(Default)]
pub struct BtPlan<T = f64> {
    diamonds: Vec<Diamond<T>>,
    /// Sweep indices of the diamond currently being gathered.
    members: Vec<usize>,
    tau: Vec<T>,
    scratch: Vec<T>,
}

impl<T: ComplexScalar + GemmScalar> BtPlan<T> {
    pub fn new() -> Self {
        BtPlan::default()
    }

    /// Retained capacity in bytes (footprint tests). Counts the element
    /// payloads (diamond `V`/`T`, `tau`, apply scratch) plus the member
    /// index scratch.
    pub fn capacity_bytes(&self) -> usize {
        let elems: usize = self
            .diamonds
            .iter()
            .map(|d| d.v.capacity() + d.t.capacity())
            .sum::<usize>()
            + self.tau.capacity()
            + self.scratch.capacity();
        elems * std::mem::size_of::<T>() + self.members.capacity() * std::mem::size_of::<usize>()
    }
}

/// Requirement of the planned back-transformation for an order-`n`,
/// bandwidth-`nb` chase with diamond grouping `ell`, applied to `cols`
/// columns in panels of `panel_cols`: exact diamond storage (replayed
/// from the chase geometry) plus the per-panel apply scratch.
pub fn bt_req(n: usize, nb: usize, ell: usize, panel_cols: usize, cols: usize) -> MemReq {
    let ell = ell.max(1);
    let pc = if panel_cols == 0 {
        DEFAULT_PANEL_COLS
    } else {
        panel_cols
    };
    let nsweeps = if nb > 1 { n.saturating_sub(2) } else { 0 };
    let mut elems = 0usize;
    let mut kd_max = 0usize;
    if nsweeps > 0 {
        let nblocks = nsweeps.div_ceil(ell);
        for blk in 0..nblocks {
            let s0 = blk * ell;
            let s1 = (s0 + ell).min(nsweeps);
            let max_depth = (s0..s1)
                .map(|s| chase::sym_depth_of_sweep(n, nb, s))
                .max()
                .unwrap_or(0);
            for k in 0..max_depth {
                let mut kb = 0usize;
                let mut r0 = usize::MAX;
                let mut rend = 0usize;
                for s in s0..s1 {
                    if k >= chase::sym_depth_of_sweep(n, nb, s) {
                        continue;
                    }
                    let start = s + 1 + k * nb;
                    let len = (start + nb - 1).min(n - 1) - start + 1;
                    r0 = r0.min(start);
                    rend = rend.max(start + len);
                    kb += 1;
                }
                if kb == 0 {
                    continue;
                }
                let height = rend - r0;
                elems += height * kb + kb * kb; // V + T
                kd_max = kd_max.max(kb);
            }
        }
    }
    let scratch = 2 * kd_max.max(nb) * pc.min(cols);
    MemReq::f64s(elems).and(MemReq::f64s(scratch))
}

/// What one pass applies to each column panel of `E`, in order: the
/// optional phases `D`, the diamond sequence, the reverse `Q1` chain.
struct Chain<'a, T> {
    phases: Option<&'a [T]>,
    diamonds: &'a [Diamond<T>],
    q1: &'a [Q1Panel<T>],
}

impl<T: ComplexScalar + GemmScalar> Chain<'_, T> {
    fn is_empty(&self) -> bool {
        self.phases.is_none() && self.diamonds.is_empty() && self.q1.is_empty()
    }

    /// Workspace length one panel of `cols` columns needs: two
    /// `k x cols` diamond blocks or the `2 * kb * cols` `larfb`
    /// workspace, whichever is larger.
    fn scratch_len(&self, cols: usize) -> usize {
        let kd = self.diamonds.iter().map(Diamond::kb).max().unwrap_or(0);
        let kq = self.q1.iter().map(Q1Panel::kb).max().unwrap_or(0);
        2 * kd.max(kq) * cols
    }

    /// The per-panel body shared by the serial and the parallel loop:
    /// `panel` holds whole columns of `E` (leading dimension `n`).
    fn apply_panel(&self, panel: &mut [T], n: usize, work: &mut [T]) {
        let cols = panel.len() / n;
        if let Some(d) = self.phases {
            for col in panel.chunks_mut(n) {
                for (v, &p) in col.iter_mut().zip(d) {
                    *v *= p;
                }
            }
        }
        for d in self.diamonds {
            apply_diamond(d, panel, n, cols, work);
        }
        for p in self.q1.iter().rev() {
            let kb = p.kb();
            larfb_with_work(
                Side::Left,
                Trans::No,
                p.rows,
                cols,
                kb,
                &p.v,
                p.rows,
                &p.t,
                kb,
                &mut panel[p.r0..],
                n,
                &mut work[..2 * kb * cols],
            );
        }
    }

    /// Parallel over column panels of `e` (`n` rows), the scratch of all
    /// panels carved from one allocation.
    fn run(&self, e: &mut [T], n: usize, panel_cols: usize) {
        if n == 0 || e.is_empty() || self.is_empty() {
            return;
        }
        let pc = panel_width::<T>(panel_cols) * n;
        let need = self.scratch_len(pc.min(e.len()) / n).max(1);
        let mut scratch = vec![T::ZERO; need * e.len().div_ceil(pc)];
        let panels: Vec<_> = e.chunks_mut(pc).zip(scratch.chunks_mut(need)).collect();
        panels
            .into_par_iter()
            .for_each(|(panel, work)| self.apply_panel(panel, n, work));
    }

    /// Serial twin of [`Chain::run`]: same panel split, same per-panel
    /// body, plan-owned scratch and a lifecycle checkpoint per panel.
    /// Bit-identical results (the panels are independent).
    fn run_serial(
        &self,
        e: &mut [T],
        n: usize,
        panel_cols: usize,
        scratch: &mut Vec<T>,
        ctrl: &Ctrl,
    ) -> tseig_matrix::Result<()> {
        if n == 0 || e.is_empty() || self.is_empty() {
            return Ok(());
        }
        let pc = panel_width::<T>(panel_cols) * n;
        let need = self.scratch_len(pc.min(e.len()) / n);
        if scratch.len() < need {
            reset_zeroed(scratch, need);
        }
        for panel in e.chunks_mut(pc) {
            ctrl.checkpoint()?;
            self.apply_panel(panel, n, scratch);
        }
        Ok(())
    }
}

/// `panel_cols`, or the element type's default when 0.
fn panel_width<T>(panel_cols: usize) -> usize {
    if panel_cols == 0 {
        default_panel_cols::<T>()
    } else {
        panel_cols
    }
}

/// `E`'s column-major buffer, checked to have the reflector order `n`
/// as its row count.
fn col_major<T>(e: &mut impl ColMajorMut<T>, n: usize) -> &mut [T] {
    assert_eq!(e.nrows(), n, "E must have n rows");
    e.col_major_mut()
}

/// Planned fused back-transformation `E <- Q1 Q2 E`: [`apply_q`] run
/// serially through `plan`'s retained diamond storage and scratch —
/// allocation-free once the plan has warmed up to the problem shape, and
/// bit-identical to [`apply_q`].
pub fn apply_q_ws<T: ComplexScalar + GemmScalar>(
    v2: &V2Set<T>,
    panels: &[Q1Panel<T>],
    e: &mut impl ColMajorMut<T>,
    ell: usize,
    panel_cols: usize,
    plan: &mut BtPlan<T>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let n = v2.n();
    let e = col_major(e, n);
    build_diamonds(v2, ell, plan);
    let chain = Chain {
        phases: None,
        diamonds: &plan.diamonds,
        q1: panels,
    };
    chain.run_serial(e, n, panel_cols, &mut plan.scratch, ctrl)
}

/// `E <- Q2 E` using diamond-blocked reflectors, parallel over column
/// panels of `E`. `ell` is the number of sweeps grouped per diamond;
/// `panel_cols` the column-panel width (0 picks
/// [`default_panel_cols`]).
pub fn apply_q2<T: ComplexScalar + GemmScalar>(
    v2: &V2Set<T>,
    e: &mut impl ColMajorMut<T>,
    ell: usize,
    panel_cols: usize,
) {
    apply_q_with_phases(v2, &[], None, e, ell, panel_cols);
}

/// Fused single-pass back-transformation `E <- Q1 Q2 E`: per column
/// panel, the full diamond sequence and then the reverse `Q1` chain run
/// while the panel is cache-resident — one pass over the eigenvector
/// matrix instead of the two that separate [`apply_q2`] + [`apply_q1`]
/// calls would make, with no synchronization barrier between the
/// stages (the panels are fully independent, Fig. 3).
pub fn apply_q<T: ComplexScalar + GemmScalar>(
    v2: &V2Set<T>,
    panels: &[Q1Panel<T>],
    e: &mut impl ColMajorMut<T>,
    ell: usize,
    panel_cols: usize,
) {
    apply_q_with_phases(v2, panels, None, e, ell, panel_cols);
}

/// [`apply_q`] with the Hermitian phase fold: `E <- Q1 Q2 D E`, `D =
/// diag(phases)` scaling row `j` by `phases[j]` first in each panel.
pub fn apply_q_with_phases<T: ComplexScalar + GemmScalar>(
    v2: &V2Set<T>,
    panels: &[Q1Panel<T>],
    phases: Option<&[T]>,
    e: &mut impl ColMajorMut<T>,
    ell: usize,
    panel_cols: usize,
) {
    let n = v2.n();
    let e = col_major(e, n);
    if let Some(d) = phases {
        assert_eq!(d.len(), n, "D must have n phases");
    }
    let mut plan = BtPlan::new();
    build_diamonds(v2, ell, &mut plan);
    let chain = Chain {
        phases,
        diamonds: &plan.diamonds,
        q1: panels,
    };
    chain.run(e, n, panel_cols);
}

/// `G <- Q1 G`: stage-1 panels applied in reverse order with blocked
/// reflectors, parallel over column panels of `G`.
pub fn apply_q1<T: ComplexScalar + GemmScalar>(
    panels: &[Q1Panel<T>],
    g: &mut impl ColMajorMut<T>,
    panel_cols: usize,
) {
    // Every panel reaches the last row: n = r0 + rows.
    let Some(n) = panels.first().map(|p| p.r0 + p.rows) else {
        return;
    };
    let chain = Chain {
        phases: None,
        diamonds: &[],
        q1: panels,
    };
    chain.run(col_major(g, n), n, panel_cols);
}

/// `E <- D E`: scale row `j` of the `n`-row `E` by `phases[j]`.
pub fn apply_phases<T: ComplexScalar + GemmScalar>(phases: &[T], e: &mut impl ColMajorMut<T>) {
    let n = phases.len();
    let chain = Chain {
        phases: Some(phases),
        diamonds: &[],
        q1: &[],
    };
    chain.run(col_major(e, n), n, 0);
}

/// Apply one diamond `C <- (I - V T V^H) C` as three packed `gemm`s on
/// the stored `V' = V - [I; 0]` plus the split-out identity on the top
/// `k` rows (see the module docs). `work` provides at least
/// `2 * k * cols` scratch.
fn apply_diamond<T: ComplexScalar + GemmScalar>(
    d: &Diamond<T>,
    panel: &mut [T],
    ldc: usize,
    cols: usize,
    work: &mut [T],
) {
    let k = d.kb();
    let h = d.rows;
    let vp = &d.v[..];
    debug_assert!(
        (0..k).all(|c| vp[c + c * h] == T::ZERO),
        "a diamond's stored V' must have an exactly zero diagonal"
    );
    let c = &mut panel[d.r0..];
    let (w, w2) = work[..2 * k * cols].split_at_mut(k * cols);
    let (one, zero) = (T::ONE, T::ZERO);
    // W = C_top + V'^H C.
    for j in 0..cols {
        w[j * k..(j + 1) * k].copy_from_slice(&c[j * ldc..][..k]);
    }
    gemm(
        Trans::Yes,
        Trans::No,
        k,
        cols,
        h,
        one,
        vp,
        h,
        c,
        ldc,
        one,
        w,
        k,
    );
    // W2 = T W.
    gemm(
        Trans::No,
        Trans::No,
        k,
        cols,
        k,
        one,
        &d.t,
        k,
        w,
        k,
        zero,
        w2,
        k,
    );
    // C -= V' W2, then C_top -= W2.
    gemm(
        Trans::No,
        Trans::No,
        h,
        cols,
        k,
        -one,
        vp,
        h,
        w2,
        k,
        one,
        c,
        ldc,
    );
    for j in 0..cols {
        let ctop = &mut c[j * ldc..][..k];
        for (x, &y) in ctop.iter_mut().zip(&w2[j * k..(j + 1) * k]) {
            *x -= y;
        }
    }
}

/// Naive reference `E <- Q2 E`: reflectors applied one at a time in
/// exact reverse chase order (Level-2). Used by tests as the oracle for
/// the diamond reordering, and by the benches as the "naive
/// implementation" the paper compares against.
pub fn apply_q2_naive<T: ComplexScalar>(v2: &V2Set<T>, e: &mut impl ColMajorMut<T>) {
    let n = v2.n();
    let e = col_major(e, n);
    let ncols = e.len() / n.max(1);
    let mut work = vec![T::ZERO; ncols];
    for s in (0..v2.sweep_count()).rev() {
        for (r0, tau, v) in v2.sweep(s).iter().rev() {
            if v.is_empty() {
                continue;
            }
            larf_left(v, *tau, v.len(), ncols, &mut e[*r0..], n, &mut work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::sy2sb;
    use crate::stage2::reduce;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tseig_kernels::householder::larfg;
    use tseig_kernels::qr::{extract_v_t_vec, geqrf};
    use tseig_matrix::{c64, gen, norms, CMatrix, Matrix, SymBandMatrix, C64};

    fn crand(rng: &mut StdRng) -> C64 {
        c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    }

    fn rand_cmat(m: usize, n: usize, seed: u64) -> CMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        CMatrix::from_fn(m, n, |_, _| crand(&mut rng))
    }

    /// Unit-modulus phases `D` like the Hermitian phase fold produces.
    fn rand_phases(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let th: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                c64(th.cos(), th.sin())
            })
            .collect()
    }

    /// Complex reflectors (`larfg` of random vectors) on the exact chase
    /// geometry of an order-`n`, bandwidth-`nb` problem: the diamond
    /// grouping depends only on that geometry.
    fn complex_v2(n: usize, nb: usize, seed: u64) -> V2Set<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v2 = V2Set::new(n, nb);
        for s in 0..v2.sweep_count() {
            for k in 0..v2.sweep(s).len() {
                let start = s + 1 + k * nb;
                let len = (start + nb - 1).min(n - 1) - start + 1;
                let mut v: Vec<C64> = (0..len).map(|_| crand(&mut rng)).collect();
                let (_, tau) = larfg(v[0], &mut v[1..]);
                v[0] = C64::ONE;
                v2.store(s, k, start, tau, &v);
            }
        }
        v2
    }

    /// Complex stage-1 panels on the `sy2sb` geometry: each panel is the
    /// blocked `geqrf` of a random `(n - r0) x nb` block.
    fn complex_q1(n: usize, nb: usize, seed: u64) -> Vec<Q1Panel<C64>> {
        let mut panels = Vec::new();
        let mut r0 = nb;
        while r0 < n {
            let m = n - r0;
            let kb = nb.min(m);
            let mut a = rand_cmat(m, nb, seed + r0 as u64);
            let mut tau = vec![C64::ZERO; kb];
            geqrf(m, nb, a.as_mut_slice(), m, &mut tau, 2);
            let mut p = Q1Panel {
                r0,
                rows: m,
                v: Vec::new(),
                t: Vec::new(),
            };
            extract_v_t_vec(a.as_slice(), m, m, kb, &tau, &mut p.v, &mut p.t);
            panels.push(p);
            r0 += nb;
        }
        panels
    }

    fn chase_setup(n: usize, b: usize, seed: u64) -> (Matrix, V2Set, Matrix) {
        // Build a band matrix, chase it, return (dense band, V2, T dense).
        let a = gen::random_symmetric(n, seed);
        let mut dense = Matrix::zeros(n, n);
        for j in 0..n {
            for i in j..(j + b + 1).min(n) {
                dense[(i, j)] = a[(i, j)];
                dense[(j, i)] = a[(i, j)];
            }
        }
        let band = SymBandMatrix::from_dense_lower(&dense, b, b);
        let r = reduce(band);
        let t = r.tridiagonal.to_dense();
        (dense, r.v2, t)
    }

    #[test]
    fn naive_q2_reconstructs_band() {
        // B == Q2 T Q2^T: apply Q2 to T's eigen-identity — here simply
        // verify Q2 (applied to I) is orthogonal and Q2 T Q2^T == B.
        let (bdense, v2, t) = chase_setup(18, 3, 1);
        let mut q2 = Matrix::identity(18);
        apply_q2_naive(&v2, &mut q2);
        assert!(norms::orthogonality(&q2) < 100.0);
        let recon = q2.multiply(&t).unwrap().multiply(&q2.transpose()).unwrap();
        let tol = 100.0 * norms::norm1(&bdense) * 18.0 * norms::EPS;
        assert!(recon.approx_eq(&bdense, tol), "Q2 T Q2^T != B");

        // C64 with the phase fold: B == Q2 (D T D^H) Q2^H.
        let (n, b) = (12, 3);
        let band = SymBandMatrix::from_dense_lower(&gen::random_hermitian(n, 63), b, b);
        let bdense = CMatrix::from_fn(n, n, |i, j| band.get(i, j));
        let r = reduce(band);
        let phases = r.phases.expect("complex chase folds phases");
        let mut q2 = CMatrix::identity(n);
        apply_q2_naive(&r.v2, &mut q2);
        let t = r.tridiagonal.to_dense();
        let tc = CMatrix::from_fn(n, n, |i, j| {
            phases[i] * c64(t[(i, j)], 0.0) * phases[j].conj()
        });
        let recon = q2.multiply(&tc).multiply(&q2.adjoint());
        assert!(
            recon.max_diff(&bdense) < 1e-10 * n as f64,
            "C64 Q2 T Q2^H != B"
        );
    }

    #[test]
    fn diamond_matches_naive_various_ell() {
        // n = 53 and 70 are not multiples of b, so the last sweep block
        // is short and its diamonds ragged, at ell = 1, b/2 and b.
        for (n, b, seed) in [
            (20, 3, 2),
            (35, 5, 3),
            (24, 4, 4),
            (53, 8, 11),
            (70, 12, 12),
        ] {
            let (_, v2, _) = chase_setup(n, b, seed);
            let e0 = gen::random_symmetric(n, seed + 100);
            let mut naive = e0.clone();
            apply_q2_naive(&v2, &mut naive);
            for ell in [1, 2, 3, b / 2, b, 8, 64] {
                let mut fast = e0.clone();
                apply_q2(&v2, &mut fast, ell, 7);
                assert!(
                    fast.approx_eq(&naive, 1e-11),
                    "diamond != naive (n={n}, b={b}, ell={ell})"
                );
            }
        }
        // C64: the same diamonds on complex reflectors, with the phase
        // fold applied first in each panel.
        for (n, b, seed) in [
            (20, 3, 2),
            (35, 5, 3),
            (24, 4, 4),
            (53, 8, 11),
            (70, 12, 12),
        ] {
            let v2 = complex_v2(n, b, seed);
            let phases = rand_phases(n, seed + 50);
            let e0 = rand_cmat(n, n, seed + 100);
            let mut naive = e0.clone();
            apply_phases(&phases, &mut naive);
            apply_q2_naive(&v2, &mut naive);
            for ell in [1, 2, 3, b / 2, b, 8, 64] {
                let mut fast = e0.clone();
                apply_q_with_phases(&v2, &[], Some(&phases), &mut fast, ell, 7);
                assert!(
                    fast.max_diff(&naive) < 1e-11,
                    "C64 diamond != naive (n={n}, b={b}, ell={ell})"
                );
            }
        }
    }

    #[test]
    fn q2_on_subset_of_columns() {
        let (_, v2, _) = chase_setup(22, 4, 5);
        let full = {
            let mut e = Matrix::identity(22);
            apply_q2(&v2, &mut e, 4, 0);
            e
        };
        // Applying to 3 columns must equal the matching slice.
        let mut sub = Matrix::from_fn(22, 3, |i, j| if i == j + 5 { 1.0 } else { 0.0 });
        apply_q2(&v2, &mut sub, 4, 2);
        for j in 0..3 {
            for i in 0..22 {
                assert!((sub[(i, j)] - full[(i, j + 5)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn q1_reconstruction() {
        let n = 40;
        let nb = 6;
        let a = gen::random_symmetric(n, 6);
        let bf = sy2sb(&a, nb, 0);
        let mut q1 = Matrix::identity(n);
        apply_q1(&bf.panels, &mut q1, 16);
        assert!(norms::orthogonality(&q1) < 100.0);
        let b = bf.band.to_dense();
        let recon = q1.multiply(&b).unwrap().multiply(&q1.transpose()).unwrap();
        let tol = 200.0 * norms::norm1(&a) * n as f64 * norms::EPS;
        assert!(recon.approx_eq(&a, tol), "Q1 B Q1^T != A");
    }

    #[test]
    fn q1_matches_reflector_wise_oracle_c64() {
        // Blocked complex Q1 against its reflectors applied one at a
        // time (Level-2), and Q1 unitary.
        let (n, nb) = (40, 6);
        let panels = complex_q1(n, nb, 6);
        let mut q1 = CMatrix::identity(n);
        apply_q1(&panels, &mut q1, 16);
        let mut want = CMatrix::identity(n);
        let mut work = vec![C64::ZERO; n];
        for p in panels.iter().rev() {
            let (m, kb) = (p.rows, p.kb());
            // T's diagonal holds the reflector taus.
            for c in (0..kb).rev() {
                let tau = p.t[c + c * kb];
                let u = &p.v[c * m..(c + 1) * m];
                larf_left(u, tau, m, n, &mut want.as_mut_slice()[p.r0..], n, &mut work);
            }
        }
        assert!(q1.max_diff(&want) < 1e-12);
        let qhq = q1.adjoint().multiply(&q1);
        assert!(qhq.max_diff(&CMatrix::identity(n)) < 1e-12);
    }

    #[test]
    fn q1_panel_parallel_independence() {
        // Different panel widths give identical results.
        let n = 30;
        let a = gen::random_symmetric(n, 7);
        let bf = sy2sb(&a, 5, 0);
        let e = gen::random_symmetric(n, 8);
        let mut r1 = e.clone();
        let mut r2 = e.clone();
        apply_q1(&bf.panels, &mut r1, 1);
        apply_q1(&bf.panels, &mut r2, 64);
        assert!(r1.approx_eq(&r2, 1e-12));
    }

    #[test]
    fn fused_apply_q_matches_unfused_oracles() {
        // apply_q (fused single pass) against the Level-2 naive Q2
        // followed by a serial Q1 (one panel): the full unfused oracle
        // chain, across band widths and panel widths.
        for (n, nb, seed) in [(36, 4, 21), (45, 6, 22)] {
            let a = gen::random_symmetric(n, seed);
            let bf = sy2sb(&a, nb, 0);
            let chase = reduce(bf.band.clone());
            let e0 = gen::random_symmetric(n, seed + 50);

            let mut want = e0.clone();
            apply_q2_naive(&chase.v2, &mut want);
            apply_q1(&bf.panels, &mut want, n + 1); // serial: one panel

            for pc in [1, 5, 0] {
                let mut fused = e0.clone();
                apply_q(&chase.v2, &bf.panels, &mut fused, 3, pc);
                assert!(
                    fused.approx_eq(&want, 1e-11),
                    "fused != naive Q2 + serial Q1 (n={n}, nb={nb}, pc={pc})"
                );
            }

            // And against the unfused blocked pair.
            let mut unfused = e0.clone();
            apply_q2(&chase.v2, &mut unfused, 3, 0);
            apply_q1(&bf.panels, &mut unfused, 0);
            let mut fused = e0.clone();
            apply_q(&chase.v2, &bf.panels, &mut fused, 3, 0);
            assert!(fused.approx_eq(&unfused, 1e-11));
        }
        // C64 with the phase fold: the fused one-pass D + Q2 + Q1 against
        // the unfused trio (naive Level-2 Q2, serial Q1), with and
        // without the phases.
        for (n, nb, seed) in [(36, 4, 21), (45, 6, 22)] {
            let v2 = complex_v2(n, nb, seed);
            let panels = complex_q1(n, nb, seed + 10);
            let phases = rand_phases(n, seed + 20);
            let e0 = rand_cmat(n, n, seed + 50);

            let mut want = e0.clone();
            apply_phases(&phases, &mut want);
            apply_q2_naive(&v2, &mut want);
            apply_q1(&panels, &mut want, n + 1); // serial: one panel

            for pc in [1, 5, 0] {
                let mut fused = e0.clone();
                apply_q_with_phases(&v2, &panels, Some(&phases), &mut fused, 3, pc);
                assert!(
                    fused.max_diff(&want) < 1e-11,
                    "C64 fused != D + naive Q2 + serial Q1 (n={n}, nb={nb}, pc={pc})"
                );
            }

            let mut unfused = e0.clone();
            apply_q2(&v2, &mut unfused, 3, 0);
            apply_q1(&panels, &mut unfused, 0);
            let mut fused = e0.clone();
            apply_q(&v2, &panels, &mut fused, 3, 0);
            assert!(fused.max_diff(&unfused) < 1e-11);
        }
    }

    #[test]
    fn phases_scale_rows() {
        let mut e = CMatrix::identity(3);
        let p = [c64(0.0, 1.0), c64(1.0, 0.0), c64(-1.0, 0.0)];
        apply_phases(&p, &mut e);
        assert_eq!(e[(0, 0)], c64(0.0, 1.0));
        assert_eq!(e[(2, 2)], c64(-1.0, 0.0));
    }

    #[test]
    fn serial_plan_path_matches_parallel_c64() {
        // apply_q_ws (plan scratch, serial loop) and apply_q (one
        // allocation, parallel loop) share the per-panel body.
        let (n, nb) = (45, 6);
        let v2 = complex_v2(n, nb, 31);
        let panels = complex_q1(n, nb, 32);
        let e0 = rand_cmat(n, 17, 33);
        let mut par = e0.clone();
        apply_q(&v2, &panels, &mut par, 4, 5);
        let mut ser = e0.clone();
        let mut plan = BtPlan::new();
        apply_q_ws(&v2, &panels, &mut ser, 4, 5, &mut plan, &Ctrl::NONE).unwrap();
        assert_eq!(par.max_diff(&ser), 0.0);
    }

    #[test]
    #[should_panic(expected = "E must have n rows")]
    fn apply_q_rejects_wrong_row_count() {
        // A 2n x k E has a length divisible by n; it must still be refused
        // rather than read as n x 2k.
        let (_, v2, _) = chase_setup(10, 2, 9);
        let mut e = Matrix::zeros(20, 3);
        apply_q(&v2, &[], &mut e, 4, 0);
    }

    #[test]
    #[should_panic(expected = "E must have n rows")]
    fn apply_q_with_phases_rejects_wrong_row_count_c64() {
        let n = 12;
        let v2 = complex_v2(n, 3, 41);
        let phases = rand_phases(n, 42);
        let mut e = rand_cmat(2 * n, 3, 43);
        apply_q_with_phases(&v2, &[], Some(&phases), &mut e, 4, 0);
    }

    #[test]
    fn empty_cases() {
        let (_, v2, _) = chase_setup(10, 2, 9);
        let mut empty = Matrix::zeros(10, 0);
        apply_q2(&v2, &mut empty, 4, 0);
        apply_q1(&[], &mut empty, 0);
        let mut e = Matrix::identity(10);
        apply_q(&v2, &[], &mut e, 4, 0); // no Q1 panels: fused == Q2 only
        let mut q2 = Matrix::identity(10);
        apply_q2(&v2, &mut q2, 4, 0);
        assert!(e.approx_eq(&q2, 1e-13));
    }
}
