//! Stage 2 of the two-stage SVD: band to bidiagonal bulge chase.
//!
//! The general-band counterpart of `tseig-core`'s symmetric chase. The
//! input is the upper-triangular band produced by [`crate::stage1::ge2bb`]
//! (bandwidth `b`, stored in a [`GeBandMatrix`] with `kl = b` and
//! `ku = 2b` so bulge fill never leaves the store); the output is the
//! upper bidiagonal `(d, e)` plus the full set of chase reflectors for
//! the `U`/`V` back-transformation.
//!
//! Each sweep `s` eliminates row `s` beyond the superdiagonal and chases
//! the resulting bulge off the bottom-right corner:
//!
//! * task `(s, 0)` — `gbelr`: a *right* reflector over columns
//!   `s+1 ..= min(s+b, n-1)` annihilates row `s` past the superdiagonal;
//!   applying it to the rows below fills a `b`-wide block under the
//!   diagonal.
//! * task `(s, k >= 1)` — `gbcle+gbelr`: a *left* reflector over rows
//!   `a ..= r_k` (`a = s+1+(k-1)b`, `r_k = min(s+kb, n-1)`) annihilates
//!   the fill in column `a` below the diagonal; applying it to the
//!   trailing columns pushes the bulge right, and a second *right*
//!   reflector over columns `a+b ..= r_{k+1}` pushes it down. Unlike the
//!   symmetric chase, every task annihilates fill its *predecessor's*
//!   applications fully materialized, so tasks never read each other's
//!   reflectors — ordering comes from band-interval overlap alone.
//!
//! [`reduce`] runs the tasks serially; [`reduce_scheduled`] hands them
//! to the chase engine (`tseig_runtime::chase`) as [`SvdChase`]. The
//! engine declares the same exact interval footprints as for the
//! symmetric chases, so `xtask graphcheck` certifies this graph over the
//! same sweep, and the Static / Dynamic schedules are bit-identical to
//! the serial order.

use tseig_kernels::contract;
use tseig_kernels::flops::{add, add_bytes, Level};
use tseig_kernels::householder::{larf_left, larf_right, larfg};
use tseig_matrix::workspace::{reset_f64s, MemReq};
use tseig_matrix::{Ctrl, GeBandMatrix, Matrix};
use tseig_runtime::chase::{self, touch_band, Builder, Task};
use tseig_runtime::Access;

/// One `(sweep, step)` reflector slot: the optional left reflector
/// (absent for step 0) and the optional right reflector (absent when the
/// bulge has already reached the border). A reflector acts on the
/// contiguous index range `start .. start + v.len()` with an explicit
/// leading 1 in `v[0]`.
#[derive(Clone, Debug, Default)]
pub struct BvSlot {
    /// Left reflector row origin.
    pub l0: usize,
    /// Left reflector scalar.
    pub ltau: f64,
    /// Left reflector vector (empty = absent).
    pub lv: Vec<f64>,
    /// Right reflector column origin.
    pub r0: usize,
    /// Right reflector scalar.
    pub rtau: f64,
    /// Right reflector vector (empty = absent).
    pub rv: Vec<f64>,
}

/// The full set of stage-2 chase reflectors, indexed `[sweep][step]`.
/// Storage is retained across [`reset`](BvSet::reset)s at the same shape
/// so a warmed-up plan refills it without touching the allocator.
#[derive(Debug, Default)]
pub struct BvSet {
    n: usize,
    b: usize,
    sweeps: Vec<Vec<BvSlot>>,
}

impl BvSet {
    /// Fresh set for an order-`n`, bandwidth-`b` chase.
    pub fn new(n: usize, b: usize) -> BvSet {
        let mut set = BvSet::default();
        set.reset(n, b);
        set
    }

    /// Number of tasks in sweep `s` (0 when the sweep is empty). Sweep
    /// `s` exists while row `s` has entries past the superdiagonal, and
    /// runs one head task plus one chase task per `b` columns of fill.
    pub fn steps_of_sweep(n: usize, b: usize, s: usize) -> usize {
        if n <= 2 || b <= 1 || s + 2 >= n {
            0
        } else {
            (n - 3 - s) / b + 2
        }
    }

    /// Matrix order this set was shaped for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth this set was shaped for.
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Reshape for an `(n, b)` chase, clearing every slot but keeping
    /// buffer capacity (allocation-free once warm at a fixed shape).
    pub fn reset(&mut self, n: usize, b: usize) {
        self.n = n;
        self.b = b;
        let ns = if n > 2 && b > 1 { n - 2 } else { 0 };
        self.sweeps.truncate(ns);
        // tidy: allow(checkpoint-loop) -- workspace reshaping, no solver iteration
        while self.sweeps.len() < ns {
            self.sweeps.push(Vec::new());
        }
        for (s, sweep) in self.sweeps.iter_mut().enumerate() {
            let steps = BvSet::steps_of_sweep(n, b, s);
            sweep.truncate(steps);
            // tidy: allow(checkpoint-loop) -- workspace reshaping, no solver iteration
            while sweep.len() < steps {
                sweep.push(BvSlot::default());
            }
            for slot in sweep.iter_mut() {
                slot.l0 = 0;
                slot.ltau = 0.0;
                slot.lv.clear();
                slot.r0 = 0;
                slot.rtau = 0.0;
                slot.rv.clear();
            }
        }
    }

    /// Store the left reflector of slot `(s, k)` from a scratch slice.
    fn store_left(&mut self, s: usize, k: usize, l0: usize, tau: f64, v: &[f64]) {
        let slot = &mut self.sweeps[s][k];
        slot.l0 = l0;
        slot.ltau = tau;
        slot.lv.clear();
        slot.lv.reserve_exact(v.len());
        slot.lv.extend_from_slice(v);
    }

    /// Store the right reflector of slot `(s, k)` from a scratch slice.
    fn store_right(&mut self, s: usize, k: usize, r0: usize, tau: f64, v: &[f64]) {
        let slot = &mut self.sweeps[s][k];
        slot.r0 = r0;
        slot.rtau = tau;
        slot.rv.clear();
        slot.rv.reserve_exact(v.len());
        slot.rv.extend_from_slice(v);
    }

    /// Apply the accumulated *left* chase reflectors to `u` (first
    /// applied in the chase = outermost factor), i.e.
    /// `u <- L_(0,1) L_(0,2) ... L_(last) u`. With `u = U_b` this
    /// completes the left singular vectors of the band matrix.
    pub fn apply_left(&self, u: &mut Matrix) {
        self.apply(u, |slot| (slot.l0, slot.ltau, &slot.lv));
    }

    /// Apply the accumulated *right* chase reflectors to `v` (acting on
    /// the column coordinate space, so on `v`'s rows):
    /// `v <- R_(0,0) R_(0,1) ... R_(last) v`. With `v = V_b` this
    /// completes the right singular vectors of the band matrix.
    pub fn apply_right(&self, v: &mut Matrix) {
        self.apply(v, |slot| (slot.r0, slot.rtau, &slot.rv));
    }

    /// Apply one side's reflectors, `side(slot) = (origin, tau, v)`, to
    /// the rows of `m`, the last one chased first.
    // tidy: allow(task-storage) -- main-thread dense back-transform after the chase
    fn apply(&self, m: &mut Matrix, side: fn(&BvSlot) -> (usize, f64, &Vec<f64>)) {
        assert_eq!(m.rows(), self.n, "row count must match the chase order");
        let nc = m.cols();
        let ld = m.ld();
        let mut work = vec![0.0f64; nc];
        for slot in self
            .sweeps
            .iter()
            .rev()
            .flat_map(|sweep| sweep.iter().rev())
        {
            let (r0, tau, v) = side(slot);
            if v.is_empty() || tau == 0.0 {
                continue;
            }
            larf_left(
                v,
                tau,
                v.len(),
                nc,
                &mut m.as_mut_slice()[r0..],
                ld,
                &mut work,
            );
        }
    }

    /// Bytes of heap capacity retained (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sweeps
            .iter()
            .map(|sweep| {
                sweep
                    .iter()
                    .map(|slot| (slot.lv.capacity() + slot.rv.capacity()) * size_of::<f64>())
                    .sum::<usize>()
                    + sweep.capacity() * size_of::<BvSlot>()
            })
            .sum()
    }
}

/// Workspace requirement of the chase kernels for bandwidth `b`: one
/// dense scratch rectangle (at most `(2b+1) x (b+1)` either way), one
/// `larf` work row, one reflector vector.
pub fn stage2_ws_req(b: usize) -> MemReq {
    let w = 2 * b + 1;
    MemReq::f64s(w * (b + 1))
        .and(MemReq::f64s(w))
        .and(MemReq::f64s(b + 1))
}

/// Reusable scratch of the chase kernels.
#[derive(Debug, Default)]
pub struct Stage2Ws {
    scratch: Vec<f64>,
    work: Vec<f64>,
    v: Vec<f64>,
}

impl Stage2Ws {
    pub fn new() -> Stage2Ws {
        Stage2Ws::default()
    }

    /// Bytes of heap capacity retained (footprint tests).
    pub fn capacity_bytes(&self) -> usize {
        (self.scratch.capacity() + self.work.capacity() + self.v.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Result of the stage-2 reduction: the bidiagonal and the reflector set
/// of the chase.
pub struct ChaseResult {
    /// Diagonal of the bidiagonal form (length `n`).
    pub d: Vec<f64>,
    /// Superdiagonal (length `n - 1`).
    pub e: Vec<f64>,
    /// Chase reflectors for the back-transformation.
    pub bv: BvSet,
}

/// Whole-band finite/shape contract at the driver entry points.
// tidy: allow(task-storage) -- whole-band main-thread contract before any task runs
fn band_contract(kernel: &'static str, band: &GeBandMatrix) {
    if contract::enabled() {
        let ab = band.as_slice();
        contract::require_vec(kernel, "ab", ab, ab.len());
        contract::require_finite_vec(kernel, "ab", ab, ab.len());
    }
}

/// `(a, r_k, r_{k+1})` bounds of chase task `(s, k >= 1)`.
fn bounds(n: usize, b: usize, s: usize, k: usize) -> (usize, usize, usize) {
    let a = s + 1 + (k - 1) * b;
    let rk = (s + k * b).min(n - 1);
    let rk1 = (s + (k + 1) * b).min(n - 1);
    (a, rk, rk1)
}

/// Copy the band rectangle `rows r0 .. r0+m x cols c0 .. c0+l` into
/// column-major dense scratch (leading dimension `m`). The caller must
/// have sized `scratch`; the rectangle's own diagonal-interval touch is
/// reported here (always inside the caller's covering span).
fn rect_to_dense(
    band: &GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    scratch: &mut [f64],
) {
    touch_band(r0.min(c0), (r0 + m - 1).max(c0 + l - 1), Access::Read);
    for c in 0..l {
        for r in 0..m {
            scratch[r + c * m] = band.get(r0 + r, c0 + c);
        }
    }
}

/// Inverse of [`rect_to_dense`]. Every `(i, j)` of the rectangle must be
/// inside the band store (the chase geometry guarantees it).
fn rect_from_dense(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    scratch: &[f64],
) {
    touch_band(r0.min(c0), (r0 + m - 1).max(c0 + l - 1), Access::Write);
    for c in 0..l {
        for r in 0..m {
            band.set(r0 + r, c0 + c, scratch[r + c * m]);
        }
    }
}

/// Apply the right reflector `(v[..l], tau)` (columns `c0 ..`) to the
/// band rectangle `rows r0 .. r0+m x cols c0 .. c0+l` through dense
/// scratch.
#[allow(clippy::too_many_arguments)]
fn rect_apply_right(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    v: &[f64],
    tau: f64,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
) {
    if tau == 0.0 || m == 0 || l == 0 {
        return;
    }
    reset_f64s(scratch, m * l);
    reset_f64s(work, m);
    rect_to_dense(band, r0, c0, m, l, scratch);
    larf_right(&v[..l], tau, m, l, scratch, m, work);
    rect_from_dense(band, r0, c0, m, l, scratch);
}

/// Apply the left reflector `(v[..m], tau)` (rows `r0 ..`) to the band
/// rectangle `rows r0 .. r0+m x cols c0 .. c0+l` through dense scratch.
#[allow(clippy::too_many_arguments)]
fn rect_apply_left(
    band: &mut GeBandMatrix,
    r0: usize,
    c0: usize,
    m: usize,
    l: usize,
    v: &[f64],
    tau: f64,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
) {
    if tau == 0.0 || m == 0 || l == 0 {
        return;
    }
    reset_f64s(scratch, m * l);
    reset_f64s(work, l);
    rect_to_dense(band, r0, c0, m, l, scratch);
    larf_left(&v[..m], tau, m, l, scratch, m, work);
    rect_from_dense(band, r0, c0, m, l, scratch);
}

/// `gbelr` head kernel of sweep `s`: generate the right reflector that
/// annihilates row `s` past the superdiagonal and apply it to the rows
/// below. Returns `(column origin, tau)`; the reflector vector is left
/// in `v`.
fn gbelr_head_ws(
    band: &mut GeBandMatrix,
    s: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> (usize, f64) {
    let n = band.n();
    let b = band.kl();
    let c1 = (s + b).min(n - 1);
    let l = c1 - s; // columns s+1 ..= c1
    debug_assert!(l >= 2, "head task needs fill to annihilate");
    touch_band(s, c1, Access::Write);
    reset_f64s(v, l);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(s, s + 1 + idx);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(s, s + 1, beta);
    for j in s + 2..=c1 {
        band.set(s, j, 0.0);
    }
    add(Level::L1, 2 * l as u64);
    add_bytes(Level::L1, 16 * l as u64);
    // Rows s+1 ..= c1 are the only others with entries in those columns.
    rect_apply_right(band, s + 1, s + 1, c1 - s, l, v, tau, scratch, work);
    (s + 1, tau)
}

/// `gbcle` kernel of task `(s, k >= 1)`: generate the left reflector that
/// annihilates the bulge in column `a` below the diagonal and apply it to
/// the trailing columns. Returns `(row origin, tau)`; the vector is left
/// in `v`.
fn gbcle_ws(
    band: &mut GeBandMatrix,
    s: usize,
    k: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> (usize, f64) {
    let n = band.n();
    let b = band.kl();
    let (a, rk, rk1) = bounds(n, b, s, k);
    debug_assert!(rk > a, "left reflector needs >= 2 rows");
    touch_band(a, rk1, Access::Write);
    let ll = rk - a + 1;
    reset_f64s(v, ll);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(a + idx, a);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(a, a, beta);
    for i in a + 1..=rk {
        band.set(i, a, 0.0);
    }
    add(Level::L1, 2 * ll as u64);
    add_bytes(Level::L1, 16 * ll as u64);
    rect_apply_left(band, a, a + 1, ll, rk1 - a, v, tau, scratch, work);
    (a, tau)
}

/// Trailing `gbelr` kernel of task `(s, k >= 1)`: generate the right
/// reflector that pushes the bulge in row `a` back inside bandwidth `b`
/// and apply it to the rows below. `None` when the bulge has already
/// reached the border.
fn gbelr_tail_ws(
    band: &mut GeBandMatrix,
    s: usize,
    k: usize,
    scratch: &mut Vec<f64>,
    work: &mut Vec<f64>,
    v: &mut Vec<f64>,
) -> Option<(usize, f64)> {
    let n = band.n();
    let b = band.kl();
    let (a, _rk, rk1) = bounds(n, b, s, k);
    let c0 = a + b;
    if c0 + 1 > rk1 {
        return None;
    }
    touch_band(a, rk1, Access::Write);
    let rl = rk1 - c0 + 1;
    reset_f64s(v, rl);
    for (idx, vi) in v.iter_mut().enumerate() {
        *vi = band.get(a, c0 + idx);
    }
    let (beta, tau) = {
        let (head, tail) = v.split_at_mut(1);
        larfg(head[0], tail)
    };
    v[0] = 1.0;
    band.set(a, c0, beta);
    for j in c0 + 1..=rk1 {
        band.set(a, j, 0.0);
    }
    add(Level::L1, 2 * rl as u64);
    add_bytes(Level::L1, 16 * rl as u64);
    rect_apply_right(band, a + 1, c0, rk1 - a, rl, v, tau, scratch, work);
    Some((c0, tau))
}

/// Serial chase of one sweep with caller-owned scratch.
fn run_sweep_ws(band: &mut GeBandMatrix, bv: &mut BvSet, ws: &mut Stage2Ws, s: usize) {
    for k in 0..BvSet::steps_of_sweep(band.n(), band.kl(), s) {
        run_step(band, bv, ws, s, k);
    }
}

/// Chase task `(s, k)`: the head `gbelr` for `k == 0`, otherwise `gbcle`
/// and, while the bulge has not reached the border, the trailing
/// `gbelr`. Stores the reflectors in slot `(s, k)`.
fn run_step(band: &mut GeBandMatrix, bv: &mut BvSet, ws: &mut Stage2Ws, s: usize, k: usize) {
    let (n, b) = (band.n(), band.kl());
    let Stage2Ws { scratch, work, v } = ws;
    chase::touch_slot::<SvdChase>(n, b, s, k, Access::Write);
    if k == 0 {
        let (c0, tau) = gbelr_head_ws(band, s, scratch, work, v);
        bv.store_right(s, 0, c0, tau, v);
    } else {
        let (l0, ltau) = gbcle_ws(band, s, k, scratch, work, v);
        bv.store_left(s, k, l0, ltau, v);
        if let Some((r0, rtau)) = gbelr_tail_ws(band, s, k, scratch, work, v) {
            bv.store_right(s, k, r0, rtau, v);
        }
    }
}

/// Order and logical bandwidth of a band the chase can run on. Panics
/// when the store lacks the `2 kl` fill diagonals the bulge needs.
fn chase_shape(band: &GeBandMatrix) -> (usize, usize) {
    let b = band.kl();
    assert!(
        band.ku() >= 2 * b,
        "bulge chase needs ku >= 2*kl fill diagonals"
    );
    (band.n(), b)
}

/// Reduce an upper-band matrix (logical bandwidth `kl`, with `ku >= 2*kl`
/// fill diagonals) to bidiagonal form. Serial, allocating entry point.
pub fn reduce(band: GeBandMatrix) -> ChaseResult {
    match reduce_serial(band, &Ctrl::NONE) {
        Ok(r) => r,
        Err(e) => unreachable!("inert control failed: {e}"),
    }
}

/// [`reduce_ws`] into fresh storage.
fn reduce_serial(mut band: GeBandMatrix, ctrl: &Ctrl) -> tseig_matrix::Result<ChaseResult> {
    let mut bv = BvSet::default();
    let mut ws = Stage2Ws::default();
    let mut d = Vec::new();
    let mut e = Vec::new();
    reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, ctrl)?;
    Ok(ChaseResult { d, e, bv })
}

/// Planned variant of [`reduce`]: band, reflector set, scratch, and the
/// bidiagonal output all live in caller-owned storage. Polls `ctrl` once
/// per sweep — an armed cancel or expired deadline aborts between sweeps
/// with the structured error, leaving the caller's plan reusable.
pub fn reduce_ws(
    band: &mut GeBandMatrix,
    bv: &mut BvSet,
    ws: &mut Stage2Ws,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    ctrl: &Ctrl,
) -> tseig_matrix::Result<()> {
    let (n, b) = chase_shape(band);
    band_contract("ge2bd", band);
    bv.reset(n, b);
    if n > 2 && b > 1 {
        for s in 0..n - 2 {
            ctrl.checkpoint()?;
            run_sweep_ws(band, bv, ws, s);
        }
    }
    reset_f64s(d, n);
    reset_f64s(e, n.saturating_sub(1));
    band.to_bidiagonal_into(d, e);
    Ok(())
}

/// How the chase's task graph is executed: the engine's one scheduler.
pub use tseig_runtime::chase::Scheduler as Stage2Exec;

/// Precomputed static schedule of one `(n, b, threads)` chase shape.
pub type Stage2Schedule = chase::Schedule<SvdChase>;

/// The band-bidiagonal chase as the engine sees it: the general band
/// store, the [`BvSet`] slots, and the `gbelr` / `gbcle`+`gbelr` kernels.
pub struct SvdChase;

// SAFETY: `run_task` runs `run_step`, whose `gbelr` / `gbcle` touch the
// band only inside the task's `row_span` (the band storage helpers
// report every access) and store only the task's own BV slot.
unsafe impl Builder for SvdChase {
    type Store = GeBandMatrix;
    type Slots = BvSet;
    type Output = ChaseResult;
    const TAGS: [&'static str; 2] = ["gbelr", "gbcle+gbelr"];

    fn steps_of_sweep(n: usize, b: usize, s: usize) -> usize {
        BvSet::steps_of_sweep(n, b, s)
    }

    /// Every task stores its own slot and reads no other: each chase step
    /// annihilates fill its predecessor fully materialized, so ordering
    /// comes from the band intervals alone.
    fn slot_access(_n: usize, _b: usize, _t: Task) -> (bool, bool) {
        (true, false)
    }

    fn new_slots(n: usize, b: usize) -> BvSet {
        BvSet::new(n, b)
    }

    fn run_task(band: &mut GeBandMatrix, bv: &mut BvSet, _b: usize, t: Task) {
        run_step(band, bv, &mut Stage2Ws::default(), t.s, t.k);
    }

    fn finish(band: GeBandMatrix, bv: BvSet) -> ChaseResult {
        let n = band.n();
        let mut d = vec![0.0f64; n];
        let mut e = vec![0.0f64; n.saturating_sub(1)];
        band.to_bidiagonal_into(&mut d, &mut e);
        ChaseResult { d, e, bv }
    }
}

/// Run the bulge chase under the chosen scheduler. Produces the same
/// bidiagonal and reflector set as [`reduce`], bitwise. Scheduled
/// backends poll `ctrl` between task claims and drain the pool on an
/// armed cancel or expired deadline; the serial backend checkpoints
/// once per sweep.
pub fn reduce_scheduled(
    band: GeBandMatrix,
    exec: Stage2Exec,
    ctrl: &Ctrl,
) -> Result<ChaseResult, String> {
    let (n, b) = chase_shape(&band);
    band_contract("reduce_scheduled", &band);
    chase::run::<SvdChase>(band, n, b, exec, &|| ctrl.poll_stop(), |band| {
        reduce_serial(band, ctrl).map_err(|e| e.to_string())
    })
}

/// Run the bulge chase under a precomputed static schedule. Bit-identical
/// to `reduce_scheduled(band, Stage2Exec::Static(threads))` with a
/// matching plan, minus the per-solve wait-list derivation.
pub fn reduce_static_prepared(
    band: GeBandMatrix,
    plan: &Stage2Schedule,
    ctrl: &Ctrl,
) -> Result<ChaseResult, String> {
    let (n, b) = chase_shape(&band);
    band_contract("reduce_static_prepared", &band);
    chase::run_static(band, n, b, plan, &|| ctrl.poll_stop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_runtime::chase::conformance;

    fn random_band(n: usize, b: usize, seed: u64) -> GeBandMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = Matrix::from_fn(n, n, |i, j| {
            if i <= j && j <= i + b {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        GeBandMatrix::from_dense(&dense, b, 2 * b)
    }

    fn bidiagonal_dense(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut m = Matrix::zeros(n, n);
        for j in 0..n {
            m[(j, j)] = d[j];
            if j + 1 < n {
                m[(j, j + 1)] = e[j];
            }
        }
        m
    }

    fn check_reduce(n: usize, b: usize, seed: u64) {
        let band = random_band(n, b, seed);
        let dense0 = band.to_dense();
        let res = reduce(band);
        // U_chase B_bid V_chase^T must reconstruct the band matrix.
        let bbid = bidiagonal_dense(&res.d, &res.e);
        let mut w = Matrix::identity(n);
        res.bv.apply_left(&mut w);
        let mut z = Matrix::identity(n);
        res.bv.apply_right(&mut z);
        let recon = w.multiply(&bbid).unwrap().multiply(&z.transpose()).unwrap();
        let tol = 1e-12 * (n as f64);
        assert!(
            recon.approx_eq(&dense0, tol),
            "chase reconstruction failed n={n} b={b}: err {}",
            {
                let mut diff = recon.clone();
                for (x, y) in diff.as_mut_slice().iter_mut().zip(dense0.as_slice()) {
                    *x -= *y;
                }
                diff.max_abs()
            }
        );
    }

    #[test]
    fn chase_reconstructs_band() {
        check_reduce(3, 2, 1);
        check_reduce(9, 2, 2);
        check_reduce(13, 3, 3);
        check_reduce(16, 5, 4);
        check_reduce(24, 8, 5);
        check_reduce(10, 16, 6); // bandwidth wider than the matrix
    }

    #[test]
    fn chase_leaves_bidiagonal_only() {
        for (n, b) in [(12, 3), (17, 4)] {
            let mut band = random_band(n, b, (n + b) as u64);
            let mut bv = BvSet::default();
            let mut ws = Stage2Ws::default();
            let (mut d, mut e) = (Vec::new(), Vec::new());
            reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
            assert_eq!(
                band.max_outside_bidiagonal(),
                0.0,
                "entries left outside the bidiagonal n={n} b={b}"
            );
        }
    }

    #[test]
    fn singular_values_preserved() {
        let (n, b) = (14, 3);
        let band = random_band(n, b, 7);
        let dense0 = band.to_dense();
        let res = reduce(band);
        let bbid = bidiagonal_dense(&res.d, &res.e);
        let want = tseig_kernels::reference::jacobi_eigen(
            &dense0.transpose().multiply(&dense0).unwrap(),
            false,
        )
        .unwrap()
        .eigenvalues;
        let got = tseig_kernels::reference::jacobi_eigen(
            &bbid.transpose().multiply(&bbid).unwrap(),
            false,
        )
        .unwrap()
        .eigenvalues;
        assert!(
            tseig_matrix::norms::eigenvalue_distance(&got, &want) < 1e-9,
            "chase changed the singular values"
        );
    }

    #[test]
    fn trivial_shapes() {
        // b <= 1 or n <= 2: already bidiagonal, no tasks.
        for (n, b) in [(0, 2), (1, 2), (2, 3), (6, 1), (6, 0)] {
            let band = random_band(n, b.max(1), 9);
            let dense0 = band.to_dense();
            assert!(chase::tasks::<SvdChase>(n, b).is_empty());
            let res = reduce(GeBandMatrix::from_dense(&dense0, b, 2 * b));
            let bbid = bidiagonal_dense(&res.d, &res.e);
            // With no chase the bidiagonal is just the stored part.
            for j in 0..n {
                assert_eq!(bbid[(j, j)], dense0[(j, j)]);
            }
        }
    }

    #[test]
    fn schedulers_match_serial_bitwise() {
        let (n, b) = (21, 4);
        let band = random_band(n, b, 11);
        let serial = reduce(GeBandMatrix::from_dense(&band.to_dense(), b, 2 * b));
        for exec in [Stage2Exec::Static(3), Stage2Exec::Dynamic(4)] {
            let got = reduce_scheduled(
                GeBandMatrix::from_dense(&band.to_dense(), b, 2 * b),
                exec,
                &Ctrl::NONE,
            )
            .unwrap();
            assert_eq!(serial.d, got.d, "d differs under {exec:?}");
            assert_eq!(serial.e, got.e, "e differs under {exec:?}");
        }
    }

    #[test]
    fn cancel_during_scheduled_chase() {
        // A real `CancelToken` through each scheduled entry point's `Ctrl`.
        use tseig_matrix::CancelToken;
        let band = &random_band(48, 4, 29);
        let plan = Stage2Schedule::new(48, 4, 3);
        let ctrl = |tok: &CancelToken| Ctrl::new().with_cancel(tok.clone());
        let scheduled = |exec| move |tok: &_| reduce_scheduled(band.clone(), exec, &ctrl(tok));
        let prepared = |tok: &_| reduce_static_prepared(band.clone(), &plan, &ctrl(tok));
        conformance::cancel_during_scheduled_chase(
            CancelToken::new,
            CancelToken::cancel,
            &[
                &scheduled(Stage2Exec::Dynamic(4)),
                &scheduled(Stage2Exec::Static(3)),
                &prepared,
            ],
        );
    }

    #[test]
    fn task_count_matches_slot_shape() {
        for (n, b) in [(6, 2), (13, 3), (24, 5), (33, 8)] {
            let tasks = chase::tasks::<SvdChase>(n, b);
            let total: usize = (0..n - 2).map(|s| BvSet::steps_of_sweep(n, b, s)).sum();
            assert_eq!(tasks.len(), total);
            let bv = BvSet::new(n, b);
            let stored: usize = bv.sweeps.iter().map(Vec::len).sum();
            assert_eq!(stored, total);
        }
    }

    #[test]
    fn task_graph_certifies() {
        let instances = [(6, 2), (13, 3), (16, 5), (24, 8), (33, 4)];
        conformance::graph_certified_race_free::<SvdChase>(&instances, &[1, 2, 3, 5]);
    }

    #[test]
    fn exact_spans_drop_spurious_same_sweep_edges() {
        conformance::exact_spans_drop_spurious_same_sweep_edges::<SvdChase>();
    }

    #[test]
    fn deleted_edge_caught_by_graphcheck() {
        conformance::deleted_edge_caught_by_graphcheck::<SvdChase>();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn narrowed_declaration_caught_by_shadow_checker() {
        conformance::narrowed_declaration_caught::<SvdChase>(random_band(18, 3, 31), 18, 3);
    }

    #[test]
    fn scheduled_runs_validate_touches_in_debug() {
        conformance::scheduled_runs_validate_touches::<SvdChase>(random_band(20, 3, 32), 20, 3);
    }

    #[test]
    fn warm_reset_is_allocation_stable() {
        let (n, b) = (18, 4);
        let mut band = random_band(n, b, 13);
        let dense0 = band.to_dense();
        let mut bv = BvSet::default();
        let mut ws = Stage2Ws::default();
        let (mut d, mut e) = (Vec::new(), Vec::new());
        reduce_ws(&mut band, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
        let warm = bv.capacity_bytes() + ws.capacity_bytes();
        // Re-run at the same shape: capacities must not grow.
        let mut band2 = GeBandMatrix::from_dense(&dense0, b, 2 * b);
        reduce_ws(&mut band2, &mut bv, &mut ws, &mut d, &mut e, &Ctrl::NONE).unwrap();
        assert_eq!(warm, bv.capacity_bytes() + ws.capacity_bytes());
    }
}
