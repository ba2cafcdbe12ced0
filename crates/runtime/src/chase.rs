//! The stage-2 bulge-chase engine: one task protocol for every chase.
//!
//! The paper runs its stage-2 chase (`xHBCEU`/`xHBREL`/`xHBLRU`) as one
//! task DAG whose dependences come from the data regions each task
//! touches, on either the static or the dynamic runtime (§3). The eig,
//! Hermitian and SVD chases share that protocol exactly; only their
//! stores, reflector slots and kernels differ. This module owns the
//! protocol, and a [`Builder`] supplies the differences:
//!
//! * the task enumeration ([`tasks`]): sweep `s`, chase depth `k`, in
//!   the serial sweep-major order, `steps_of_sweep` tasks per sweep
//!   (the eig and Hermitian chases share [`sym_steps_of_sweep`] and
//!   [`sym_depth_of_sweep`]);
//! * the declared footprints ([`task_regions`]): the exact
//!   diagonal-index row span of each task ([`row_span`]) in
//!   [`BAND_SPACE`], plus the reflector slots the builder says it writes
//!   and reads in [`SLOT_SPACE`];
//! * tags and priority lanes: sweep heads (`k == 0`) sit on the critical
//!   path and run in the high lane;
//! * the static scheduler's round-robin sweep owner map
//!   ([`task_owners`]) and the cached static schedule ([`Schedule`]);
//! * the Serial / Static / Dynamic dispatch ([`run`]), with the pool
//!   drained on a poll stop and the shared state unwrapped afterwards.
//!
//! Every schedule is bit-identical to the serial order, because the
//! schedulers only reorder tasks whose declared regions are disjoint.
//! The declarations are certified rather than trusted: [`task_specs`]
//! and [`task_owners`] export them for `xtask graphcheck`, and the
//! builders report every storage touch ([`touch_band`], [`touch_slot`])
//! to the debug-only shadow checker ([`crate::shadow`]).

pub mod conformance;

use crate::data::DataCell;
use crate::exec::Runtime;
use crate::graph::{Access, Priority, Region, TaskGraph};
use crate::shadow;
use crate::static_plan::StaticSchedule;
use crate::trace::RunStats;
use crate::verify::TaskSpec;
use std::marker::PhantomData;
use std::sync::Arc;

/// How a chase's task graph is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// The builder's own sequential kernel loop (lowest overhead).
    #[default]
    Serial,
    /// Static pipelined scheduler on `n` workers: sweeps round-robin,
    /// synchronization by progress counters (the paper's preference for
    /// the memory-bound chase: few cores, high locality).
    Static(usize),
    /// Dynamic superscalar runtime on `n` workers with region-inferred
    /// dependences.
    Dynamic(usize),
}

/// One chase task: sweep `s`, chase depth `k` (`k == 0` starts the
/// sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    pub s: usize,
    pub k: usize,
}

/// Region space of the band's diagonal index intervals: entry `(i, j)`
/// lies in `[min(i, j), max(i, j)]`.
pub const BAND_SPACE: u32 = 0;
/// Region space of the reflector slots, one point per `(sweep, depth)`.
pub const SLOT_SPACE: u32 = 1;

/// What one bulge chase supplies to the engine.
///
/// # Safety
///
/// The scheduled runs hand concurrent tasks `&mut` access to one shared
/// store and slot set, trusting the declared footprints to keep them
/// apart. An implementation must guarantee that `run_task(t)` touches
/// the store only inside `row_span(t)` and the slots only as
/// `slot_access(t)` declares; a touch outside is a data race. It must
/// also report each touch before making it ([`touch_band`],
/// [`touch_slot`]), so the shadow checker can enforce the contract in
/// every debug run; [`conformance`] pins it for each builder.
pub unsafe trait Builder: 'static {
    /// The matrix the chase reduces in place.
    type Store: Send + 'static;
    /// The reflector set the tasks fill, one slot per `(sweep, depth)`.
    type Slots: Send + 'static;
    /// What a finished chase hands back.
    type Output;
    /// Task tags: `[sweep head, chase step]`.
    const TAGS: [&'static str; 2];

    /// Number of tasks sweep `s` runs.
    fn steps_of_sweep(n: usize, b: usize, s: usize) -> usize;
    /// Slots task `t` touches: `(writes slot (s, k), reads slot (s, k - 1))`.
    fn slot_access(n: usize, b: usize, t: Task) -> (bool, bool);
    /// Empty reflector set for an order-`n`, bandwidth-`b` chase.
    fn new_slots(n: usize, b: usize) -> Self::Slots;
    /// Run task `t`, reporting every band and slot touch ([`touch_band`],
    /// [`touch_slot`]) before making it.
    fn run_task(store: &mut Self::Store, slots: &mut Self::Slots, b: usize, t: Task);
    /// The result of a finished chase.
    fn finish(store: Self::Store, slots: Self::Slots) -> Self::Output;
}

/// Report a touch of the band's inclusive diagonal-index interval
/// `[lo, hi]` to the shadow checker.
pub fn touch_band(lo: usize, hi: usize, access: Access) {
    shadow::touch(BAND_SPACE, lo as u64, hi as u64 + 1, access);
}

/// Report a touch of reflector slot `(s, k)` to the shadow checker.
pub fn touch_slot<B: Builder>(n: usize, b: usize, s: usize, k: usize, access: Access) {
    if !shadow::enabled() {
        return;
    }
    shadow::touch_region(slot::<B>(n, b, s, k), access);
}

/// All chase tasks, in the serial (sweep-major) order.
pub fn tasks<B: Builder>(n: usize, b: usize) -> Vec<Task> {
    if n <= 2 || b <= 1 {
        return Vec::new();
    }
    (0..n - 2)
        .flat_map(|s| (0..B::steps_of_sweep(n, b, s)).map(move |k| Task { s, k }))
        .collect()
}

/// Exact inclusive diagonal-index span `[lo, hi]` of the band entries
/// task `t` touches. A sweep head covers `[s, min(s + b, n - 1)]`: line
/// `s` and the block its reflector updates. A chase step applies the
/// previous reflector (rows `s + 1 + (k - 1) b ..`) to the block below
/// it and reaches at most row `s + (k + 1) b`, clamped at the edge.
/// Exactness is load-bearing twice over: any touch outside trips the
/// shadow checker, and spans one index wider would serialize `(s, k)`
/// and `(s, k + 2)`, which are adjacent but disjoint.
pub fn row_span(n: usize, b: usize, t: Task) -> (usize, usize) {
    let lo = if t.k == 0 {
        t.s
    } else {
        t.s + 1 + (t.k - 1) * b
    };
    let hi = (t.s + (t.k + 1) * b).min(n - 1);
    (lo, hi)
}

/// Reflectors sweep `s` of a symmetric (eig or Hermitian) chase stores:
/// reflector `k` exists while its row range `[s + 1 + k b, ..]` has at
/// least two rows, i.e. `s + 1 + k b <= n - 2`.
pub fn sym_depth_of_sweep(n: usize, b: usize, s: usize) -> usize {
    if s + 2 >= n {
        return 0;
    }
    (n - 2 - s - 1) / b + 1
}

/// Tasks sweep `s` of a symmetric chase runs. One more than
/// [`sym_depth_of_sweep`] when the last bulge block has a single row:
/// the previous reflector is still applied from the right to it, but no
/// new reflector comes out. Task `k >= 1` exists while the block below
/// reflector `k - 1` is non-empty, `s + k b <= n - 2`.
pub fn sym_steps_of_sweep(n: usize, b: usize, s: usize) -> usize {
    if s + 2 >= n {
        return 0;
    }
    (n - 2 - s) / b + 1
}

/// Slot region of reflector `(s, k)`. The stride is the step count of
/// sweep 0, the longest, so slot ids never collide across sweeps.
fn slot<B: Builder>(n: usize, b: usize, s: usize, k: usize) -> Region {
    let stride = B::steps_of_sweep(n, b, 0);
    Region::point(SLOT_SPACE, (s * stride + k) as u64)
}

/// Declared footprint of task `t`: its exact band span (Write, since
/// every kernel both reads and writes its blocks), then the slot it
/// stores and the predecessor slot it reads, as the builder declares.
pub fn task_regions<B: Builder>(n: usize, b: usize, t: Task) -> Vec<(Region, Access)> {
    let (lo, hi) = row_span(n, b, t);
    let mut regions = vec![(
        Region::span(BAND_SPACE, lo as u64, hi as u64 + 1),
        Access::Write,
    )];
    let (writes, reads_prev) = B::slot_access(n, b, t);
    if writes {
        regions.push((slot::<B>(n, b, t.s, t.k), Access::Write));
    }
    if reads_prev {
        regions.push((slot::<B>(n, b, t.s, t.k - 1), Access::Read));
    }
    regions
}

/// Tag and priority lane of task `t`.
fn task_meta<B: Builder>(t: Task) -> (&'static str, Priority) {
    if t.k == 0 {
        (B::TAGS[0], Priority::High)
    } else {
        (B::TAGS[1], Priority::Normal)
    }
}

/// The task set as *declared* specs: the same `(tag, priority,
/// regions)` triples the schedulers submit, exported for offline
/// verification (`xtask graphcheck` proves them race-free per
/// `(n, b)` instance through [`crate::verify`]).
pub fn task_specs<B: Builder>(n: usize, b: usize) -> Vec<TaskSpec> {
    tasks::<B>(n, b)
        .into_iter()
        .map(|t| {
            let (tag, priority) = task_meta::<B>(t);
            TaskSpec {
                tag,
                priority,
                regions: task_regions::<B>(n, b, t),
            }
        })
        .collect()
}

/// Static-scheduler owner of each task of [`task_specs`]: sweeps
/// round-robin over `threads` workers.
pub fn task_owners<B: Builder>(n: usize, b: usize, threads: usize) -> Vec<usize> {
    let threads = threads.max(1);
    tasks::<B>(n, b).iter().map(|t| t.s % threads).collect()
}

/// Precomputed static-scheduler plan for one `(n, b, threads)` chase
/// shape: the task list plus the derived cross-worker wait lists.
///
/// Deriving the waits replays the region protocol through a shadow task
/// graph, O(tasks · regions) work that depends only on the shape. A
/// solve plan builds this once and [`run_static`] reuses it for every
/// solve of the same shape.
pub struct Schedule<B> {
    n: usize,
    b: usize,
    tasks: Vec<Task>,
    sched: StaticSchedule,
    builder: PhantomData<fn() -> B>,
}

impl<B: Builder> Schedule<B> {
    /// Derive the schedule of an order-`n`, bandwidth-`b` chase on
    /// `threads` workers.
    pub fn new(n: usize, b: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let tasks = tasks::<B>(n, b);
        let owner = task_owners::<B>(n, b, threads);
        let regions: Vec<_> = tasks.iter().map(|&t| task_regions::<B>(n, b, t)).collect();
        let sched = StaticSchedule::derive(threads, &owner, &regions);
        Schedule {
            n,
            b,
            tasks,
            sched,
            builder: PhantomData,
        }
    }

    /// Matrix order the schedule was derived for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bandwidth the schedule was derived for.
    pub fn bandwidth(&self) -> usize {
        self.b
    }

    /// Worker count the schedule was derived for.
    pub fn threads(&self) -> usize {
        self.sched.threads()
    }
}

/// Run an order-`n`, bandwidth-`b` chase under `sched`. `Serial` calls
/// the builder's own loop `serial`; the scheduled backends poll `poll`
/// between task claims and, on the first `true`, drain the pool and
/// return `Err(`[`crate::STOPPED_BY_POLL`]`)`.
pub fn run<B: Builder>(
    store: B::Store,
    n: usize,
    b: usize,
    sched: Scheduler,
    poll: &(dyn Fn() -> bool + Sync),
    serial: impl FnOnce(B::Store) -> Result<B::Output, String>,
) -> Result<B::Output, String> {
    match sched {
        Scheduler::Serial => serial(store),
        Scheduler::Static(threads) => {
            run_static::<B>(store, n, b, &Schedule::new(n, b, threads), poll)
        }
        Scheduler::Dynamic(threads) => {
            let regions = |t| task_regions::<B>(n, b, t);
            let (store, slots, _) = run_dynamic::<B>(store, n, b, threads, &regions, poll)?;
            Ok(B::finish(store, slots))
        }
    }
}

/// Run a chase under a precomputed static schedule: bit-identical to
/// `run` with `Scheduler::Static(plan.threads())`, minus the wait-list
/// derivation.
pub fn run_static<B: Builder>(
    store: B::Store,
    n: usize,
    b: usize,
    plan: &Schedule<B>,
    poll: &(dyn Fn() -> bool + Sync),
) -> Result<B::Output, String> {
    assert!(
        plan.n == n && plan.b == b,
        "static schedule shape mismatch: plan ({}, {}), chase ({n}, {b})",
        plan.n,
        plan.b,
    );
    let cells = Cells::<B>::new(store, n, b);
    plan.sched.execute_with_poll(
        |i| {
            let cells = cells.clone();
            let t = plan.tasks[i];
            Box::new(move || cells.run_task(b, t))
        },
        poll,
    )?;
    let (store, slots) = cells.into_parts()?;
    Ok(B::finish(store, slots))
}

/// Run the task graph on the dynamic runtime, declaring `regions(t)` for
/// each task. Returns the final state and the run statistics.
fn run_dynamic<B: Builder>(
    store: B::Store,
    n: usize,
    b: usize,
    threads: usize,
    regions: &dyn Fn(Task) -> Vec<(Region, Access)>,
    poll: &(dyn Fn() -> bool + Sync),
) -> Result<(B::Store, B::Slots, RunStats), String> {
    let cells = Cells::<B>::new(store, n, b);
    let mut graph = TaskGraph::new();
    for t in tasks::<B>(n, b) {
        let (tag, priority) = task_meta::<B>(t);
        let c = cells.clone();
        graph.add_task(tag, priority, &regions(t), move || c.run_task(b, t));
    }
    let stats = Runtime::new(threads).run_with_poll(graph, poll)?;
    let (store, slots) = cells.into_parts()?;
    Ok((store, slots, stats))
}

/// The chase state the scheduled tasks share.
struct Cells<B: Builder> {
    store: DataCell<B::Store>,
    slots: DataCell<B::Slots>,
}

impl<B: Builder> Cells<B> {
    fn new(store: B::Store, n: usize, b: usize) -> Arc<Self> {
        Arc::new(Cells {
            store: DataCell::new(store),
            slots: DataCell::new(B::new_slots(n, b)),
        })
    }

    /// Run task `t` against the shared state.
    fn run_task(&self, b: usize, t: Task) {
        // SAFETY: the scheduler runs `t` only while no task with an
        // overlapping declared region ([`task_regions`]) runs, and the
        // `unsafe trait Builder` contract guarantees the kernels touch
        // nothing outside that declaration (the shadow checker verifies
        // it in debug builds).
        let (store, slots) = unsafe { (self.store.get_mut(), self.slots.get_mut()) };
        B::run_task(store, slots, b, t);
    }

    /// The state back out, once every task has dropped its handle.
    fn into_parts(self: Arc<Self>) -> Result<(B::Store, B::Slots), String> {
        let cells = Arc::try_unwrap(self).map_err(|_| "chase state still shared".to_string())?;
        Ok((cells.store.into_inner(), cells.slots.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A toy chase over a vector of diagonal values: every task mixes its
    /// sweep and depth into each value of its row span and into the slot
    /// it stores, folding in the predecessor slot it reads. The mixing
    /// does not commute, so any reordering of two conflicting tasks
    /// changes the result.
    struct Toy;

    fn mix(x: u64, y: u64) -> u64 {
        x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ y
    }

    // SAFETY: `run_task` touches `store[lo..=hi]` for its own
    // `row_span` and the slots `slot_access` declares, nothing else.
    unsafe impl Builder for Toy {
        type Store = Vec<u64>;
        type Slots = Vec<Vec<u64>>;
        type Output = (Vec<u64>, Vec<Vec<u64>>);
        const TAGS: [&'static str; 2] = ["toy-head", "toy-step"];

        fn steps_of_sweep(n: usize, b: usize, s: usize) -> usize {
            if s + 2 >= n {
                0
            } else {
                (n - 2 - s) / b + 1
            }
        }

        fn slot_access(n: usize, b: usize, t: Task) -> (bool, bool) {
            // The last step of a sweep stores nothing, as in the
            // symmetric chase when the final bulge block is one row.
            (t.k + 1 < Self::steps_of_sweep(n, b, t.s), t.k > 0)
        }

        fn new_slots(n: usize, b: usize) -> Self::Slots {
            (0..n.saturating_sub(2))
                .map(|s| vec![0; Self::steps_of_sweep(n, b, s)])
                .collect()
        }

        fn run_task(store: &mut Vec<u64>, slots: &mut Vec<Vec<u64>>, b: usize, t: Task) {
            let n = store.len();
            let (writes, reads_prev) = Self::slot_access(n, b, t);
            let mut acc = (t.s * 1000 + t.k) as u64;
            if reads_prev {
                touch_slot::<Self>(n, b, t.s, t.k - 1, Access::Read);
                acc = mix(acc, slots[t.s][t.k - 1]);
            }
            let (lo, hi) = row_span(n, b, t);
            touch_band(lo, hi, Access::Write);
            for x in &mut store[lo..=hi] {
                *x = mix(*x, acc);
                acc = mix(acc, *x);
            }
            if writes {
                touch_slot::<Self>(n, b, t.s, t.k, Access::Write);
                slots[t.s][t.k] = acc;
            }
        }

        fn finish(store: Vec<u64>, slots: Vec<Vec<u64>>) -> Self::Output {
            (store, slots)
        }
    }

    fn toy_store(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    /// The toy's serial loop: every task in submission order.
    fn serial(n: usize, b: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
        let (mut store, mut slots) = (toy_store(n), Toy::new_slots(n, b));
        for t in tasks::<Toy>(n, b) {
            Toy::run_task(&mut store, &mut slots, b, t);
        }
        (store, slots)
    }

    fn run_toy(n: usize, b: usize, sched: Scheduler) -> Result<(Vec<u64>, Vec<Vec<u64>>), String> {
        run::<Toy>(toy_store(n), n, b, sched, &|| false, |_| Ok(serial(n, b)))
    }

    #[test]
    fn single_worker_schedules_match_serial() {
        // One worker per scheduler: the interleaving-free runs Miri
        // checks the engine's `unsafe` access under.
        let (n, b) = (11, 3);
        let want = serial(n, b);
        for sched in [
            Scheduler::Serial,
            Scheduler::Static(1),
            Scheduler::Dynamic(1),
        ] {
            assert_eq!(run_toy(n, b, sched).unwrap(), want, "{sched:?}");
        }
        let plan = Schedule::<Toy>::new(n, b, 1);
        let got = run_static::<Toy>(toy_store(n), n, b, &plan, &|| false).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Stacked Borrows rejects two workers' live `&mut` to one cell even when their \
                  declared regions are disjoint; TSan runs the multi-worker interleavings"
    )]
    fn multi_worker_schedules_match_serial() {
        for (n, b) in [(20, 3), (13, 2), (9, 8)] {
            let want = serial(n, b);
            for sched in [Scheduler::Static(3), Scheduler::Dynamic(4)] {
                assert_eq!(run_toy(n, b, sched).unwrap(), want, "{sched:?} n={n} b={b}");
            }
        }
    }

    #[test]
    fn trivial_shapes_have_no_tasks() {
        for (n, b) in [(0, 3), (2, 3), (7, 1), (7, 0)] {
            assert!(tasks::<Toy>(n, b).is_empty());
            assert!(task_specs::<Toy>(n, b).is_empty());
        }
    }

    #[test]
    fn owners_round_robin_over_sweeps() {
        let (n, b) = (12, 3);
        let owners = task_owners::<Toy>(n, b, 3);
        for (t, w) in tasks::<Toy>(n, b).iter().zip(&owners) {
            assert_eq!(*w, t.s % 3);
        }
        let plan = Schedule::<Toy>::new(n, b, 3);
        assert_eq!((plan.n(), plan.bandwidth(), plan.threads()), (n, b, 3));
    }

    #[test]
    #[should_panic(expected = "static schedule shape mismatch")]
    fn static_plan_of_another_shape_is_refused() {
        let plan = Schedule::<Toy>::new(10, 3, 2);
        let _ = run_static::<Toy>(toy_store(11), 11, 3, &plan, &|| false);
    }

    #[test]
    fn conformance_suite_holds_for_the_toy() {
        conformance::graph_certified_race_free::<Toy>(&[(20, 3), (13, 2)], &[1, 2, 3]);
        conformance::exact_spans_drop_spurious_same_sweep_edges::<Toy>();
        conformance::deleted_edge_caught_by_graphcheck::<Toy>();
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "multi-worker run, see multi_worker_schedules_match_serial"
    )]
    fn scheduled_toy_runs_are_shadow_checked() {
        conformance::scheduled_runs_validate_touches::<Toy>(toy_store(20), 20, 3);
        let scheduled = |sched| {
            move |stop: &Arc<AtomicBool>| {
                let poll = || stop.load(Ordering::Acquire);
                run::<Toy>(toy_store(40), 40, 3, sched, &poll, |_| unreachable!())
            }
        };
        conformance::cancel_during_scheduled_chase(
            || Arc::new(AtomicBool::new(false)),
            |stop| stop.store(true, Ordering::Release),
            &[
                &scheduled(Scheduler::Dynamic(4)),
                &scheduled(Scheduler::Static(3)),
            ],
        );
        if shadow::enabled() {
            conformance::narrowed_declaration_caught::<Toy>(toy_store(18), 18, 3);
        }
    }
}
