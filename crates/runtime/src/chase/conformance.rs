//! The engine's safety-net checks, written once and generic over the
//! [`Builder`]. Each chase instantiates them in its own tests with its
//! real kernels and stores; the runtime's tests run them on a toy
//! builder.
//!
//! Two of them are acceptance mutations: they break the protocol on
//! purpose and require that the net catches it. `xtask graphcheck` must
//! flag a deleted dependence edge; the shadow checker must flag a
//! declaration narrowed below what the kernels touch.

use super::{
    row_span, run_dynamic, task_owners, task_regions, task_specs, tasks, Builder, Task, BAND_SPACE,
};
use crate::exec::STOPPED_BY_POLL;
use crate::graph::Region;
use crate::{shadow, verify};

/// The checks `xtask graphcheck` runs over its sweep, pinned on a few
/// instances: conflict-pair dependence coverage, acyclicity, priority
/// sanity, and static/dynamic consistency for each worker count.
pub fn graph_certified_race_free<B: Builder>(instances: &[(usize, usize)], threads: &[usize]) {
    for &(n, b) in instances {
        let specs = task_specs::<B>(n, b);
        assert!(!specs.is_empty(), "no tasks for (n={n}, b={b})");
        let sum = verify::check_graph(&specs);
        assert!(sum.ok(), "(n={n}, b={b}): {:?}", sum.violations);
        for &t in threads {
            let st = verify::check_static(&specs, &task_owners::<B>(n, b, t), t);
            assert!(st.ok(), "(n={n}, b={b}, t={t}): {:?}", st.violations);
        }
    }
}

/// Tasks `(s, k)` and `(s, k + 2)` are disjoint: spans
/// `[s+1+(k-1)b, s+(k+1)b]` and `[s+1+(k+1)b, s+(k+3)b]`. A declaration
/// rounded to `b`-chunk tile boundaries would share the chunk at
/// `s+(k+1)b` and serialize them; the exact spans must not.
pub fn exact_spans_drop_spurious_same_sweep_edges<B: Builder>() {
    let (n, b) = (20, 3);
    let all = tasks::<B>(n, b);
    let id = |s: usize, k: usize| all.iter().position(|&t| t == Task { s, k }).unwrap();
    let specs = task_specs::<B>(n, b);
    let edges = verify::infer_edges(&specs);
    // The chain within the sweep is intact...
    assert!(edges[id(0, 1)].contains(&id(0, 2)));
    // ...but the disjoint (s, k) -> (s, k + 2) pair carries no edge and
    // is not even a conflict.
    assert!(!edges[id(0, 1)].contains(&id(0, 3)));
    assert!(!verify::conflict_pairs(&specs)
        .iter()
        .any(|&(i, j, _)| (i, j) == (id(0, 1), id(0, 3))));
    // Cross-sweep ordering survives: the next sweep's head overlaps this
    // sweep's early spans.
    assert!(edges[id(0, 1)].contains(&id(1, 0)) || edges[id(0, 2)].contains(&id(1, 0)));
}

/// Acceptance mutation: remove one real dependence edge between adjacent
/// conflicting tasks (adjacent ids have no intermediate path). Conflict
/// coverage must fail.
pub fn deleted_edge_caught_by_graphcheck<B: Builder>() {
    let (n, b) = (16, 3);
    let specs = task_specs::<B>(n, b);
    let mut edges = verify::infer_edges(&specs);
    let victim = (0..specs.len() - 1)
        .find(|&i| edges[i].contains(&(i + 1)))
        .expect("some adjacent pair must be directly ordered");
    edges[victim].retain(|&v| v != victim + 1);
    let sum = verify::check_graph_with_edges(&specs, &edges);
    assert!(
        sum.violations.iter().any(|v| matches!(
            v,
            verify::Violation::UncoveredConflict { first, second, .. }
                if *first == victim && *second == victim + 1
        )),
        "deleted edge not caught: {:?}",
        sum.violations
    );
}

/// Acceptance mutation: narrow the declared band span of task `(2, 1)`
/// by its last row. graphcheck cannot see this (it compares declarations
/// with declarations); the shadow checker compares them with the touches
/// the kernels make and must abort the run. One worker keeps the mutated
/// graph's execution deterministic and race-free. Debug builds only: the
/// checker compiles out of release.
pub fn narrowed_declaration_caught<B: Builder>(store: B::Store, n: usize, b: usize) {
    assert!(shadow::enabled(), "the shadow checker is compiled out");
    let victim = Task { s: 2, k: 1 };
    let (lo, hi) = row_span(n, b, victim);
    assert!(hi > lo + 1, "victim span too short to narrow");
    let regions = |t: Task| {
        let mut r = task_regions::<B>(n, b, t);
        if t == victim {
            r[0].0 = Region::span(BAND_SPACE, lo as u64, hi as u64);
        }
        r
    };
    let err = match run_dynamic::<B>(store, n, b, 1, &regions, &|| false) {
        Ok(_) => panic!("narrowed declaration not caught"),
        Err(e) => e,
    };
    assert!(
        err.contains("outside its declared footprint"),
        "expected a shadow violation, got: {err}"
    );
}

/// The shadow checker must actually be exercised by scheduled runs:
/// every storage access in a debug run is validated and counted; release
/// builds compile the checker out and count 0.
pub fn scheduled_runs_validate_touches<B: Builder>(store: B::Store, n: usize, b: usize) {
    let regions = |t| task_regions::<B>(n, b, t);
    let Ok((_, _, stats)) = run_dynamic::<B>(store, n, b, 2, &regions, &|| false) else {
        panic!("scheduled run failed");
    };
    if shadow::enabled() {
        assert!(stats.shadow_touches > 0, "instrumentation went dead");
    } else {
        assert_eq!(stats.shadow_touches, 0);
    }
}

/// One scheduled path for [`cancel_during_scheduled_chase`]: the
/// builder's own entry point, run with the stop handle it is given.
pub type StopRun<'a, H, T> = &'a dyn Fn(&H) -> Result<T, String>;

/// A stop raised mid-chase from a sibling thread must drain the pool (no
/// hang, no partial-result corruption) on every scheduled path; a stop
/// raised before the run must end it before any real work.
///
/// Each entry of `runs` is one scheduled path through the builder's own
/// entry point (e.g. `reduce_scheduled` under `Dynamic(4)`), wired to
/// the stop handle it is given. `new_stop` makes an unraised handle (a
/// `CancelToken` in a `Ctrl` for the real builders), and `raise` fires
/// it. Run under TSan in CI: the raise races the worker polls by design,
/// and the handle's atomics must make that race benign.
pub fn cancel_during_scheduled_chase<H, T>(
    new_stop: impl Fn() -> H,
    raise: fn(&H),
    runs: &[StopRun<H, T>],
) where
    H: Clone + Send + 'static,
{
    for (path, run) in runs.iter().enumerate() {
        let stop = new_stop();
        let raiser = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                raise(&stop);
            })
        };
        // Either outcome is legal (the chase may finish first); what
        // matters is termination and a clean drain, which TSan and the
        // shadow checker audit.
        let _ = run(&stop);
        raiser.join().unwrap();

        let pre = new_stop();
        raise(&pre);
        let err = match run(&pre) {
            Err(e) => e,
            Ok(_) => panic!("pre-stopped chase must not succeed (path {path})"),
        };
        assert_eq!(err, STOPPED_BY_POLL, "path {path}");
    }
}
