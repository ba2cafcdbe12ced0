//! Deterministic fault injection through the SVD recovery ladder.
//!
//! Built only with `--features chaos` (see the `[[test]]` entry in
//! `crates/svd/Cargo.toml`). Same contract as the core ladder tests:
//! an injected failure either *recovers* — result within bounds, the
//! detour recorded in `SolveDiagnostics` — or surfaces as a structured
//! `Error`; no panic escapes the driver.

use std::sync::Mutex;
use tseig_matrix::chaos::{self, Plan, Site};
use tseig_matrix::diagnostics::Recovery;
use tseig_matrix::{norms, Error, Matrix};
use tseig_svd::drivers::{svd_residual, GeSvd, Svd, SvdMethod};
use tseig_svd::gesvd;
use tseig_svd::Scheduler;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn with_plan<T>(plan: Plan, f: impl FnOnce() -> T) -> T {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    struct ResetOnDrop;
    impl Drop for ResetOnDrop {
        fn drop(&mut self) {
            chaos::reset();
        }
    }
    let _reset = ResetOnDrop;
    chaos::install(plan);
    f()
}

fn rand_mat(m: usize, n: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
}

fn result_ok(a: &Matrix, svd: &Svd) {
    assert!(
        svd_residual(a, svd) < 500.0,
        "residual {}",
        svd_residual(a, svd)
    );
    assert!(norms::orthogonality(&svd.u) < 500.0);
    assert!(norms::orthogonality(&svd.v) < 500.0);
}

fn has<F: Fn(&Recovery) -> bool>(svd: &Svd, pred: F) -> bool {
    svd.diagnostics.recoveries.iter().any(pred)
}

/// An injected `bdsqr` iteration-cap failure is absorbed by the
/// perturbed retry on the one-stage pipeline.
#[test]
fn bdsqr_stall_recovers_one_stage() {
    let a = rand_mat(24, 20, 1);
    let plan = Plan::new().with(Site::BdsqrNoConv, 1);
    let svd = with_plan(plan, || {
        gesvd(&a).expect("perturbed retry must rescue bdsqr")
    });
    assert!(svd.diagnostics.degraded);
    assert!(
        has(&svd, |x| matches!(x, Recovery::BdsqrPerturbedRetry { .. })),
        "{:?}",
        svd.diagnostics.recoveries
    );
    result_ok(&a, &svd);
}

/// Same rung on the two-stage pipeline, under every scheduler.
#[test]
fn bdsqr_stall_recovers_two_stage() {
    for sched in [
        Scheduler::Serial,
        Scheduler::Static(3),
        Scheduler::Dynamic(4),
    ] {
        let a = rand_mat(26, 26, 2);
        let plan = Plan::new().with(Site::BdsqrNoConv, 1);
        let svd = with_plan(plan, || {
            GeSvd::new()
                .method(SvdMethod::TwoStage)
                .nb(4)
                .scheduler(sched)
                .solve(&a)
                .expect("perturbed retry must rescue bdsqr")
        });
        assert!(svd.diagnostics.degraded, "{sched:?}");
        assert!(
            has(&svd, |x| matches!(x, Recovery::BdsqrPerturbedRetry { .. })),
            "{sched:?}: {:?}",
            svd.diagnostics.recoveries
        );
        result_ok(&a, &svd);
    }
}

/// Two injected stalls exhaust the single retry: structured error, no
/// panic.
#[test]
fn bdsqr_double_stall_is_a_structured_error() {
    let a = rand_mat(16, 16, 3);
    let plan = Plan::new().with(Site::BdsqrNoConv, 2);
    let err = with_plan(plan, || {
        gesvd(&a).expect_err("exhausted retries must surface as an error")
    });
    assert!(
        matches!(err, Error::NoConvergence { .. }),
        "expected NoConvergence, got {err:?}"
    );
}

/// A worker panic inside the scheduled bulge chase falls back to the
/// serial chase and is recorded.
#[test]
fn chase_task_panic_falls_back_to_serial() {
    let a = rand_mat(30, 30, 4);
    let plan = Plan::new().with(Site::TaskPanic, 1);
    let svd = with_plan(plan, || {
        GeSvd::new()
            .method(SvdMethod::TwoStage)
            .nb(4)
            .scheduler(Scheduler::Dynamic(4))
            .solve(&a)
            .expect("serial fallback must rescue the chase")
    });
    if chaos::reached(Site::TaskPanic) > 0 {
        assert!(
            has(&svd, |x| matches!(x, Recovery::SchedulerFallback { .. })),
            "{:?}",
            svd.diagnostics.recoveries
        );
        assert!(svd.diagnostics.degraded);
    }
    result_ok(&a, &svd);
}

/// One poisoned request in a stream of solves degrades alone: the other
/// requests come out clean (the ladder does not leak state across
/// solves).
#[test]
fn single_poisoned_solve_degrades_alone() {
    let inputs: Vec<Matrix> = (0..4).map(|s| rand_mat(18, 18, 50 + s)).collect();
    let plan = Plan::new().with(Site::BdsqrNoConv, 1);
    let results: Vec<Svd> = with_plan(plan, || {
        inputs
            .iter()
            .map(|a| gesvd(a).expect("no request may fail outright"))
            .collect()
    });
    let mut degraded = 0usize;
    for (a, svd) in inputs.iter().zip(&results) {
        result_ok(a, svd);
        if svd.diagnostics.degraded {
            degraded += 1;
            assert!(has(svd, |x| matches!(
                x,
                Recovery::BdsqrPerturbedRetry { .. }
            )));
        }
    }
    assert_eq!(degraded, 1, "exactly the injected failure degrades");
}
