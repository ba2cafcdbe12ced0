//! Untraced execution: the solver calls a user makes, timed end to end,
//! with every output checked afterwards.

use crate::check::{self, Accuracy, Checked};
use crate::trace::Tracer;
use crate::workload::{self, PassInputs, Sizes, Workload, EIG_VALUES_POOL};
use std::rc::Rc;
use std::time::Instant;
use tseig_core::{BatchDriver, Scheduler, SymmetricEigen, TwoStageResult};
use tseig_hermitian::{HermitianEigen, HermitianResult};
use tseig_matrix::{Matrix, Result};
use tseig_svd::{GeSvd, Svd, SvdBatch};
use tseig_tridiag::PhaseTimings;

/// Workers of the `batch_mixed` pools.
pub const POOL_THREADS: usize = 2;

/// The solver configurations the workloads use, built once per process.
pub struct Drivers {
    pub eig_vectors: SymmetricEigen,
    pub eig_values: SymmetricEigen,
    pub svd: GeSvd,
    pub pool: BatchDriver,
    pub svd_pool: SvdBatch,
    pub herm: HermitianEigen,
}

impl Default for Drivers {
    fn default() -> Self {
        Drivers::new()
    }
}

impl Drivers {
    pub fn new() -> Drivers {
        Drivers {
            eig_vectors: SymmetricEigen::new(),
            eig_values: SymmetricEigen::new()
                .vectors(false)
                .scheduler(scheduler(Workload::EigValues)),
            svd: GeSvd::new(),
            pool: BatchDriver::new(SymmetricEigen::new()).threads(POOL_THREADS),
            svd_pool: SvdBatch::new(GeSvd::new()).threads(POOL_THREADS),
            herm: HermitianEigen::new(),
        }
    }

    /// The eig driver of an eig workload.
    pub fn eigen(&self, w: Workload) -> &SymmetricEigen {
        match w {
            Workload::EigValues => &self.eig_values,
            _ => &self.eig_vectors,
        }
    }
}

/// Stage-2 scheduler of an eig workload.
pub fn scheduler(w: Workload) -> Scheduler {
    match w {
        Workload::EigValues => Scheduler::Static(2),
        _ => Scheduler::Serial,
    }
}

/// One timed unit of a workload: a solve, or a pass of `batch_mixed`.
pub enum Unit {
    Eig {
        a: Rc<Matrix>,
        truth: Option<Rc<Vec<f64>>>,
    },
    Svd(Matrix),
    Pass(PassInputs),
}

/// The seed's unit stream of one workload.
pub struct Stream {
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    pool: Vec<(Rc<Matrix>, Rc<Vec<f64>>)>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, sizes: Sizes) -> Stream {
        Stream {
            workload,
            seed,
            sizes,
            pool: Vec::new(),
        }
    }

    /// Unit `i` (built outside any timed interval).
    pub fn unit(&mut self, i: usize) -> Unit {
        let (seed, n) = (self.seed, self.sizes.n);
        match self.workload {
            Workload::EigVectors => Unit::Eig {
                a: Rc::new(workload::eig_vectors_input(seed, n, i)),
                truth: None,
            },
            Workload::EigValues => {
                let k = i % EIG_VALUES_POOL;
                while self.pool.len() <= k {
                    let (a, l) = workload::eig_values_input(seed, n, self.pool.len());
                    self.pool.push((Rc::new(a), Rc::new(l)));
                }
                let (a, l) = &self.pool[k];
                Unit::Eig {
                    a: a.clone(),
                    truth: Some(l.clone()),
                }
            }
            Workload::SvdVectors => Unit::Svd(workload::svd_vectors_input(seed, n, i)),
            Workload::BatchMixed => Unit::Pass(PassInputs::build(&workload::batch_pass(
                seed,
                i,
                &self.sizes,
            ))),
        }
    }
}

/// What one unit did: its timed wall time, requests and failures, the
/// worst accuracy among its correct requests, and the solver's own phase
/// timings for an eig solve.
#[derive(Clone, Debug, Default)]
pub struct Done {
    pub seconds: f64,
    pub requests: u64,
    pub failed: u64,
    pub acc: Accuracy,
    pub phases: Option<PhaseTimings>,
}

impl Done {
    pub fn tally(&mut self, c: Checked) {
        self.requests += 1;
        match c {
            Some(a) => self.acc.merge(a),
            None => self.failed += 1,
        }
    }
}

/// Wall time of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run one unit the way a user would, then check it.
pub fn run_unit(w: Workload, d: &Drivers, u: &Unit) -> Done {
    match u {
        Unit::Eig { a, truth } => {
            let eigen = d.eigen(w);
            let (r, seconds) = timed(|| eigen.solve(a));
            let mut done = Done {
                seconds,
                phases: r.as_ref().ok().map(|r| r.timings),
                ..Done::default()
            };
            done.tally(check::eig_result(
                a,
                &r,
                w == Workload::EigVectors,
                truth.as_deref().map(|t| t.as_slice()),
            ));
            done
        }
        Unit::Svd(a) => {
            let (r, seconds) = timed(|| d.svd.solve(a));
            let mut done = Done {
                seconds,
                ..Done::default()
            };
            done.tally(check::svd(a, &r));
            done
        }
        Unit::Pass(p) => {
            let out = run_pass(d, p, None, 0);
            let mut done = Done {
                seconds: out.walls.iter().sum(),
                ..Done::default()
            };
            check_pass(p, &out, &mut done);
            done
        }
    }
}

/// Results of one `batch_mixed` pass and the wall time of each entry
/// point (eig pool, gen pool, svd pool, Hermitian loop).
pub struct PassOut {
    pub eig: Vec<Result<TwoStageResult>>,
    pub gen: Vec<Result<TwoStageResult>>,
    pub svd: Vec<Result<Svd>>,
    pub herm: Vec<Result<HermitianResult>>,
    pub walls: [f64; 4],
}

/// Span names of the four pass entry points, in [`PassOut::walls`] order.
pub const PASS_SPANS: [&str; 4] = [
    "core.batch.eig",
    "core.batch.gen",
    "core.batch.svd",
    "core.batch.herm",
];

/// Issue one pass the way `tseig batch` does: the real requests through
/// the worker pools, the complex ones one at a time. With a tracer, each
/// entry point call is a span of request `req`.
pub fn run_pass(d: &Drivers, p: &PassInputs, mut tr: Option<&mut Tracer>, req: u64) -> PassOut {
    fn call<R>(
        tr: &mut Option<&mut Tracer>,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        match tr {
            Some(tr) => tr.span(name, req, |_| timed(f)),
            None => timed(f),
        }
    }
    let (eig, w0) = call(&mut tr, PASS_SPANS[0], req, || d.pool.solve_all(&p.eig));
    let (gen, w1) = call(&mut tr, PASS_SPANS[1], req, || {
        d.pool.solve_all_generalized(&p.gen)
    });
    let (svd, w2) = call(&mut tr, PASS_SPANS[2], req, || d.svd_pool.solve_all(&p.svd));
    let (herm, w3) = call(&mut tr, PASS_SPANS[3], req, || {
        p.herm.iter().map(|a| d.herm.solve(a)).collect::<Vec<_>>()
    });
    PassOut {
        eig,
        gen,
        svd,
        herm,
        walls: [w0, w1, w2, w3],
    }
}

/// Check every request of a pass.
pub fn check_pass(p: &PassInputs, out: &PassOut, done: &mut Done) {
    for (a, r) in p.eig.iter().zip(&out.eig) {
        done.tally(check::eig_result(a, r, true, None));
    }
    for ((a, b), r) in p.gen.iter().zip(&out.gen) {
        done.tally(check::gen(a, b, r));
    }
    for (a, r) in p.svd.iter().zip(&out.svd) {
        done.tally(check::svd(a, r));
    }
    for (a, r) in p.herm.iter().zip(&out.herm) {
        done.tally(check::herm(a, r));
    }
    let missing = p.len() - (out.eig.len() + out.gen.len() + out.svd.len() + out.herm.len());
    done.requests += missing as u64;
    done.failed += missing as u64;
}

/// Untraced measurement of one run.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Wall time of unit 0, the cold first unit of the process.
    pub cold_s: f64,
    /// Peak resident memory (MiB) of the process after unit 0.
    pub cold_rss_mib: f64,
    /// Wall times of the warm units.
    pub samples: Vec<f64>,
    /// Correct requests among the warm units.
    pub correct_warm: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Worst accuracy over the workload's accuracy units.
    pub acc: Accuracy,
}

impl Measured {
    pub fn throughput(&self) -> f64 {
        let wall: f64 = self.samples.iter().sum();
        if wall > 0.0 {
            self.correct_warm as f64 / wall
        } else {
            0.0
        }
    }
}

/// Run the cold unit 0, then warm units until their timed wall time
/// reaches `seconds` and at least the accuracy units (and 3 warm samples)
/// are done.
pub fn measure(w: Workload, seed: u64, seconds: f64, sizes: Sizes) -> Measured {
    let d = Drivers::new();
    let mut stream = Stream::new(w, seed, sizes);
    let min_units = w.accuracy_units().max(4);
    let mut m = Measured::default();
    let mut i = 0;
    while i < min_units || m.samples.iter().sum::<f64>() < seconds {
        let unit = stream.unit(i);
        let done = run_unit(w, &d, &unit);
        if i == 0 {
            m.cold_s = done.seconds;
            m.cold_rss_mib = crate::peak_rss_mib();
        } else {
            m.samples.push(done.seconds);
            m.correct_warm += done.requests - done.failed;
        }
        if i < w.accuracy_units() {
            m.acc.merge(done.acc);
        }
        m.attempted += done.requests;
        m.failed += done.failed;
        i += 1;
    }
    m
}

/// Set-up time of a fresh process: the wall time of its cold unit 0.
pub fn setup(w: Workload, seed: u64, sizes: Sizes) -> Done {
    let d = Drivers::new();
    let unit = Stream::new(w, seed, sizes).unit(0);
    run_unit(w, &d, &unit)
}
