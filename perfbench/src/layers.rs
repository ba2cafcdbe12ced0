//! The traced run: each layer's public entry point called from outside,
//! with the arguments the drivers pass, inside a span.
//!
//! A workload's own requests are traced layer by layer and interleaved
//! with untraced solves of the same inputs, which give the tracing
//! overhead and the cross-check that the layer spans account for the
//! untraced solve. Layers the workload's own requests do not run are
//! measured on a reference probe of order `Sizes::probe_n` (an eig solve
//! with vectors, an SVD with vectors, one mixed batch pass), so every
//! traced run reports every per-layer metric.

use crate::check;
use crate::pipeline::{self, timed, Done, Drivers, Stream, Unit, PASS_SPANS, POOL_THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, PassInputs, Sizes, Workload};
use std::collections::BTreeMap;
use std::time::Duration;
use tseig_core::backtransform::{apply_q, apply_q_ws, BtPlan};
use tseig_core::generalized::solve_generalized;
use tseig_core::stage1::{sy2sb_ws, BandForm, Stage1Ws};
use tseig_core::stage2::{reduce_scheduled, reduce_static_prepared, Stage2Exec, Stage2Schedule};
use tseig_core::{Scheduler, SolvePlan, SymmetricEigen};
use tseig_kernels::blas3::{self, Trans};
use tseig_kernels::householder::larf_left;
use tseig_kernels::{flops, scaling};
use tseig_matrix::{Ctrl, Error, GeBandMatrix, Matrix, Recorder, Result, SymBandMatrix};
use tseig_onestage::bidiagonal::gebrd;
use tseig_onestage::{syev, OneStageOptions};
use tseig_svd::stage1::{apply_p1, apply_q1, ge2bb_with};
use tseig_svd::stage2 as svd_chase;
use tseig_svd::{bdsqr::bdsqr_with, GeSvd, Svd, SvdMethod};
use tseig_tridiag::{EigenRange, Method, PhaseTimings};

/// `SymmetricEigen`'s default band width and diamond grouping.
const NB: usize = 48;
const ELL: usize = NB / 2;
/// `GeSvd`'s default band width.
const SVD_NB: usize = 32;
/// Request ids at and above this belong to the reference probe.
pub const PROBE: u64 = 1 << 32;
/// Largest share of the untraced solve by which the layer spans, and
/// each span against the solver's own phase timing, may disagree.
pub const COVERAGE_TOLERANCE: f64 = 0.25;

/// Layer spans of one eig solve, in pipeline order.
pub const EIG_LAYERS: [&str; 5] = [
    "core.screen",
    "core.stage1",
    "core.stage2",
    "tridiag",
    "core.backtransform",
];
/// Layer spans of one default (one-stage) SVD with vectors.
pub const SVD_LAYERS: [&str; 4] = [
    "svd.prepare",
    "onestage.gebrd",
    "svd.onestage.bdsqr",
    "svd.onestage.bt",
];

/// Metric name -> (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Result of a traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Cross-check findings; empty when the spans account for the solve.
    pub mismatches: Vec<String>,
    pub tracer: Tracer,
}

/// Traced two-stage eig solve, layer by layer, as `SymmetricEigen::solve`
/// runs it with a fresh plan (`nb = 48`, D&C, all eigenpairs).
pub fn eig(
    tr: &mut Tracer,
    req: u64,
    a: &Matrix,
    vectors: bool,
    sched: Scheduler,
) -> Result<(Vec<f64>, Option<Matrix>, SymBandMatrix)> {
    tr.span("core.solve", req, |tr| {
        let ctrl = Ctrl::NONE;
        let n = a.rows();
        let serial = sched == Scheduler::Serial;
        tr.span(EIG_LAYERS[0], req, |_| scaling::screen_symmetric(a))?;
        let mut work = Matrix::zeros(0, 0);
        let mut bf = BandForm {
            band: SymBandMatrix::zeros(0, 0, 0),
            panels: Vec::new(),
            nb: 0,
        };
        let mut ws = Stage1Ws::new();
        tr.span(EIG_LAYERS[1], req, |_| {
            sy2sb_ws(a, NB, 0, !serial, &mut work, &mut bf, &mut ws, &ctrl)
        })?;
        let c = tr
            .span(EIG_LAYERS[2], req, |_| match sched {
                Scheduler::Serial => reduce_scheduled(bf.band.clone(), Stage2Exec::Serial, &ctrl),
                Scheduler::Static(t) => {
                    let s = Stage2Schedule::new(n, bf.band.bandwidth(), t);
                    reduce_static_prepared(bf.band.clone(), &s, &ctrl)
                }
                Scheduler::Dynamic(t) => {
                    reduce_scheduled(bf.band.clone(), Stage2Exec::Dynamic(t), &ctrl)
                }
            })
            .map_err(Error::Runtime)?;
        let rec = Recorder::new();
        let sol = tr.span(EIG_LAYERS[3], req, |_| {
            tseig_tridiag::solve_with_diag(
                &c.tridiagonal,
                Method::DivideAndConquer,
                EigenRange::All,
                vectors,
                &rec,
                &ctrl,
            )
        })?;
        let z = match (vectors, sol.eigenvectors) {
            (false, _) => None,
            (true, None) => {
                return Err(Error::Runtime(
                    "tridiagonal solve returned no vectors".into(),
                ))
            }
            (true, Some(mut z)) => {
                tr.span(EIG_LAYERS[4], req, |_| {
                    if serial {
                        apply_q_ws(&c.v2, &bf.panels, &mut z, ELL, 0, &mut BtPlan::new(), &ctrl)
                    } else {
                        apply_q(&c.v2, &bf.panels, &mut z, ELL, 0);
                        Ok(())
                    }
                })?;
                Some(z)
            }
        };
        Ok((sol.eigenvalues, z, bf.band))
    })
}

/// Traced default SVD with vectors: the one-stage route `GeSvd`'s `Auto`
/// takes for vector solves (`gebrd`, `bdsqr`, reflector back-transform).
pub fn svd_one_stage(tr: &mut Tracer, req: u64, a: &Matrix) -> Result<Svd> {
    tr.span("svd.solve", req, |tr| {
        let ctrl = Ctrl::NONE;
        let n = a.cols();
        let mut work = tr.span(SVD_LAYERS[0], req, |_| {
            scaling::screen_general(a).map(|_| a.clone())
        })?;
        let (tauq, taup, mut d, mut e) = tr.span(SVD_LAYERS[1], req, |_| gebrd(&mut work));
        let mut ub = Matrix::identity(n);
        let mut vb = Matrix::identity(n);
        tr.span(SVD_LAYERS[2], req, |_| {
            bdsqr_with(&mut d, &mut e, Some(&mut ub), Some(&mut vb), &ctrl)
        })?;
        let (u, v) = tr.span(SVD_LAYERS[3], req, |_| {
            one_stage_vectors(&work, &tauq, &taup, &ub, &vb)
        });
        Ok(Svd {
            u,
            s: d,
            v,
            diagnostics: Default::default(),
        })
    })
}

/// `U = Q [Ub; 0]`, `V = P Vb` from `gebrd`'s reflectors, as the SVD
/// driver forms them.
fn one_stage_vectors(
    fac: &Matrix,
    tauq: &[f64],
    taup: &[f64],
    ub: &Matrix,
    vb: &Matrix,
) -> (Matrix, Matrix) {
    let (m, n) = (fac.rows(), fac.cols());
    let lda = fac.ld();
    let mut u = Matrix::zeros(m, n);
    u.set_sub_matrix(0, 0, ub);
    let mut work = vec![0.0f64; n.max(m)];
    let mut uvec = vec![0.0f64; m];
    for j in (0..n).rev() {
        if tauq[j] == 0.0 {
            continue;
        }
        let rows = m - j;
        uvec[0] = 1.0;
        for (r, x) in uvec[1..rows].iter_mut().enumerate() {
            *x = fac.as_slice()[j + 1 + r + j * lda];
        }
        let ldu = u.ld();
        larf_left(
            &uvec[..rows],
            tauq[j],
            rows,
            n,
            &mut u.as_mut_slice()[j..],
            ldu,
            &mut work,
        );
    }
    let mut v = vb.clone();
    for j in (0..n.saturating_sub(1)).rev() {
        if taup[j] == 0.0 {
            continue;
        }
        let len = n - j - 1;
        uvec[0] = 1.0;
        for c in 1..len {
            uvec[c] = fac[(j, j + 1 + c)];
        }
        let ldv = v.ld();
        larf_left(
            &uvec[..len],
            taup[j],
            len,
            n,
            &mut v.as_mut_slice()[j + 1..],
            ldv,
            &mut work,
        );
    }
    (u, v)
}

/// Traced two-stage SVD with vectors (`SvdMethod::TwoStage`, serial chase).
pub fn svd_two_stage(tr: &mut Tracer, req: u64, a: &Matrix) -> Result<(Svd, GeBandMatrix)> {
    tr.span("svd.two_stage", req, |tr| {
        let ctrl = Ctrl::NONE;
        let n = a.cols();
        let work = tr.span("svd.two_stage.prepare", req, |_| {
            scaling::screen_general(a).map(|_| a.clone())
        })?;
        let form = tr.span("svd.ge2bb", req, |_| ge2bb_with(&work, SVD_NB, 0, &ctrl))?;
        let c = tr
            .span("svd.chase", req, |_| {
                svd_chase::reduce_scheduled(form.band.clone(), svd_chase::Stage2Exec::Serial, &ctrl)
            })
            .map_err(Error::Runtime)?;
        let (mut d, mut e) = (c.d.clone(), c.e.clone());
        let mut ub = Matrix::identity(n);
        let mut vb = Matrix::identity(n);
        tr.span("svd.bdsqr", req, |_| {
            bdsqr_with(&mut d, &mut e, Some(&mut ub), Some(&mut vb), &ctrl)
        })?;
        let (u, v) = tr.span("svd.bt", req, |_| {
            c.bv.apply_left(&mut ub);
            apply_q1(&form.qpanels, &mut ub);
            c.bv.apply_right(&mut vb);
            apply_p1(&form.ppanels, &mut vb);
            (ub, vb)
        });
        let svd = Svd {
            u,
            s: d,
            v,
            diagnostics: Default::default(),
        };
        Ok((svd, form.band))
    })
}

/// Traced `batch_mixed` pass: the four entry point calls of the
/// untraced pass inside `core.batch.pass`, then every request once more
/// on its own (`seq.*` spans) for the pool efficiency.
pub fn batch_pass(tr: &mut Tracer, req: u64, d: &Drivers, p: &PassInputs) -> Done {
    let out = tr.span("core.batch.pass", req, |tr| {
        pipeline::run_pass(d, p, Some(tr), req)
    });
    let mut done = Done {
        seconds: out.walls.iter().sum(),
        ..Done::default()
    };
    pipeline::check_pass(p, &out, &mut done);
    for a in &p.eig {
        tr.span("seq.eig", req, |_| d.eig_vectors.solve(a).map(drop))
            .ok();
    }
    for (a, b) in &p.gen {
        tr.span("seq.gen", req, |_| {
            solve_generalized(a, b, &d.eig_vectors).map(drop)
        })
        .ok();
    }
    for a in &p.svd {
        tr.span("seq.svd", req, |_| d.svd.solve(a).map(drop)).ok();
    }
    for a in &p.herm {
        tr.span("seq.herm", req, |_| d.herm.solve(a).map(drop)).ok();
    }
    done
}

/// Rate of a kernel call in Gflop/s: its flop count over the median of
/// repeated timings (at least 5 calls and 0.05 s).
fn rate(mut f: impl FnMut()) -> f64 {
    let (_, counts) = flops::measure(&mut f);
    let mut times = Vec::new();
    while times.len() < 5 || times.iter().sum::<f64>() < 0.05 {
        times.push(timed(&mut f).1);
    }
    counts.total() as f64 / median(&times) / 1e9
}

/// Median wall time of 3 calls of `f`.
fn median3(mut f: impl FnMut()) -> f64 {
    median(&(0..3).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

/// `(static, dynamic)` chase speedups: the serial time over each 2-worker
/// time, medians of 3 interleaved repetitions on copies of one band.
fn chase_speedups(serial: impl Fn(), stat: impl Fn(), dynamic: impl Fn()) -> (f64, f64) {
    let (mut ser, mut sta, mut dy) = (vec![], vec![], vec![]);
    for _ in 0..3 {
        ser.push(timed(&serial).1);
        sta.push(timed(&stat).1);
        dy.push(timed(&dynamic).1);
    }
    (median(&ser) / median(&sta), median(&ser) / median(&dy))
}

fn eig_chase_speedups(band: &SymBandMatrix) -> (f64, f64) {
    let ctrl = Ctrl::NONE;
    let sched = Stage2Schedule::new(band.n(), band.bandwidth(), 2);
    chase_speedups(
        || drop(reduce_scheduled(band.clone(), Stage2Exec::Serial, &ctrl)),
        || drop(reduce_static_prepared(band.clone(), &sched, &ctrl)),
        || {
            drop(reduce_scheduled(
                band.clone(),
                Stage2Exec::Dynamic(2),
                &ctrl,
            ))
        },
    )
}

fn svd_chase_speedups(band: &GeBandMatrix) -> (f64, f64) {
    use svd_chase::Stage2Exec as X;
    let ctrl = Ctrl::NONE;
    let sched = svd_chase::Stage2Schedule::new(band.n(), band.kl(), 2);
    chase_speedups(
        || drop(svd_chase::reduce_scheduled(band.clone(), X::Serial, &ctrl)),
        || {
            drop(svd_chase::reduce_static_prepared(
                band.clone(),
                &sched,
                &ctrl,
            ))
        },
        || {
            drop(svd_chase::reduce_scheduled(
                band.clone(),
                X::Dynamic(2),
                &ctrl,
            ))
        },
    )
}

/// Median duration and (deterministic) flops and bytes of the spans
/// named `name` among the workload's own requests or the probe's.
fn layer(tr: &Tracer, name: &str, own: bool) -> (f64, f64, f64) {
    let spans: Vec<_> = tr
        .named(name)
        .filter(|s| (s.request < PROBE) == own)
        .collect();
    let secs: Vec<f64> = spans.iter().map(|s| s.seconds()).collect();
    let last = spans.last();
    (
        median(&secs),
        last.map_or(0.0, |s| s.flops as f64),
        last.map_or(0.0, |s| s.bytes as f64),
    )
}

/// Median over the own requests of their summed `names` spans.
fn per_request_sum(tr: &Tracer, names: &[&str]) -> f64 {
    let mut by_req: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tr.spans() {
        if names.contains(&s.name) && s.request < PROBE {
            *by_req.entry(s.request).or_default() += s.seconds();
        }
    }
    median(&by_req.into_values().collect::<Vec<_>>())
}

/// State of one traced run.
struct Run<'a> {
    d: &'a Drivers,
    seed: u64,
    sizes: Sizes,
    tr: Tracer,
    m: Metrics,
    done: Done,
}

impl Run<'_> {
    fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.m.insert(name.into(), (value, unit));
    }

    fn dgemm(&self) -> f64 {
        self.m["kernels.dgemm.gflops"].0
    }

    /// Kernel rates at the shapes the workload's stage 1 and
    /// back-transform use, through the serial or rayon variants its
    /// thread budget selects.
    fn kernels(&mut self, parallel: bool) {
        let (n, seed) = (self.sizes.n, self.seed);
        let a = workload::general(n, n, seed);
        let b = workload::general(n, n, seed ^ 1);
        let mut c = Matrix::zeros(n, n);
        let gemm_sq = if parallel {
            blas3::gemm_par
        } else {
            blas3::gemm
        };
        let symm = if parallel {
            blas3::symm_lower_left_par
        } else {
            blas3::symm_lower_left
        };
        let syr2k = if parallel {
            blas3::syr2k_lower_par
        } else {
            blas3::syr2k_lower
        };
        let dgemm = rate(|| {
            gemm_sq(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            )
        });
        let s = rate(|| {
            symm(
                n,
                NB,
                1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            )
        });
        let r2 = rate(|| {
            syr2k(
                n,
                NB,
                -1.0,
                a.as_slice(),
                n,
                b.as_slice(),
                n,
                1.0,
                c.as_mut_slice(),
                n,
            )
        });
        // One diamond: ELL reflectors over NB + ELL rows, applied to a
        // 128-column panel (`backtransform::DEFAULT_PANEL_COLS`): the body
        // through two gemms, the unit-triangular top through trmm.
        let (k, body, cols) = (ELL, NB, 128);
        let v = workload::general(body, k, seed ^ 2);
        let l = workload::general(k, k, seed ^ 3);
        let mut panel = workload::general(body, cols, seed ^ 4);
        let mut w = Matrix::zeros(k, cols);
        let g = rate(|| {
            blas3::gemm(
                Trans::Yes,
                Trans::No,
                k,
                cols,
                body,
                1.0,
                v.as_slice(),
                body,
                panel.as_slice(),
                body,
                0.0,
                w.as_mut_slice(),
                k,
            );
            blas3::gemm(
                Trans::No,
                Trans::No,
                body,
                cols,
                k,
                -1e-3,
                v.as_slice(),
                body,
                w.as_slice(),
                k,
                1.0,
                panel.as_mut_slice(),
                body,
            );
        });
        let t = rate(|| {
            blas3::trmm_unit_lower_left(Trans::Yes, k, cols, l.as_slice(), k, w.as_mut_slice(), k)
        });
        self.set("kernels.dgemm.gflops", dgemm, "Gflop/s");
        for (name, gf) in [("symm", s), ("syr2k", r2), ("gemm", g), ("trmm", t)] {
            self.set(format!("kernels.{name}.gflops"), gf, "Gflop/s");
            self.set(format!("kernels.{name}.frac_dgemm"), gf / dgemm, "ratio");
        }
    }

    /// Plan footprint after warm-up, and the one-stage baseline at the
    /// same thread budget against the two-stage time `two_stage_s`, on
    /// matrix `a` under `eigen`'s configuration.
    fn eig_reference(
        &mut self,
        a: &Matrix,
        eigen: &SymmetricEigen,
        vectors: bool,
        truth: Option<&[f64]>,
        two_stage_s: f64,
    ) {
        let mut plan = SolvePlan::new();
        for _ in 0..2 {
            let r = eigen.solve_into(a, &mut plan).map(|()| plan.to_result());
            self.done.tally(check::eig_result(a, &r, vectors, truth));
        }
        self.set(
            "core.plan.footprint_mib",
            plan.footprint_bytes() as f64 / (1 << 20) as f64,
            "MiB",
        );
        let opts = OneStageOptions::default();
        let mut last = None;
        let one = median3(|| last = Some(syev(a, EigenRange::All, vectors, &opts)));
        if let Some(r) = last {
            let c = r
                .ok()
                .and_then(|r| check::eig(a, &r.eigenvalues, r.eigenvectors.as_ref(), truth));
            self.done.tally(c);
        }
        self.set("onestage.syev_s", one, "s");
        self.set("onestage.speedup", one / two_stage_s, "ratio");
    }

    /// Metrics of the eig layers, from the own spans or the probe's.
    fn eig_layers(&mut self, own: bool, bt_own: bool) {
        let dgemm = self.dgemm();
        let (s1, f1, b1) = layer(&self.tr, "core.stage1", own);
        let (s2, f2, _) = layer(&self.tr, "core.stage2", own);
        let td = layer(&self.tr, "tridiag", own).0;
        let (sb, fb, _) = layer(&self.tr, "core.backtransform", bt_own);
        self.set("core.stage1.s", s1, "s");
        self.set("core.stage1.flops", f1, "flop");
        self.set("core.stage1.gflops", f1 / s1 / 1e9, "Gflop/s");
        self.set("core.stage1.frac_dgemm", f1 / s1 / 1e9 / dgemm, "ratio");
        self.set(
            "core.stage1.intensity",
            if b1 > 0.0 { f1 / b1 } else { 0.0 },
            "flop/B",
        );
        self.set("core.stage2.s", s2, "s");
        self.set("core.stage2.flops", f2, "flop");
        self.set("tridiag.s", td, "s");
        self.set("core.backtransform.s", sb, "s");
        self.set("core.backtransform.flops", fb, "flop");
        self.set("core.backtransform.gflops", fb / sb / 1e9, "Gflop/s");
        self.set(
            "core.backtransform.frac_dgemm",
            fb / sb / 1e9 / dgemm,
            "ratio",
        );
    }

    /// Metrics of the SVD layers, from the own spans or the probe's, with
    /// the untraced default-route and two-stage times.
    fn svd_layers(&mut self, own: bool, auto_s: f64, two_s: f64) {
        self.set(
            "onestage.gebrd_s",
            layer(&self.tr, "onestage.gebrd", own).0,
            "s",
        );
        for span in ["svd.ge2bb", "svd.chase", "svd.bdsqr", "svd.bt"] {
            let s = layer(&self.tr, span, own).0;
            self.set(format!("{span}.s"), s, "s");
        }
        self.set("svd.two_stage_s", two_s, "s");
        self.set("svd.two_stage.speedup", auto_s / two_s, "ratio");
    }

    /// Metrics of the batch layers, from the own passes or the probe's.
    fn batch_layers(&mut self, own: bool) {
        let sel = |name: &str| -> Vec<f64> {
            self.tr
                .named(name)
                .filter(|s| (s.request < PROBE) == own)
                .map(|s| s.seconds())
                .collect()
        };
        let herm = median(&sel("seq.herm"));
        let gen = median(&sel("seq.gen"));
        let mut rps = Vec::new();
        let mut pooled_wall = 0.0;
        for (kind, span) in ["eig", "gen", "svd", "herm"].into_iter().zip(PASS_SPANS) {
            let wall: f64 = sel(span).iter().sum();
            rps.push((kind, sel(&format!("seq.{kind}")).len() as f64 / wall));
            if kind != "herm" {
                pooled_wall += wall;
            }
        }
        let seq: f64 = ["seq.eig", "seq.gen", "seq.svd"]
            .iter()
            .flat_map(|n| sel(n))
            .sum();
        self.set("hermitian.solve_s.p50", herm, "s");
        self.set("core.generalized.solve_s.p50", gen, "s");
        for (kind, r) in rps {
            self.set(format!("core.batch.{kind}.rps"), r, "1/s");
        }
        self.set(
            "core.batch.efficiency",
            seq / (POOL_THREADS as f64 * pooled_wall),
            "ratio",
        );
    }

    /// Eig probe: one traced order-`probe_n` solve with vectors, and with
    /// `reference` its untraced time and reference measurements.
    fn probe_eig(&mut self, reference: bool) -> Result<SymBandMatrix> {
        let a = workload::probe_symmetric(self.seed, self.sizes.probe_n);
        let (l, z, band) = eig(&mut self.tr, PROBE, &a, true, Scheduler::Serial)?;
        self.done.tally(check::eig(&a, &l, z.as_ref(), None));
        if reference {
            let d = self.d;
            let two = median3(|| drop(d.eig_vectors.solve(&a)));
            self.eig_reference(&a, &d.eig_vectors, true, None, two);
        }
        Ok(band)
    }

    /// SVD probe: one traced order-`probe_n` default and two-stage SVD,
    /// and their untraced times.
    fn probe_svd(&mut self) -> Result<()> {
        let a = workload::probe_general(self.seed, self.sizes.probe_n);
        let one = svd_one_stage(&mut self.tr, PROBE, &a);
        self.done.tally(check::svd(&a, &one));
        let two = svd_two_stage(&mut self.tr, PROBE, &a).map(|(s, _)| s);
        self.done.tally(check::svd(&a, &two));
        let d = self.d;
        let auto = median3(|| drop(d.svd.solve(&a)));
        let two_stage = GeSvd::new().method(SvdMethod::TwoStage);
        let two = median3(|| drop(two_stage.solve(&a)));
        self.svd_layers(false, auto, two);
        Ok(())
    }

    /// Batch probe: one traced pass of the probe's request stream.
    fn probe_batch(&mut self) {
        let reqs = workload::batch_pass(self.seed ^ PROBE, 0, &self.sizes);
        let pd = batch_pass(&mut self.tr, PROBE, self.d, &PassInputs::build(&reqs));
        self.done.requests += pd.requests;
        self.done.failed += pd.failed;
        self.batch_layers(false);
    }
}

/// Run the traced measurement of workload `w`.
pub fn traced(w: Workload, seed: u64, seconds: f64, sizes: Sizes) -> Result<Traced> {
    let d = Drivers::new();
    let mut run = Run {
        d: &d,
        seed,
        sizes,
        tr: Tracer::new(),
        m: Metrics::new(),
        done: Done::default(),
    };
    run.kernels(w.threads() > 1);

    // The workload's own requests: an untraced warm-up, then a traced and
    // an untraced solve of each unit.
    let mut stream = Stream::new(w, seed, sizes);
    let warm = pipeline::run_unit(w, &d, &stream.unit(0));
    run.done.requests += warm.requests;
    run.done.failed += warm.failed;
    let (mut untraced, mut phases) = (Vec::new(), Vec::new());
    let min_units = if w == Workload::SvdVectors { 1 } else { 2 };
    let mut spent = 0.0;
    let mut last_band = None;
    let mut i = 1;
    while untraced.len() < min_units || spent < seconds {
        let unit = stream.unit(i);
        let req = i as u64;
        let tr = &mut run.tr;
        let (traced_done, traced_s) = timed(|| match &unit {
            Unit::Eig { a, truth } => {
                let r = eig(
                    tr,
                    req,
                    a,
                    w == Workload::EigVectors,
                    pipeline::scheduler(w),
                );
                let mut td = Done::default();
                td.tally(r.as_ref().ok().and_then(|(l, z, _)| {
                    check::eig(a, l, z.as_ref(), truth.as_deref().map(|t| t.as_slice()))
                }));
                last_band = r.ok().map(|(_, _, b)| b);
                td
            }
            Unit::Svd(a) => {
                let mut td = Done::default();
                td.tally(check::svd(a, &svd_one_stage(tr, req, a)));
                td
            }
            Unit::Pass(p) => batch_pass(tr, req, &d, p),
        });
        let ud = pipeline::run_unit(w, &d, &unit);
        spent += traced_s + ud.seconds;
        untraced.push(ud.seconds);
        phases.extend(ud.phases);
        for x in [traced_done, ud] {
            run.done.requests += x.requests;
            run.done.failed += x.failed;
        }
        i += 1;
    }
    let untraced_p50 = median(&untraced);

    // Cross-check: the layer spans of a request against its untraced
    // solve, and each eig layer against the solver's phase timings.
    let mut mismatches = Vec::new();
    let (root, layers): (&str, &[&str]) = match w {
        Workload::EigVectors | Workload::EigValues => ("core.solve", &EIG_LAYERS),
        Workload::SvdVectors => ("svd.solve", &SVD_LAYERS),
        Workload::BatchMixed => ("core.batch.pass", &PASS_SPANS),
    };
    let span_sum = per_request_sum(&run.tr, layers);
    let coverage = span_sum / untraced_p50;
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        mismatches.push(format!(
            "layer spans sum to {span_sum:.4} s, untraced solve p50 is {untraced_p50:.4} s"
        ));
    }
    if !phases.is_empty() {
        let phase = |f: fn(&PhaseTimings) -> Duration| {
            median(
                &phases
                    .iter()
                    .map(|p| f(p).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        let expect = [
            ("core.stage1", phase(|p| p.stage1)),
            ("core.stage2", phase(|p| p.stage2)),
            ("tridiag", phase(|p| p.tridiag_solve)),
            ("core.backtransform", phase(|p| p.backtransform)),
        ];
        for (name, want) in expect {
            let got = layer(&run.tr, name, true).0;
            if (got - want).abs() > COVERAGE_TOLERANCE * untraced_p50 {
                mismatches.push(format!("{name}: span {got:.4} s, PhaseTimings {want:.4} s"));
            }
        }
    }
    run.set("trace.coverage", coverage, "ratio");
    run.set(
        "trace.overhead",
        layer(&run.tr, root, true).0 / untraced_p50,
        "ratio",
    );

    // Layer metrics: own spans where the workload runs the layer, the
    // reference probe elsewhere.
    let (static2, dynamic2) = match w {
        Workload::EigVectors | Workload::EigValues => {
            let vectors = w == Workload::EigVectors;
            if !vectors {
                run.probe_eig(false)?;
            }
            run.eig_layers(true, vectors);
            if let Unit::Eig { a, truth } = stream.unit(1) {
                run.eig_reference(
                    &a,
                    d.eigen(w),
                    vectors,
                    truth.as_deref().map(|t| t.as_slice()),
                    untraced_p50,
                );
            }
            run.probe_svd()?;
            run.probe_batch();
            let band =
                last_band.ok_or_else(|| Error::Runtime("no traced eig solve succeeded".into()))?;
            eig_chase_speedups(&band)
        }
        Workload::SvdVectors => {
            let a = workload::svd_vectors_input(seed, sizes.n, 1);
            let r = svd_two_stage(&mut run.tr, PROBE - 1, &a);
            let band = r.as_ref().ok().map(|(_, b)| b.clone());
            run.done.tally(check::svd(&a, &r.map(|(s, _)| s)));
            let (two, two_s) = timed(|| GeSvd::new().method(SvdMethod::TwoStage).solve(&a));
            run.done.tally(check::svd(&a, &two));
            run.svd_layers(true, untraced_p50, two_s);
            run.probe_eig(true)?;
            run.eig_layers(false, false);
            run.probe_batch();
            let band = band.ok_or_else(|| Error::Runtime("two-stage SVD failed".into()))?;
            svd_chase_speedups(&band)
        }
        Workload::BatchMixed => {
            run.batch_layers(true);
            let band = run.probe_eig(true)?;
            run.eig_layers(false, false);
            run.probe_svd()?;
            eig_chase_speedups(&band)
        }
    };
    run.set("runtime.static2.speedup", static2, "ratio");
    run.set("runtime.dynamic2.speedup", dynamic2, "ratio");
    Ok(Traced {
        metrics: run.m,
        attempted: run.done.requests,
        failed: run.done.failed,
        mismatches,
        tracer: run.tr,
    })
}
