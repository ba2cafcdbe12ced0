//! The four workloads and the seeded inputs they issue.

use crate::rng::{derive, Rng};
use tseig_hermitian::validate::rand_hermitian;
use tseig_kernels::blas3::{gemm, Trans};
use tseig_kernels::householder::{larfb_with_work, Side};
use tseig_kernels::qr::{extract_v_t, geqrf};
use tseig_matrix::{gen, CMatrix, Matrix};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// f64 random symmetric, all eigenpairs with vectors, serial, 1 thread.
    EigVectors,
    /// f64 known spectrum, eigenvalues only, static stage-2 scheduler on 2 workers.
    EigValues,
    /// Square general f64, thin SVD with vectors, default `GeSvd`, 1 thread.
    SvdVectors,
    /// Seeded stream of small mixed requests through the 2-worker pools.
    BatchMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EigVectors,
        Workload::EigValues,
        Workload::SvdVectors,
        Workload::BatchMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EigVectors => "eig_vectors",
            Workload::EigValues => "eig_values",
            Workload::SvdVectors => "svd_vectors",
            Workload::BatchMixed => "batch_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `RAYON_NUM_THREADS` the workload runs under. The rayon shim caches
    /// its budget at the first parallel call, so it is pinned before the
    /// measuring process starts.
    pub fn threads(self) -> usize {
        match self {
            Workload::EigVectors | Workload::SvdVectors => 1,
            Workload::EigValues | Workload::BatchMixed => 2,
        }
    }

    /// Units whose outputs make up the accuracy metrics. A fixed prefix
    /// of the seed's input stream, so the metrics are a function of the
    /// seed alone.
    pub fn accuracy_units(self) -> usize {
        match self {
            Workload::EigVectors => 4,
            Workload::EigValues => EIG_VALUES_POOL,
            Workload::SvdVectors => 3,
            Workload::BatchMixed => 2,
        }
    }
}

/// Known-spectrum matrices an `eig_values` run cycles through: building
/// one costs about as much as solving it, so a run builds a few up front.
pub const EIG_VALUES_POOL: usize = 3;

/// Problem sizes of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Order of the workload's matrices (`batch_mixed`: its largest).
    pub n: usize,
    /// Request orders of `batch_mixed`, inclusive.
    pub batch_min: usize,
    pub batch_max: usize,
    /// Requests per `batch_mixed` pass (a multiple of [`BLOCK`]).
    pub pass_len: usize,
    /// Order of the reference probe that measures layers a workload's
    /// own requests do not run.
    pub probe_n: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full(w: Workload) -> Sizes {
        Sizes {
            n: match w {
                Workload::EigVectors | Workload::SvdVectors => 1024,
                Workload::EigValues => 1536,
                Workload::BatchMixed => 256,
            },
            batch_min: 32,
            batch_max: 256,
            pass_len: 2 * BLOCK,
            probe_n: 256,
        }
    }

    /// Small sizes for smoke tests.
    pub fn tiny() -> Sizes {
        Sizes {
            n: 72,
            batch_min: 8,
            batch_max: 40,
            pass_len: BLOCK,
            probe_n: 56,
        }
    }
}

/// Seed streams, one per kind of draw.
const STREAM_EIG: u64 = 1;
const STREAM_SPECTRUM: u64 = 2;
const STREAM_SVD: u64 = 3;
const STREAM_BATCH: u64 = 4;
const STREAM_PROBE: u64 = 5;

/// Input of eig unit `i` of `eig_vectors`: a fresh random symmetric matrix.
pub fn eig_vectors_input(seed: u64, n: usize, i: usize) -> Matrix {
    gen::random_symmetric(n, derive(seed, STREAM_EIG, i as u64))
}

/// Matrix `k` of the `eig_values` pool and its exact spectrum.
pub fn eig_values_input(seed: u64, n: usize, k: usize) -> (Matrix, Vec<f64>) {
    let s = derive(seed, STREAM_SPECTRUM, k as u64);
    let mut rng = Rng::new(s);
    // Jittered equispaced spectrum in [-1, 1): ascending and known.
    let lambda: Vec<f64> = (0..n)
        .map(|i| -1.0 + 2.0 * (i as f64 + 0.5 + 0.45 * rng.signed()) / n as f64)
        .collect();
    (with_spectrum(&lambda, rng.next_u64()), lambda)
}

/// Input of unit `i` of `svd_vectors`: a square general matrix.
pub fn svd_vectors_input(seed: u64, n: usize, i: usize) -> Matrix {
    general(n, n, derive(seed, STREAM_SVD, i as u64))
}

/// Order-`n` input of the reference probe.
pub fn probe_symmetric(seed: u64, n: usize) -> Matrix {
    gen::random_symmetric(n, derive(seed, STREAM_PROBE, 0))
}

/// Order-`n` general input of the reference probe.
pub fn probe_general(seed: u64, n: usize) -> Matrix {
    general(n, n, derive(seed, STREAM_PROBE, 1))
}

/// Uniform `[-1, 1)` entries.
pub fn general(m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::new(seed);
    Matrix::from_fn(m, n, |_, _| rng.signed())
}

/// Symmetric positive definite: uniform `[-1, 1)` symmetric plus `n I`,
/// strictly diagonally dominant.
pub fn spd(n: usize, seed: u64) -> Matrix {
    let mut b = gen::random_symmetric(n, seed);
    for i in 0..n {
        b[(i, i)] += n as f64;
    }
    b
}

/// Dense symmetric `Q diag(lambda) Q^T` with `Q` the orthogonal QR factor
/// of a seeded random matrix. Blocked Householder and `gemm` keep the
/// cost at a few gemm-rate passes; `gen::symmetric_with_spectrum` applies
/// `n` rank-2 updates and takes about 13 s at n = 1536.
pub fn with_spectrum(lambda: &[f64], seed: u64) -> Matrix {
    const NB: usize = 32;
    let n = lambda.len();
    let mut g = general(n, n, seed);
    let mut tau = vec![0.0; n];
    geqrf(n, n, g.as_mut_slice(), n, &mut tau, NB);
    // Q = H_0 H_1 ... H_{n-1}: apply the panels to I, last one first.
    let mut q = Matrix::identity(n);
    let mut work = vec![0.0; 2 * NB * n];
    for j0 in (0..n).step_by(NB).rev() {
        let kb = NB.min(n - j0);
        let m = n - j0;
        let (v, t) = extract_v_t(&g.as_slice()[j0 + j0 * n..], n, m, kb, &tau[j0..j0 + kb]);
        larfb_with_work(
            Side::Left,
            Trans::No,
            m,
            n,
            kb,
            v.as_slice(),
            v.ld(),
            &t,
            kb,
            &mut q.as_mut_slice()[j0..],
            n,
            &mut work,
        );
    }
    let mut ql = q.clone();
    for (j, &l) in lambda.iter().enumerate() {
        for x in ql.col_mut(j) {
            *x *= l;
        }
    }
    let mut a = Matrix::zeros(n, n);
    gemm(
        Trans::No,
        Trans::Yes,
        n,
        n,
        n,
        1.0,
        ql.as_slice(),
        n,
        q.as_slice(),
        n,
        0.0,
        a.as_mut_slice(),
        n,
    );
    a.symmetrize_from_lower();
    a
}

/// Request kinds of `batch_mixed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// f64 symmetric eig with vectors, `BatchDriver::solve_all`.
    Eig,
    /// f64 symmetric-definite pencil, `BatchDriver::solve_all_generalized`.
    Gen,
    /// f64 square thin SVD with vectors, `SvdBatch::solve_all`.
    Svd,
    /// C64 Hermitian eig with vectors, `HermitianEigen::solve` one at a time.
    Herm,
}

/// Requests of each kind in one block of [`BLOCK`]: 70% / 10% / 10% / 10%.
pub const MIX: [(Kind, usize); 4] = [
    (Kind::Eig, 14),
    (Kind::Gen, 2),
    (Kind::Svd, 2),
    (Kind::Herm, 2),
];

/// Requests per block of the stream: a pass is a whole number of blocks.
pub const BLOCK: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub kind: Kind,
    pub n: usize,
    pub seed: u64,
}

/// Requests of pass `p` of the `batch_mixed` stream: `pass_len / BLOCK`
/// times [`MIX`] requests of each kind, in seeded order with seeded
/// entries. Each kind's orders form the same evenly spaced grid over
/// `[batch_min, batch_max]` in every pass, so every pass carries the same
/// work and memory whatever the seed, and the orders are uniform over the
/// range.
pub fn batch_pass(seed: u64, p: usize, sizes: &Sizes) -> Vec<Request> {
    let mut rng = Rng::new(derive(seed, STREAM_BATCH, p as u64));
    let span = (sizes.batch_max - sizes.batch_min + 1) as f64;
    let blocks = sizes.pass_len / BLOCK;
    let mut reqs = Vec::with_capacity(sizes.pass_len);
    for (kind, per_block) in MIX {
        let count = per_block * blocks;
        for i in 0..count {
            let off = ((i as f64 + 0.5) / count as f64 * span) as usize;
            reqs.push(Request {
                kind,
                n: sizes.batch_min + off,
                seed: rng.next_u64(),
            });
        }
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// One pass's inputs, grouped by the entry point that solves them.
#[derive(Default)]
pub struct PassInputs {
    pub eig: Vec<Matrix>,
    pub gen: Vec<(Matrix, Matrix)>,
    pub svd: Vec<Matrix>,
    pub herm: Vec<CMatrix>,
}

impl PassInputs {
    pub fn build(reqs: &[Request]) -> PassInputs {
        let mut p = PassInputs::default();
        for r in reqs {
            match r.kind {
                Kind::Eig => p.eig.push(gen::random_symmetric(r.n, r.seed)),
                Kind::Gen => p
                    .gen
                    .push((gen::random_symmetric(r.n, r.seed), spd(r.n, r.seed ^ 1))),
                Kind::Svd => p.svd.push(general(r.n, r.n, r.seed)),
                Kind::Herm => p.herm.push(rand_hermitian(r.n, r.seed)),
            }
        }
        p
    }

    pub fn len(&self) -> usize {
        self.eig.len() + self.gen.len() + self.svd.len() + self.herm.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tseig_matrix::norms;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs() {
        let s = Sizes::tiny();
        assert_eq!(
            eig_vectors_input(9, 16, 3).as_slice(),
            eig_vectors_input(9, 16, 3).as_slice()
        );
        assert_ne!(
            eig_vectors_input(9, 16, 3).as_slice(),
            eig_vectors_input(10, 16, 3).as_slice()
        );
        let (a, l) = eig_values_input(9, 16, 1);
        let (b, m) = eig_values_input(9, 16, 1);
        assert_eq!((a.as_slice(), &l), (b.as_slice(), &m));
        assert_eq!(
            svd_vectors_input(9, 8, 0).as_slice(),
            svd_vectors_input(9, 8, 0).as_slice()
        );
        assert_eq!(batch_pass(9, 2, &s), batch_pass(9, 2, &s));
        assert_ne!(batch_pass(9, 2, &s), batch_pass(10, 2, &s));
    }

    #[test]
    fn batch_mix_follows_proportions() {
        let s = Sizes::full(Workload::BatchMixed);
        let reqs: Vec<Request> = (0..100).flat_map(|p| batch_pass(3, p, &s)).collect();
        let total = reqs.len();
        assert_eq!(total, 100 * s.pass_len);
        for (kind, per_block) in MIX {
            let count = reqs.iter().filter(|r| r.kind == kind).count();
            assert_eq!(count * BLOCK, per_block * total, "{kind:?}");
        }
        assert!(reqs
            .iter()
            .all(|r| (s.batch_min..=s.batch_max).contains(&r.n)));
        // Orders spread uniformly: each quarter of the range holds ~25%.
        let span = (s.batch_max - s.batch_min + 1) as f64;
        for q in 0..4 {
            let inq = reqs
                .iter()
                .filter(|r| (((r.n - s.batch_min) as f64 / span) * 4.0) as usize == q)
                .count() as f64;
            assert!(
                (inq / total as f64 - 0.25).abs() < 0.03,
                "quarter {q}: {inq}"
            );
        }
    }

    #[test]
    fn with_spectrum_has_that_spectrum() {
        let lambda = gen::linspace(-2.0, 3.0, 40);
        let a = with_spectrum(&lambda, 5);
        assert_eq!(a.as_slice(), with_spectrum(&lambda, 5).as_slice());
        let jac = tseig_kernels::reference::jacobi_eigen(&a, false).unwrap();
        assert!(norms::eigenvalue_distance(&jac.eigenvalues, &lambda) < 1e-13);
    }
}
