//! The solve workload, `asyrgs_mem`: one random sparse, diagonally
//! dominant SPD system whose working set exceeds the L3, solved to a
//! tolerance by AsyRGS at t = nproc and by sequential RGS at t = 1.

use crate::check;
use crate::report::Tally;
use crate::stats;
use crate::trace::Tracer;
use asyrgs::prelude::*;
use std::time::Instant;

/// `asyrgs_mem`: n and off-diagonal draws per row (about 7 stored
/// entries per row after symmetrization), so CSR + x + b is about 130 MiB.
pub const MEM_N: usize = 1_000_000;
pub const MEM_ROW_NNZ: usize = 4;
pub const MEM_DOMINANCE: f64 = 2.0;
/// Reached after 5 sweeps; the residual after 4 and 5 sweeps sits about
/// 25% either side, so the sweep count does not flip between seeds.
pub const MEM_TOL: f64 = 0.12;
/// Wall limit of one solve, for `slo_met_share`.
pub const MEM_SLO_S: f64 = 15.0;

/// Solve pairs measured per run, at least; the traced phase of a traced
/// run measures fewer, for the overhead comparison only.
pub const MIN_PAIRS: usize = 4;
pub const MIN_PAIRS_TRACED: usize = 2;

pub struct SolveCase {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub tol: f64,
    pub slo_s: f64,
    /// AsyRGS at t = nproc.
    pub par: SolveSession,
    /// The t = 1 synchronous counterpart, RGS.
    pub seq: SolveSession,
}

impl SolveCase {
    /// CSR arrays plus x and b, in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        let n = self.a.n_rows() as u64;
        let nnz = self.a.nnz() as u64;
        nnz * 16 + (n + 1) * 8 + 2 * n * 8
    }
}

fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = asyrgs::rng::Xoshiro256pp::new(seed ^ 0xB0B);
    (0..n).map(|_| rng.next_range(-1.0, 1.0)).collect()
}

fn build_pair(par: SolverBuilder, seq: SolverBuilder) -> (SolveSession, SolveSession) {
    let par = par
        .build()
        .expect("benchmark solver configuration is valid");
    let seq = seq
        .build()
        .expect("benchmark solver configuration is valid");
    (par, seq)
}

/// Generate the `asyrgs_mem` system from `seed`, build both sessions and
/// warm up with a discarded one-sweep AsyRGS solve.
pub fn setup_asyrgs_mem(seed: u64, nproc: usize) -> SolveCase {
    let a = asyrgs::workloads::diag_dominant(MEM_N, MEM_ROW_NNZ, MEM_DOMINANCE, seed);
    let b = random_rhs(MEM_N, seed);
    let term = Termination::sweeps(60).with_target(MEM_TOL);
    let asyrgs = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(nproc)
        .seed(seed);
    let (par, seq) = build_pair(
        asyrgs.clone().term(term.clone()),
        SolverBuilder::new(SolverFamily::Rgs).seed(seed).term(term),
    );
    warm_up(asyrgs, &a, &b);
    SolveCase {
        a,
        b,
        tol: MEM_TOL,
        slo_s: MEM_SLO_S,
        par,
        seq,
    }
}

/// A discarded one-sweep solve in the measured configuration: spawns the
/// pool's workers and faults in the matrix and vectors.
fn warm_up(builder: SolverBuilder, a: &CsrMatrix, b: &[f64]) {
    let mut x = vec![0.0; a.n_rows()];
    let mut once = builder
        .term(Termination::sweeps(1))
        .build()
        .expect("benchmark solver configuration is valid");
    once.solve(a, b, &mut x).expect("warm-up solve runs");
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    Par,
    Seq,
}

pub struct Sample {
    pub variant: Variant,
    pub secs: f64,
    pub ok: bool,
    pub report: Option<SolveReport>,
    /// Gap between the previous solve's return and this call, ms.
    pub gap_ms: f64,
}

/// Alternate t = nproc and t = 1 solves (the order flips every pair) for
/// at least `seconds` and `min_pairs` pairs. Every returned x is checked.
pub fn run(
    case: &mut SolveCase,
    seconds: f64,
    min_pairs: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<Sample> {
    let n = case.a.n_rows();
    let mut x = vec![0.0; n];
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut last_end = Instant::now();
    let mut pair = 0;
    while pair < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let order = if pair.is_multiple_of(2) {
            [Variant::Par, Variant::Seq]
        } else {
            [Variant::Seq, Variant::Par]
        };
        for variant in order {
            x.fill(0.0);
            let session = match variant {
                Variant::Par => &mut case.par,
                Variant::Seq => &mut case.seq,
            };
            let t0 = Instant::now();
            let result = session.solve(&case.a, &case.b, &mut x);
            let t1 = Instant::now();
            let id = tracer.record(
                match variant {
                    Variant::Par => "solve.par",
                    Variant::Seq => "solve.seq",
                },
                t0,
                t1,
                None,
                Some(samples.len() as u64),
            );
            let ok = tracer.span("check", id, Some(samples.len() as u64), || {
                check::passes(&result, &case.a, &case.b, &x, case.tol)
            });
            tally.add(ok);
            samples.push(Sample {
                variant,
                secs: (t1 - t0).as_secs_f64(),
                ok,
                report: result.ok(),
                gap_ms: (t0 - last_end).as_secs_f64() * 1e3,
            });
            last_end = Instant::now();
        }
        pair += 1;
    }
    samples
}

pub fn secs_of(samples: &[Sample], variant: Variant) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.variant == variant)
        .map(|s| s.secs)
        .collect()
}

/// End-to-end metrics of a solve workload. A "job" here is one solve at
/// t = nproc, sent back to back by one closed-loop client; the metric set
/// is the same on every workload, so the job metrics restate `tts_s` as
/// that client sees it (p99 of fewer than 100 solves is the slowest).
pub fn end_to_end(case: &SolveCase, samples: &[Sample], m: &mut crate::report::Metrics) {
    let par = secs_of(samples, Variant::Par);
    let par_ms: Vec<f64> = par.iter().map(|s| s * 1e3).collect();
    let met = samples
        .iter()
        .filter(|s| s.variant == Variant::Par && s.ok && s.secs <= case.slo_s)
        .count();
    m.set("tts_s", stats::median(&par));
    m.set("tts_seq_s", stats::median(&secs_of(samples, Variant::Seq)));
    m.set("job_p50_ms", stats::median(&par_ms));
    m.set("job_p99_ms", stats::percentile(&par_ms, 99.0));
    m.set("slo_met_share", stats::share(met, par.len()));
    m.set("jobs_per_s", par.len() as f64 / par.iter().sum::<f64>());
}
