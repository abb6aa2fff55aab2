//! The serve workload: Zipf hot-matrix traffic through `Scheduler`, in
//! rounds of three phases so every phase samples the whole run.
//!
//! * open loop — one submitter thread sends jobs on a fixed schedule, one
//!   collector thread waits for and checks them. Explicit AsyRGS jobs and
//!   policy-routed `auto` jobs are mixed, warm start is on, and
//!   diagonal-shift updates of the hottest matrix are interleaved. Served
//!   by the one-runner scheduler built and warmed in set-up.
//! * burst — the replay's head at once: a cold wave, then a resubmit wave,
//!   explicit AsyRGS jobs only, on a fresh `nproc`-runner scheduler per
//!   burst.
//! * direct — every hot matrix solved once by a session, no scheduler.

use crate::check;
use crate::report::{Metrics, Tally};
use crate::solve::Variant;
use crate::stats;
use crate::trace::Tracer;
use asyrgs::prelude::*;
use asyrgs::workloads::traffic::{zipf_hot_matrix_replay, HotMatrixReplay};
use asyrgs_serve::{
    JobHandle, JobStats, MatrixFingerprint, MatrixUpdate, RegistryStats, Scheduler,
    SchedulerConfig, SolveJob, SubmitError, TenantId,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants the replay spreads its jobs over.
pub const TENANTS: usize = 256;
/// Hot matrices are random diagonally dominant SPD systems with about 7
/// stored entries per row and n from `HOT_N_MIN` (the hottest, 1.0e4
/// nonzeros) to `HOT_N_MAX` (2.1e4). With larger ones in the tail, the
/// work in a 300-job burst wave varied with the seed, and the open loop's
/// p99 followed how often two large jobs met in service.
pub const HOT_N_MIN: usize = 1_430;
pub const HOT_N_MAX: usize = 3_000;
pub const HOT_ROW_NNZ: usize = 4;
pub const HOT_DOMINANCE: f64 = 2.0;
/// Explicit jobs stop at `JOB_TARGET`; every job must pass the check at
/// `SERVE_TOL`. Coalesced jobs stop on the batch's Frobenius-relative
/// residual, so one job of a batch of k can end up to sqrt(k) times above
/// `JOB_TARGET` while the batch meets it; the tolerance allows for the
/// scheduler's largest batch (32), and `serve.target_misses` counts the
/// jobs that ended above their own target.
pub const JOB_TARGET: f64 = 1e-5;
pub const JOB_MAX_SWEEPS: usize = 400;
pub const SERVE_TOL: f64 = 1e-4;
/// Open-loop traffic mix: every `AUTO_EVERY`-th job is policy-routed, and
/// an update of the hottest matrix precedes every `UPDATE_EVERY`-th job.
/// Each update costs the next `auto` job on that matrix a policy probe of
/// 15 to 20 ms inside `submit`; kept this rare, the probes show in
/// `serve.submit_ms_p99` and the maximum latency but do not set
/// `job_p99_ms`.
pub const AUTO_EVERY: usize = 4;
pub const UPDATE_EVERY: usize = 500;
pub const UPDATE_SHIFT: f64 = 0.5;
/// Open-loop arrival rate, jobs per second, and the open loop's runners.
/// A job costs about 3.5 ms of CPU (2.7 ms of service, 0.7 ms of
/// admission), so the runner is busy about a tenth of the time and no job
/// coalesces. With one runner the submitter and the runner each have a
/// core. With `nproc` runners at 85 jobs/s, up to four threads competed
/// for the two cores and latency followed the host: over ten seeds on a
/// busy host p50 spread 0.21 and p99 0.59.
pub const OPEN_RATE: f64 = 40.0;
pub const OPEN_RUNNERS: usize = 1;
/// Open-loop latency limit for `slo_met_share`.
pub const OPEN_SLO_MS: f64 = 50.0;
/// Burst: replay events in the cold wave, and in the resubmit wave.
pub const BURST_JOBS: usize = 300;
pub const BURST_RESUBMIT: usize = 150;
/// The timed part runs `ROUNDS` rounds. Each is an open-loop segment of
/// `OPEN_SHARE` of the run's seconds divided by `ROUNDS`, then one burst,
/// then `DIRECT_PAIRS` direct pass pairs over the hot set.
pub const ROUNDS: usize = 10;
pub const OPEN_SHARE: f64 = 0.7;
pub const DIRECT_PAIRS: usize = 4;

/// The hot matrices and their right-hand sides, hottest first.
pub struct HotSet {
    pub mats: Vec<Arc<CsrMatrix>>,
    pub bs: Vec<Arc<Vec<f64>>>,
}

impl HotSet {
    /// Sizes are a fixed geometric ladder from `HOT_N_MIN` (hottest) to
    /// `HOT_N_MAX`, so every seed serves the same matrices' sizes; the seed
    /// draws the sparsity patterns, values and right-hand sides.
    pub fn generate(count: usize, seed: u64) -> HotSet {
        let mut rng = asyrgs::rng::Xoshiro256pp::new(seed ^ 0x5E7);
        let mut mats = Vec::with_capacity(count);
        let mut bs = Vec::with_capacity(count);
        for k in 0..count {
            let step = k as f64 / count.saturating_sub(1).max(1) as f64;
            let n = (HOT_N_MIN as f64 * (HOT_N_MAX as f64 / HOT_N_MIN as f64).powf(step)) as usize;
            let a = asyrgs::workloads::diag_dominant(
                n,
                HOT_ROW_NNZ,
                HOT_DOMINANCE,
                seed.wrapping_add(k as u64 + 1),
            );
            mats.push(Arc::new(a));
            bs.push(Arc::new(
                (0..n).map(|_| rng.next_range(-1.0, 1.0)).collect(),
            ));
        }
        HotSet { mats, bs }
    }

    pub fn nnz(&self) -> usize {
        self.mats.iter().map(|a| a.nnz()).sum()
    }

    /// CSR arrays plus x and b of every hot matrix, in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.mats
            .iter()
            .map(|a| (a.nnz() * 16 + (a.n_rows() + 1) * 8 + 2 * a.n_rows() * 8) as u64)
            .sum()
    }
}

/// Explicit jobs run single-threaded, so a scheduler runs no more solver
/// threads than it has runners.
pub fn explicit_builder() -> SolverBuilder {
    SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(1)
        .term(Termination::sweeps(JOB_MAX_SWEEPS).with_target(JOB_TARGET))
}

fn scheduler(runners: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        runners,
        slots: runners,
        ..SchedulerConfig::default()
    })
}

pub struct ServeCase {
    /// The seeded replay, long enough for the open loop and the burst.
    pub replay: HotMatrixReplay,
    pub hot: HotSet,
    pub nproc: usize,
    /// The open loop serves from the scheduler built and warmed in set-up;
    /// every burst builds a fresh one.
    pub sched: Scheduler,
}

/// Register each of `hot`'s matrices on `sched` with one explicit job.
fn register(sched: &Scheduler, hot: &HotSet) {
    let handles: Vec<JobHandle> = (0..hot.mats.len())
        .map(|k| {
            let job = SolveJob::new(
                explicit_builder(),
                Arc::new(hot.mats[k].as_ref().clone()),
                hot.bs[k].to_vec(),
            )
            .with_tenant(TenantId(TENANTS as u64 + 1));
            sched.submit(job).expect("warm-up job is valid")
        })
        .collect();
    for h in handles {
        h.wait().result.expect("warm-up job converges");
    }
}

/// Generate the replay (long enough for `open_seconds` of the open loop)
/// and the hot set, build the open loop's scheduler, and warm up: register
/// each hot matrix and resolve its solver-policy decision on the kept
/// scheduler, and run each hot matrix once on a throwaway burst scheduler.
pub fn setup(seed: u64, nproc: usize, open_seconds: f64) -> ServeCase {
    let jobs = ((OPEN_RATE * open_seconds * 1.5) as usize + 64).max(BURST_JOBS);
    let replay = zipf_hot_matrix_replay(jobs, TENANTS, seed);
    let hot = HotSet::generate(replay.matrices.len(), seed);
    let sched = scheduler(OPEN_RUNNERS);
    register(&sched, &hot);
    for a in &hot.mats {
        sched.policy_preview(a).expect("hot matrices are SPD");
    }
    register(&scheduler(nproc), &hot);
    ServeCase {
        replay,
        hot,
        nproc,
        sched,
    }
}

/// One job as the load generator saw it.
pub struct JobRec {
    pub due: Instant,
    pub sent: Instant,
    pub after_submit: Instant,
    pub done: Option<Instant>,
    pub ok: bool,
    pub refused: bool,
    /// An explicit job that returned `Ok` above its own residual target.
    pub target_miss: bool,
    pub stats: Option<JobStats>,
}

impl JobRec {
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64() * 1e3)
    }
}

struct Sent {
    id: u64,
    due: Instant,
    sent: Instant,
    after_submit: Instant,
    /// `Err(true)` when the admission queue was full.
    handle: Result<JobHandle, bool>,
    a: Arc<CsrMatrix>,
    b: Arc<Vec<f64>>,
    /// The residual target of an explicit job.
    target: Option<f64>,
}

/// The collector: wait for every sent job in order, check its x, and
/// time its completion from the scheduler's own queue and service
/// durations (so a job that finished while an earlier one was being
/// waited for is not charged the wait).
fn collect(rx: mpsc::Receiver<Sent>, tracer: &Tracer) -> Vec<JobRec> {
    let mut recs = Vec::new();
    for s in rx {
        let mut rec = JobRec {
            due: s.due,
            sent: s.sent,
            after_submit: s.after_submit,
            done: None,
            ok: false,
            refused: matches!(s.handle, Err(true)),
            target_miss: false,
            stats: None,
        };
        let mut check_span = None;
        if let Ok(handle) = s.handle {
            let out = handle.wait();
            let done = (s.after_submit + out.stats.queued + out.stats.service).min(Instant::now());
            let check_start = Instant::now();
            rec.ok = check::passes(&out.result, &s.a, &s.b, &out.x, SERVE_TOL);
            check_span = Some((check_start, Instant::now()));
            if !rec.ok {
                eprintln!(
                    "perfbench: job {} failed its check: result {:?}, residual {:e}",
                    s.id,
                    out.result.as_ref().map(|r| r.final_rel_residual),
                    check::rel_residual(&s.a, &s.b, &out.x),
                );
            }
            rec.target_miss =
                matches!((&out.result, s.target), (Ok(r), Some(t)) if r.final_rel_residual > t);
            rec.done = Some(done);
            rec.stats = Some(out.stats);
        }
        let end = rec.done.unwrap_or(s.after_submit);
        let job = tracer.record("job", s.due, end, None, Some(s.id));
        tracer.record("submit", s.sent, s.after_submit, job, Some(s.id));
        if let Some(stats) = rec.stats {
            let dispatched = s.after_submit + stats.queued;
            tracer.record("queue", s.after_submit, dispatched, job, Some(s.id));
            tracer.record("service", dispatched, end, job, Some(s.id));
        }
        if let Some((t0, t1)) = check_span {
            tracer.record("check", t0, t1, job, Some(s.id));
        }
        recs.push(rec);
    }
    recs
}

/// Submit one job and hand it to the collector.
fn send(
    sched: &Scheduler,
    tx: &mpsc::Sender<Sent>,
    (id, due): (u64, Instant),
    job: SolveJob,
    (a, b): (Arc<CsrMatrix>, Arc<Vec<f64>>),
) {
    let target = (!job.is_auto()).then_some(JOB_TARGET);
    let sent = Instant::now();
    let handle = sched
        .submit(job)
        .map_err(|e| matches!(e, SubmitError::QueueFull { .. }));
    let after_submit = Instant::now();
    tx.send(Sent {
        id,
        due,
        sent,
        after_submit,
        handle,
        a,
        b,
        target,
    })
    .expect("collector outlives the submitter");
}

/// What the serve workload's timed part produced.
#[derive(Default)]
pub struct ServeRun {
    /// Open-loop jobs, and burst jobs.
    pub jobs: Vec<JobRec>,
    pub burst_jobs: Vec<JobRec>,
    /// `(variant, seconds)` of each direct pass over the hot set.
    pub direct: Vec<(Variant, f64)>,
    /// Completed jobs per second, one value per burst.
    pub jobs_per_s: Vec<f64>,
    /// Generator lateness against its schedule, ms.
    pub late_ms: Vec<f64>,
    pub registry: RegistryStats,
    pub retried: u64,
}

fn add_registry(sum: &mut RegistryStats, r: RegistryStats) {
    sum.hits += r.hits;
    sum.misses += r.misses;
    sum.warm_starts += r.warm_starts;
    sum.updates += r.updates;
    sum.policy_probes += r.policy_probes;
    sum.policy_hits += r.policy_hits;
}

enum Step {
    Job {
        matrix: usize,
        tenant: u64,
        weight: u32,
        auto: bool,
    },
    Update {
        matrix: usize,
    },
}

/// The open-loop schedule: one send every `1 / OPEN_RATE` seconds for
/// `seconds`, events in the seeded replay's order, with a diagonal-shift
/// update on the hottest matrix just before every `UPDATE_EVERY`-th job.
/// The update gives the matrix a new fingerprint, so the next `auto` job
/// on it pays a fresh policy probe.
fn open_plan(replay: &HotMatrixReplay, seconds: f64) -> Vec<(f64, Step)> {
    let mut plan = Vec::new();
    for (i, e) in replay.events.iter().enumerate() {
        let t = i as f64 / OPEN_RATE;
        if t >= seconds {
            break;
        }
        if i % UPDATE_EVERY == UPDATE_EVERY / 2 {
            plan.push((t, Step::Update { matrix: 0 }));
        }
        plan.push((
            t,
            Step::Job {
                matrix: e.matrix,
                tenant: e.tenant_id,
                weight: e.weight,
                auto: i % AUTO_EVERY == 0,
            },
        ));
    }
    plan
}

/// The open loop's state across its segments: the current version of each
/// hot matrix (updates replace the hottest) and its fingerprint.
struct OpenLoop<'a> {
    case: &'a ServeCase,
    plan: Vec<(f64, Step)>,
    current: Vec<Arc<CsrMatrix>>,
    fps: Vec<MatrixFingerprint>,
}

impl<'a> OpenLoop<'a> {
    fn new(case: &'a ServeCase, seconds: f64) -> OpenLoop<'a> {
        let current = case.hot.mats.clone();
        OpenLoop {
            case,
            plan: open_plan(&case.replay, seconds),
            fps: current.iter().map(|a| Scheduler::fingerprint(a)).collect(),
            current,
        }
    }

    /// Send the plan's steps due in `from..to` seconds on their schedule
    /// (shifted to start now) and wait for every job.
    fn segment(&mut self, from: f64, to: f64, tracer: &Tracer, run: &mut ServeRun) {
        let sched = &self.case.sched;
        let hot = &self.case.hot;
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        let jobs = std::thread::scope(|s| {
            let collector = s.spawn(|| collect(rx, tracer));
            for (id, (due_s, step)) in self.plan.iter().enumerate() {
                if !(from..to).contains(due_s) {
                    continue;
                }
                let due = start + Duration::from_secs_f64(due_s - from);
                // Everything a client does before sending happens before
                // the due time: the job carries its own copy of the matrix.
                let prepared = match *step {
                    Step::Job {
                        matrix,
                        tenant,
                        weight,
                        auto,
                    } => {
                        let a = Arc::new(self.current[matrix].as_ref().clone());
                        let b = hot.bs[matrix].to_vec();
                        let job = if auto {
                            SolveJob::auto(a, b)
                        } else {
                            SolveJob::new(explicit_builder(), a, b)
                        };
                        Some((
                            job.with_tenant(TenantId(tenant))
                                .with_weight(weight)
                                .with_warm_start(true),
                            matrix,
                        ))
                    }
                    Step::Update { .. } => None,
                };
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                run.late_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                match (prepared, step) {
                    (Some((job, matrix)), _) => send(
                        sched,
                        &tx,
                        (id as u64, due),
                        job,
                        (
                            Arc::clone(&self.current[matrix]),
                            Arc::clone(&hot.bs[matrix]),
                        ),
                    ),
                    (None, Step::Update { matrix }) => {
                        let t0 = Instant::now();
                        let n = self.current[*matrix].n_rows();
                        let fp = sched
                            .apply_matrix_update(
                                self.fps[*matrix],
                                &MatrixUpdate::DiagonalShift {
                                    delta: vec![UPDATE_SHIFT; n],
                                },
                            )
                            .expect("hot matrices stay registered and square");
                        self.current[*matrix] =
                            sched.artifacts(fp).expect("patched entry is registered").a;
                        self.fps[*matrix] = fp;
                        tracer.record("update", t0, Instant::now(), None, Some(id as u64));
                    }
                    (None, Step::Job { .. }) => unreachable!("jobs are prepared above"),
                }
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        run.jobs.extend(jobs);
    }
}

/// One burst on a fresh scheduler: the cold wave (the replay's first
/// `BURST_JOBS` events), then the resubmit wave (its first
/// `BURST_RESUBMIT`), each submitted at once. Job ids continue from
/// `next_id`.
fn burst(case: &ServeCase, next_id: &mut u64, tracer: &Tracer, run: &mut ServeRun) {
    let (events, hot) = (&case.replay.events, &case.hot);
    let sched = scheduler(case.nproc);
    let mut jobs = Vec::new();
    for wave in [&events[..BURST_JOBS], &events[..BURST_RESUBMIT]] {
        let (tx, rx) = mpsc::channel();
        let wave_start = Instant::now();
        let recs = std::thread::scope(|s| {
            let collector = s.spawn(|| collect(rx, tracer));
            for e in wave {
                let job = SolveJob::new(
                    explicit_builder(),
                    Arc::new(hot.mats[e.matrix].as_ref().clone()),
                    hot.bs[e.matrix].to_vec(),
                )
                .with_tenant(TenantId(e.tenant_id))
                .with_weight(e.weight)
                .with_warm_start(true);
                send(
                    &sched,
                    &tx,
                    (*next_id, wave_start),
                    job,
                    (
                        Arc::clone(&hot.mats[e.matrix]),
                        Arc::clone(&hot.bs[e.matrix]),
                    ),
                );
                *next_id += 1;
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        jobs.extend(recs);
    }
    // Completed jobs over the time from the first submit to the last
    // completion.
    let first = jobs.iter().map(|j| j.sent).min();
    let last = jobs.iter().filter_map(|j| j.done).max();
    if let (Some(first), Some(last)) = (first, last) {
        let completed = jobs.iter().filter(|j| j.done.is_some()).count();
        run.jobs_per_s
            .push(completed as f64 / (last - first).as_secs_f64());
    }
    add_registry(&mut run.registry, sched.registry_stats());
    run.retried += sched.stats().retried;
    run.burst_jobs.extend(jobs);
}

/// The timed part: `ROUNDS` rounds of an open-loop segment, a burst and
/// direct pass pairs, so each phase samples the same stretch of time.
/// Every job and direct solve is checked and tallied.
pub fn run(case: &ServeCase, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> ServeRun {
    let sched = &case.sched;
    let before = sched.registry_stats();
    let retried_before = sched.stats().retried;
    let open_seconds = seconds * OPEN_SHARE;
    let segment_s = open_seconds / ROUNDS as f64;
    let mut open = OpenLoop::new(case, open_seconds);
    let mut next_id = open.plan.len() as u64;
    let mut run = ServeRun::default();
    let mut direct = Direct::new();
    for round in 0..ROUNDS {
        let from = round as f64 * segment_s;
        open.segment(from, from + segment_s, tracer, &mut run);
        burst(case, &mut next_id, tracer, &mut run);
        for _ in 0..DIRECT_PAIRS {
            direct.pass_pair(&case.hot, tracer, tally, &mut run.direct);
        }
    }
    for j in run.jobs.iter().chain(&run.burst_jobs) {
        tally.add(j.ok);
    }
    let after = sched.registry_stats();
    add_registry(
        &mut run.registry,
        RegistryStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            warm_starts: after.warm_starts - before.warm_starts,
            updates: after.updates - before.updates,
            policy_probes: after.policy_probes - before.policy_probes,
            policy_hits: after.policy_hits - before.policy_hits,
            ..RegistryStats::default()
        },
    );
    run.retried += sched.stats().retried - retried_before;
    run
}

/// Every hot matrix solved once, directly by a session, no scheduler:
/// the explicit job configuration (AsyRGS at t = 1) against RGS at t = 1.
struct Direct {
    par: SolveSession,
    seq: SolveSession,
    pairs: usize,
}

impl Direct {
    fn new() -> Direct {
        Direct {
            par: explicit_builder()
                .build()
                .expect("benchmark solver configuration is valid"),
            seq: SolverBuilder::new(SolverFamily::Rgs)
                .term(Termination::sweeps(JOB_MAX_SWEEPS).with_target(JOB_TARGET))
                .build()
                .expect("benchmark solver configuration is valid"),
            pairs: 0,
        }
    }

    /// One pass over the hot set in each configuration, the order flipping
    /// between calls; pushes `(variant, seconds)` per pass.
    fn pass_pair(
        &mut self,
        hot: &HotSet,
        tracer: &Tracer,
        tally: &mut Tally,
        out: &mut Vec<(Variant, f64)>,
    ) {
        let order = if self.pairs.is_multiple_of(2) {
            [Variant::Par, Variant::Seq]
        } else {
            [Variant::Seq, Variant::Par]
        };
        self.pairs += 1;
        for variant in order {
            let session = match variant {
                Variant::Par => &mut self.par,
                Variant::Seq => &mut self.seq,
            };
            let mut secs = 0.0;
            for (a, b) in hot.mats.iter().zip(&hot.bs) {
                let mut x = vec![0.0; a.n_rows()];
                let t0 = Instant::now();
                let result = session.solve(a.as_ref(), b, &mut x);
                let t1 = Instant::now();
                tracer.record("solve.direct", t0, t1, None, None);
                tally.add(check::passes(&result, a, b, &x, SERVE_TOL));
                secs += (t1 - t0).as_secs_f64();
            }
            out.push((variant, secs));
        }
    }
}

/// End-to-end metrics: latency and the latency limit from the open loop,
/// throughput from the bursts, time to solution from the direct passes.
pub fn end_to_end(run: &ServeRun, m: &mut Metrics) {
    let of = |v: Variant| -> Vec<f64> {
        run.direct
            .iter()
            .filter(|d| d.0 == v)
            .map(|d| d.1)
            .collect()
    };
    let lat: Vec<f64> = run.jobs.iter().filter_map(JobRec::latency_ms).collect();
    let met = run
        .jobs
        .iter()
        .filter(|j| j.ok && j.latency_ms().is_some_and(|l| l <= OPEN_SLO_MS))
        .count();
    m.set("tts_s", stats::median(&of(Variant::Par)));
    m.set("tts_seq_s", stats::median(&of(Variant::Seq)));
    m.set("job_p50_ms", stats::median(&lat));
    m.set("job_p99_ms", stats::percentile(&lat, 99.0));
    m.set("slo_met_share", stats::share(met, run.jobs.len()));
    m.set("jobs_per_s", stats::median(&run.jobs_per_s));
}
