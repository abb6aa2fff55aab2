//! Per-layer measurements for the traced run. Each times calls into one
//! layer's public functions, from outside, on the workload's own inputs,
//! after its timed part.

use crate::report::Metrics;
use crate::serve::{JobRec, ServeRun};
use crate::stats;
use asyrgs::prelude::*;
use asyrgs::rng::DirectionStream;
use asyrgs_serve::{JobStats, Scheduler, SchedulerConfig, SolveJob, TenantId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Row draws per kernel microbenchmark.
const DRAWS: usize = 1 << 20;
/// Inner sweeps of the preconditioner microbenchmark.
pub const PRECOND_SWEEPS: usize = 2;
/// Fixed sweeps of the observation-cost pair.
const OBSERVE_SWEEPS: usize = 3;

/// Run `f` at least `min` and at most `max` times, stopping once
/// `budget_s` has passed; the median of its return values.
fn repeat(min: usize, max: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < min || (xs.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        xs.push(f());
    }
    stats::median(&xs)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The system the layer measurements run on.
pub struct Reference<'a> {
    pub a: &'a CsrMatrix,
    pub b: &'a [f64],
    pub tol: f64,
    pub seed: u64,
    pub nproc: usize,
}

/// sparse, rng, core-atomic and parallel layers.
pub fn kernels(r: &Reference, spmm_width: usize, m: &mut Metrics) {
    let a = r.a;
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut draws = vec![0usize; DRAWS];
    DirectionStream::new(r.seed, n).fill_directions(0, &mut draws);

    let row_dot = repeat(3, 3, 0.0, || {
        secs(|| {
            let mut acc = 0.0;
            for &i in &draws {
                acc += a.row_dot(i, &x);
            }
            black_box(acc);
        }) / DRAWS as f64
    });
    m.set("sparse.row_dot_ns", row_dot * 1e9);

    let mut y = vec![0.0; n];
    let matvec = repeat(5, 200, 0.5, || {
        secs(|| a.par_matvec_into(black_box(&x), &mut y))
    });
    m.set("sparse.matvec_ms", matvec * 1e3);

    let k = spmm_width.max(1);
    let xs = RowMajorMat::from_vec(n, k, (0..n * k).map(|i| (i % 5) as f64).collect());
    let mut ys = RowMajorMat::zeros(n, k);
    let spmm = repeat(5, 200, 0.5, || {
        secs(|| a.par_spmm_into(black_box(&xs), &mut ys))
    });
    m.set("sparse.spmm_ms", spmm * 1e3);

    // Computed, not measured: row_ptr pair, then column index, value and
    // gathered x per stored entry, then b_i, 1/a_ii and the write of x_i.
    let bytes = 16.0 + 24.0 * a.nnz() as f64 / n as f64 + 24.0;
    m.set("sparse.bytes_per_update", bytes);

    let stream = DirectionStream::new(r.seed ^ 1, n);
    let mut buf = vec![0usize; 256];
    let draw = repeat(3, 3, 0.0, || {
        secs(|| {
            for chunk in 0..(DRAWS / buf.len()) as u64 {
                stream.fill_directions(chunk * 256, &mut buf);
                black_box(&buf);
            }
        }) / DRAWS as f64
    });
    m.set("rng.draw_ns", draw * 1e9);

    let shared = asyrgs::core::atomic::SharedVec::zeros(n);
    let atomic = repeat(3, 3, 0.0, || {
        secs(|| {
            for &i in &draws {
                shared.fetch_add(i, 1e-3);
            }
        }) / DRAWS as f64
    });
    black_box(shared.load(0));
    m.set("core.atomic_add_ns", atomic * 1e9);

    let pool = asyrgs::parallel::global();
    let rounds = 2_000;
    let handshake = repeat(5, 5, 0.0, || {
        secs(|| {
            for _ in 0..rounds {
                pool.run(r.nproc, |w| {
                    black_box(w);
                });
            }
        }) / rounds as f64
    });
    m.set("parallel.handshake_us", handshake * 1e6);
}

fn asyrgs_builder(r: &Reference, threads: usize) -> SolverBuilder {
    SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(threads)
        .seed(r.seed)
}

fn solve_once(builder: SolverBuilder, r: &Reference) -> (SolveReport, f64) {
    let mut s = builder
        .build()
        .expect("benchmark solver configuration is valid");
    let mut x = vec![0.0; r.a.n_rows()];
    let t = Instant::now();
    let rep = s.solve(r.a, r.b, &mut x).expect("layer solve runs");
    (rep, t.elapsed().as_secs_f64())
}

fn ns_per_update(rep: &SolveReport) -> f64 {
    rep.wall_seconds / rep.iterations.max(1) as f64 * 1e9
}

/// core layer. `par` and `seq` are AsyRGS at t = nproc and RGS at t = 1
/// solved to `r.tol`; empty slices mean "solve them here".
pub fn core(r: &Reference, par: &[SolveReport], seq: &[SolveReport], m: &mut Metrics) {
    let term = Termination::sweeps(500).with_target(r.tol);
    let own_par;
    let own_seq;
    let (par, seq) = if par.is_empty() || seq.is_empty() {
        own_par = vec![solve_once(asyrgs_builder(r, r.nproc).term(term.clone()), r).0];
        own_seq = vec![
            solve_once(
                SolverBuilder::new(SolverFamily::Rgs)
                    .seed(r.seed)
                    .term(term.clone()),
                r,
            )
            .0,
        ];
        (&own_par[..], &own_seq[..])
    } else {
        (par, seq)
    };
    let med = |reps: &[SolveReport], f: fn(&SolveReport) -> f64| {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    m.set("core.update_ns", med(par, ns_per_update));
    m.set("core.seq_update_ns", med(seq, ns_per_update));
    m.set("core.sweeps_to_tol", med(par, |r| r.sweeps_run() as f64));
    m.set(
        "core.sweeps_to_tol_seq",
        med(seq, |r| r.sweeps_run() as f64),
    );
    let delay = par
        .iter()
        .filter_map(|r| r.max_observed_delay)
        .max()
        .unwrap_or(0);
    m.set("core.max_delay", delay as f64);

    let t1 = repeat(1, 5, 1.0, || {
        ns_per_update(&solve_once(asyrgs_builder(r, 1).term(term.clone()), r).0)
    });
    m.set("core.update_ns_t1", t1);

    let fixed = Termination::sweeps(OBSERVE_SWEEPS);
    let every = repeat(1, 5, 1.0, || {
        solve_once(
            asyrgs_builder(r, r.nproc)
                .term(fixed.clone())
                .record(Recording::every(1)),
            r,
        )
        .1
    });
    let end = repeat(1, 5, 1.0, || {
        solve_once(
            asyrgs_builder(r, r.nproc)
                .term(fixed.clone())
                .record(Recording::end_only()),
            r,
        )
        .1
    });
    m.set("core.observe_share", every / end - 1.0);
}

/// krylov layer: FCG with the AsyRGS preconditioner on the workload's
/// system, and one preconditioner application.
pub fn krylov(r: &Reference, m: &mut Metrics) {
    let fcg = SolverBuilder::new(SolverFamily::Fcg)
        .threads(r.nproc)
        .seed(r.seed)
        .preconditioner(PrecondSpec::AsyRgs {
            inner_sweeps: PRECOND_SWEEPS,
        })
        .term(Termination::sweeps(500).with_target(r.tol))
        .record(Recording::end_only());
    m.set("krylov.outer_iters", solve_once(fcg, r).0.iterations as f64);
    let pre = AsyRgsPrecond::new(r.a, PRECOND_SWEEPS, r.nproc, 1.0, r.seed);
    let mut z = vec![0.0; r.a.n_rows()];
    let apply = repeat(3, 50, 1.0, || secs(|| pre.apply(r.b, &mut z)));
    m.set("krylov.precond_apply_ms", apply * 1e3);
}

/// session layer: builder validation, and the extra cost of a session's
/// first solve over its second (same one-sweep configuration).
pub fn session(r: &Reference, m: &mut Metrics) {
    let build = repeat(50, 50, 0.0, || {
        secs(|| {
            black_box(
                asyrgs_builder(r, r.nproc)
                    .build()
                    .expect("valid configuration"),
            );
        })
    });
    m.set("session.build_ms", build * 1e3);
    let extra = repeat(1, 5, 1.0, || {
        let mut s = asyrgs_builder(r, r.nproc)
            .term(Termination::sweeps(1))
            .build()
            .expect("valid configuration");
        let mut x = vec![0.0; r.a.n_rows()];
        let first = secs(|| {
            s.solve(r.a, r.b, &mut x).expect("layer solve runs");
        });
        x.fill(0.0);
        let second = secs(|| {
            s.solve(r.a, r.b, &mut x).expect("layer solve runs");
        });
        first - second
    });
    m.set("session.first_solve_extra_ms", extra * 1e3);
}

/// policy layer over `policy_mats` and the admission kernels over `mats`
/// (every hot matrix, or the workload's one system).
pub fn admission(policy_mats: &[&CsrMatrix], mats: &[&CsrMatrix], m: &mut Metrics) {
    let decide: Vec<f64> = policy_mats
        .iter()
        .map(|a| secs(|| drop(black_box(asyrgs::policy::decide_for(a)))))
        .collect();
    m.set("policy.decide_ms", stats::median(&decide) * 1e3);
    let nnz: usize = mats.iter().map(|a| a.nnz()).sum();
    let fp = repeat(3, 3, 0.0, || {
        secs(|| {
            for a in mats {
                black_box(Scheduler::fingerprint(a));
            }
        })
    });
    m.set("serve.fingerprint_ns_per_nnz", fp / nnz as f64 * 1e9);
    let sym = repeat(3, 3, 0.0, || {
        secs(|| {
            for a in mats {
                black_box(a.is_symmetric(asyrgs::session::SYMMETRY_TOL));
            }
        })
    });
    m.set("serve.symmetry_ns_per_nnz", sym / nnz as f64 * 1e9);
}

/// Two one-sweep AsyRGS jobs from two tenants on the workload's system,
/// each with its own copy of the matrix, through a fresh scheduler: what
/// admission and dispatch cost for this input. Used by the workloads that
/// do not otherwise touch the serve layer; not counted as operations.
pub fn admission_probe(r: &Reference) -> ServeRun {
    let sched = Scheduler::new(SchedulerConfig {
        runners: r.nproc,
        slots: r.nproc,
        ..SchedulerConfig::default()
    });
    let builder = asyrgs_builder(r, r.nproc).term(Termination::sweeps(1));
    let mut run = ServeRun::default();
    for tenant in 1..=2 {
        let job = SolveJob::new(builder.clone(), Arc::new(r.a.clone()), r.b.to_vec())
            .with_tenant(TenantId(tenant));
        let sent = Instant::now();
        let handle = sched.submit(job).expect("probe job is valid");
        let after_submit = Instant::now();
        let out = handle.wait();
        run.jobs.push(JobRec {
            due: sent,
            sent,
            after_submit,
            done: Some(after_submit + out.stats.queued + out.stats.service),
            ok: out.result.is_ok(),
            refused: false,
            target_miss: false,
            stats: Some(out.stats),
        });
    }
    run.registry = sched.registry_stats();
    run.retried = sched.stats().retried;
    run
}

/// serve and loadgen layers from what the load generator recorded:
/// admission, queueing and service from the open-loop jobs (they set the
/// latency metrics), batching from the burst jobs (they set the
/// throughput), the rest from both. A run without bursts takes its
/// batching from its open-loop jobs.
pub fn traffic(run: &ServeRun, m: &mut Metrics) {
    let dispatched = |jobs: &[JobRec]| -> Vec<JobStats> {
        jobs.iter()
            .filter_map(|j| j.stats)
            .filter(|s| s.batch_size > 0)
            .collect()
    };
    let open = dispatched(&run.jobs);
    let batched = if run.burst_jobs.is_empty() {
        open.clone()
    } else {
        dispatched(&run.burst_jobs)
    };
    let all: Vec<&JobRec> = run.jobs.iter().chain(&run.burst_jobs).collect();
    let submit: Vec<f64> = run
        .jobs
        .iter()
        .map(|j| (j.after_submit - j.sent).as_secs_f64() * 1e3)
        .collect();
    let ms = |f: fn(&JobStats) -> std::time::Duration| -> Vec<f64> {
        open.iter().map(|s| f(s).as_secs_f64() * 1e3).collect()
    };
    let (queue, service) = (ms(|s| s.queued), ms(|s| s.service));
    let batch: Vec<f64> = batched.iter().map(|s| s.batch_size as f64).collect();
    m.set("serve.submit_ms_p50", stats::median(&submit));
    m.set("serve.submit_ms_p99", stats::percentile(&submit, 99.0));
    m.set("serve.queue_ms_p50", stats::median(&queue));
    m.set("serve.queue_ms_p99", stats::percentile(&queue, 99.0));
    m.set("serve.service_ms_p50", stats::median(&service));
    m.set("serve.service_ms_p99", stats::percentile(&service, 99.0));
    m.set("serve.batch_size_mean", stats::mean(&batch));
    m.set(
        "serve.coalesced_share",
        stats::share(
            batched.iter().filter(|s| s.batch_size > 1).count(),
            batched.len(),
        ),
    );
    m.set("serve.dedup_hit_share", run.registry.hit_rate());
    let stats_all: Vec<JobStats> = all
        .iter()
        .filter_map(|j| j.stats)
        .filter(|s| s.batch_size > 0)
        .collect();
    m.set(
        "serve.warm_start_share",
        stats::share(
            stats_all.iter().filter(|s| s.warm_started).count(),
            stats_all.len(),
        ),
    );
    m.set("serve.policy_probes", run.registry.policy_probes as f64);
    m.set("serve.policy_hits", run.registry.policy_hits as f64);
    m.set("serve.retried", run.retried as f64);
    m.set(
        "serve.refused",
        all.iter().filter(|j| j.refused).count() as f64,
    );
    m.set(
        "serve.target_misses",
        all.iter().filter(|j| j.target_miss).count() as f64,
    );
    m.set("loadgen.late_ms_p99", stats::percentile(&run.late_ms, 99.0));
}
