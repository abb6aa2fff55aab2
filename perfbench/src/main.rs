//! The repository's benchmark: two workloads driven through public APIs
//! from one process, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload asyrgs_mem --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the timed
//! part untraced and then traced, measures each layer on the workload's
//! own inputs, prints every per-layer metric and writes the spans to
//! `perfbench-out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for what each workload and metric is for.

mod check;
mod host;
mod layers;
mod report;
mod serve;
mod solve;
mod stats;
mod trace;

use report::{Metrics, Tally, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 2] = ["asyrgs_mem", "serve_zipf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(45.0),
        trace: trace.unwrap_or(false),
    })
}

/// Set up `SETUP_REPS` times, keep the last set-up, and return it with
/// the median set-up time. The first set-up is timed from process start.
fn set_up<T>(origin: Instant, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t = if rep == 0 { origin } else { Instant::now() };
        kept = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::Host::probe();
    println!(
        "# host: nproc={} pool_width={} cpu=\"{}\" l2={} l3={}",
        host.nproc,
        host.pool_width,
        host.cpu_model,
        host.l2_bytes
            .map_or("unknown".into(), |b| format!("{:.1}MiB", host::mib(b))),
        host.l3_bytes
            .map_or("unknown".into(), |b| format!("{:.1}MiB", host::mib(b))),
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let tracer = Tracer::new(args.trace, origin);
    match args.workload.as_str() {
        "asyrgs_mem" => solve_workload(&args, &host, origin, &tracer, &mut m, &mut tally),
        _ => serve_workload(&args, &host, origin, &tracer, &mut m, &mut tally),
    }
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("ok_share", stats::share(tally.ok(), tally.attempted));

    let expected: &[(&str, &str)] = if args.trace {
        println!("# end-to-end (untraced phase of this traced run):");
        let _ = m.render(&END_TO_END);
        println!("# per-layer:");
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let rendered = m.render(expected);
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench-out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# {} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
    }
    match rendered {
        Ok(metrics) => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        ),
        Err(missing) => {
            eprintln!("perfbench: metrics missing or not finite: {missing:?}");
            std::process::exit(1);
        }
    }
}

fn working_set_line(bytes: u64, host: &host::Host) {
    println!(
        "# input: working_set={:.1}MiB l3={} ratio={}",
        host::mib(bytes),
        host.l3_bytes
            .map_or("unknown".into(), |b| format!("{:.1}MiB", host::mib(b))),
        host.l3_bytes.map_or("unknown".into(), |b| format!(
            "{:.2}",
            bytes as f64 / b as f64
        )),
    );
}

fn solve_workload(
    args: &Args,
    host: &host::Host,
    origin: Instant,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let nproc = host.nproc;
    let (mut case, setup_s) = set_up(origin, || solve::setup_asyrgs_mem(args.seed, nproc));
    m.set("setup_s", setup_s);
    println!(
        "# input: n={} nnz={} tol={:e} threads={nproc} (t=1 baseline: sequential RGS)",
        case.a.n_rows(),
        case.a.nnz(),
        case.tol,
    );
    working_set_line(case.working_set_bytes(), host);

    let off = Tracer::new(false, origin);
    let samples = solve::run(&mut case, args.seconds, solve::MIN_PAIRS, &off, tally);
    solve::end_to_end(&case, &samples, m);
    let iters = |v| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.variant == v)
            .filter_map(|s| s.report.as_ref().map(|r| r.iterations as f64))
            .collect()
    };
    let (par_iters, seq_iters) = (iters(solve::Variant::Par), iters(solve::Variant::Seq));
    println!(
        "# solves: {} at t={nproc} (iterations {:?}), {} at t=1 (iterations {:?}); seconds {:?}",
        par_iters.len(),
        par_iters,
        seq_iters.len(),
        seq_iters,
        samples
            .iter()
            .map(|s| (s.secs * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    if !args.trace {
        return;
    }

    let traced = solve::run(&mut case, 0.0, solve::MIN_PAIRS_TRACED, tracer, tally);
    let mut tm = Metrics::default();
    solve::end_to_end(&case, &traced, &mut tm);
    let (tts, tts_seq) = (
        m.get("tts_s").unwrap_or(f64::NAN),
        m.get("tts_seq_s").unwrap_or(f64::NAN),
    );
    m.set(
        "trace.overhead_share",
        tm.get("tts_s").unwrap_or(f64::NAN) / tts - 1.0,
    );
    m.set("core.speedup_vs_seq", tts_seq / tts);
    println!("# core.speedup_vs_seq = tts_seq_s {tts_seq:.4} s / tts_s {tts:.4} s");

    let r = layers::Reference {
        a: &case.a,
        b: &case.b,
        tol: case.tol,
        seed: args.seed,
        nproc,
    };
    let reports = |v| -> Vec<_> {
        samples
            .iter()
            .chain(&traced)
            .filter(|s| s.variant == v)
            .filter_map(|s| s.report.clone())
            .collect()
    };
    let (par, seq) = (reports(solve::Variant::Par), reports(solve::Variant::Seq));
    tracer.span("layer.kernels", None, None, || layers::kernels(&r, 1, m));
    tracer.span("layer.core", None, None, || layers::core(&r, &par, &seq, m));
    tracer.span("layer.krylov", None, None, || layers::krylov(&r, m));
    tracer.span("layer.session", None, None, || layers::session(&r, m));
    // decide_for on the full asyrgs_mem system takes about 50 s (its
    // spectral probe runs hundreds of matvecs), so the policy is timed on
    // the same generator at a sixteenth of the size.
    let policy_input = asyrgs::workloads::diag_dominant(
        solve::MEM_N / 16,
        solve::MEM_ROW_NNZ,
        solve::MEM_DOMINANCE,
        args.seed,
    );
    tracer.span("layer.admission", None, None, || {
        layers::admission(&[&policy_input], &[&case.a], m)
    });
    let mut probe = tracer.span("layer.serve", None, None, || layers::admission_probe(&r));
    probe.late_ms = samples.iter().map(|s| s.gap_ms).collect();
    layers::traffic(&probe, m);
}

fn serve_workload(
    args: &Args,
    host: &host::Host,
    origin: Instant,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let nproc = host.nproc;
    let open_seconds = args.seconds * serve::OPEN_SHARE;
    let (case, setup_s) = set_up(origin, || serve::setup(args.seed, nproc, open_seconds));
    m.set("setup_s", setup_s);
    println!(
        "# input: hot_matrices={} nnz_total={} tenants={} zipf_s={} runners: open loop {}, burst {nproc}",
        case.hot.mats.len(),
        case.hot.nnz(),
        serve::TENANTS,
        case.replay.zipf_s,
        serve::OPEN_RUNNERS,
    );
    println!(
        "# rounds: {} x (open loop for {:.2} s, one burst, {} direct pass pairs)",
        serve::ROUNDS,
        open_seconds / serve::ROUNDS as f64,
        serve::DIRECT_PAIRS
    );
    println!(
        "# open loop: one send every 1/{} s, every {}th job auto, an update every {} jobs, latency limit {} ms",
        serve::OPEN_RATE,
        serve::AUTO_EVERY,
        serve::UPDATE_EVERY,
        serve::OPEN_SLO_MS
    );
    println!(
        "# burst: {} cold + {} resubmit jobs per burst, fresh scheduler each",
        serve::BURST_JOBS,
        serve::BURST_RESUBMIT
    );
    working_set_line(case.hot.working_set_bytes(), host);

    let off = Tracer::new(false, origin);
    let untraced = serve::run(&case, args.seconds, &off, tally);
    serve::end_to_end(&untraced, m);
    report_jobs(&untraced);
    if !args.trace {
        return;
    }

    // The traced phase starts from a fresh set-up, as the untraced one did.
    drop(case);
    let case = serve::setup(args.seed, nproc, open_seconds);
    let traced = serve::run(&case, args.seconds, tracer, tally);
    let mut tm = Metrics::default();
    serve::end_to_end(&traced, &mut tm);
    let base = m.get("job_p50_ms").unwrap_or(f64::NAN);
    m.set(
        "trace.overhead_share",
        tm.get("job_p50_ms").unwrap_or(f64::NAN) / base - 1.0,
    );
    let (tts, tts_seq) = (
        m.get("tts_s").unwrap_or(f64::NAN),
        m.get("tts_seq_s").unwrap_or(f64::NAN),
    );
    m.set("core.speedup_vs_seq", tts_seq / tts);
    println!("# core.speedup_vs_seq = tts_seq_s {tts_seq:.6} s / tts_s {tts:.6} s (direct passes)");

    let hot = &case.hot;
    let r = layers::Reference {
        a: &hot.mats[0],
        b: &hot.bs[0],
        tol: serve::JOB_TARGET,
        seed: args.seed,
        nproc,
    };
    let width = stats::mean(
        &traced
            .burst_jobs
            .iter()
            .filter_map(|j| j.stats)
            .filter(|s| s.batch_size > 0)
            .map(|s| s.batch_size as f64)
            .collect::<Vec<_>>(),
    );
    tracer.span("layer.kernels", None, None, || {
        layers::kernels(&r, width.round() as usize, m)
    });
    tracer.span("layer.core", None, None, || layers::core(&r, &[], &[], m));
    tracer.span("layer.krylov", None, None, || layers::krylov(&r, m));
    tracer.span("layer.session", None, None, || layers::session(&r, m));
    let mats: Vec<&asyrgs::prelude::CsrMatrix> = hot.mats.iter().map(|a| a.as_ref()).collect();
    tracer.span("layer.admission", None, None, || {
        layers::admission(&mats, &mats, m)
    });
    layers::traffic(&traced, m);
}

fn report_jobs(run: &serve::ServeRun) {
    for (name, jobs) in [("open loop", &run.jobs), ("burst", &run.burst_jobs)] {
        let completed = jobs.iter().filter(|j| j.done.is_some()).count();
        let ok = jobs.iter().filter(|j| j.ok).count();
        let refused = jobs.iter().filter(|j| j.refused).count();
        println!(
            "# jobs ({name}): sent={} succeeded={} failed={} refused={}",
            jobs.len(),
            ok,
            completed - ok,
            refused,
        );
    }
    println!(
        "# bursts={} direct_passes={}",
        run.jobs_per_s.len(),
        run.direct.len()
    );
}
