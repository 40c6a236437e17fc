//! `ingest-sw`: the paper's estimator served live. One `serve
//! --reactor-threads 1` process for `sw-ems:eps=1,d=1024`, two sequenced
//! sessions over loopback, 64 reports per frame, open loop: a fixed
//! reference rate, then a ladder of fixed higher rates.

use crate::client::{self, probe_setup};
use crate::inproc::{self, Replay};
use crate::layers;
use crate::openloop::{self, Step, StepResult};
use crate::plan::{Plan, SessionPlan, Window};
use crate::report::Outcome;
use crate::serve::{cross_check, fresh_dir, read_summary, render_estimates, Counted, Serve};
use crate::stats::{quantile, segmented_quantile};
use crate::Ctx;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SPEC: &str = "sw-ems:eps=1,d=1024";
const REPORTS_PER_FRAME: usize = 64;
/// Distinct frame bodies; frames are reused across the run.
const POOL_FRAMES: usize = 2048;
/// The reference rate, about 60% of the collector's closed-loop capacity
/// when the benchmark was defined.
const REFERENCE_RPS: f64 = 1.0e6;
/// The ladder: fixed rates 7% apart, up to 3.4× the reference.
const LADDER_RATIO: f64 = 1.07;
const LADDER_STEPS: usize = 18;
/// Share of `--seconds` spent at the reference rate, and in each ladder
/// step. Steps are long enough that a 7% overload queues well past the
/// queue limit, while sporadic stalls do not.
const REFERENCE_SHARE: f64 = 0.3;
const STEP_SHARE: f64 = 0.04;
/// The ladder stops after this many consecutive overloaded steps.
const STOP_AFTER: usize = 2;
/// Stretches of the reference phase for its tail and lateness quantiles.
const SEGMENTS: usize = 7;
/// Set-up samples per run: probe processes, plus the measured serve.
const SETUP_PROBES: usize = 12;
/// Untraced in-process passes over the first `INPROC_FRAMES` frames.
const INPROC_PASSES: usize = 61;
const INPROC_FRAMES: u64 = 2_000;

fn plan(seed: u64) -> Result<(Plan, Duration, u64), String> {
    let windows = vec![Window {
        route: None,
        spec: SPEC,
        family: "sw-ems",
    }];
    let (mut plan, cost) = Plan::generate(windows, &[POOL_FRAMES], REPORTS_PER_FRAME, seed)?;
    plan.sessions = (0..2)
        .map(|i| SessionPlan {
            id: format!("sw-{seed}-{i}"),
            window: 0,
            offset: i * POOL_FRAMES / 2,
            frames: 0,
        })
        .collect();
    let (t, n) = cost[0];
    Ok((plan, t, n))
}

fn schedule(seconds: f64) -> Vec<Step> {
    let mut steps = vec![Step {
        rate: REFERENCE_RPS,
        duration: Duration::from_secs_f64(seconds * REFERENCE_SHARE),
    }];
    let step = Duration::from_secs_f64(seconds * STEP_SHARE);
    let mut rate = REFERENCE_RPS;
    for _ in 0..LADDER_STEPS {
        rate *= LADDER_RATIO;
        steps.push(Step {
            rate,
            duration: step,
        });
    }
    steps
}

/// The served leg's results.
struct Served {
    plan: Plan,
    setup: Vec<Duration>,
    steps: Vec<StepResult>,
    cpu_ns_per_report: f64,
    peak_rss_mb: f64,
    /// Last end-of-stream ack → the exiting serve's `--finalize` output.
    exit_finalize_ms: f64,
    snapshot_path: PathBuf,
    estimate: String,
    snapshot: String,
    reports: u64,
    attempted: u64,
    failed: u64,
    gen_ns_per_report: f64,
    lateness_p99_ms: f64,
}

fn serve_leg(ctx: &Ctx, seconds: f64) -> Result<Served, String> {
    let (mut plan, gen_time, gen_reports) = plan(ctx.seed)?;
    let dir = fresh_dir(&ctx.run_dir, "ingest-sw")?;
    // No cadence snapshots: only each sequenced end-of-stream writes one.
    let base = |name: &str| -> Vec<String> {
        let mut a = plan.serve_window_args();
        a.extend(["--reactor-threads".into(), "1".into()]);
        a.extend([
            "--snapshot".into(),
            dir.join(format!("{name}.snap")).display().to_string(),
        ]);
        a
    };
    // The collector and the generator get CPUs of their own (the last CPU
    // for the generator, the rest for `serve`, which inherits the mask of
    // the thread that spawns it), so where the scheduler happens to place
    // three busy threads on two CPUs does not decide the latency tail.
    let pinned = crate::sys::AffinityGuard::save().map_err(|e| e.to_string())?;
    let split = pinned.split();
    if let Some((serve_cpus, _)) = &split {
        crate::sys::set_affinity(serve_cpus).map_err(|e| e.to_string())?;
    }
    let mut setup = Vec::new();
    for i in 0..SETUP_PROBES {
        setup.push(probe_setup(
            &ctx.bin,
            &base(&format!("probe{i}")),
            &format!("probe-{i}"),
        )?);
    }
    let summary_path = dir.join("summary.json");
    let mut args = base("sw");
    args.extend([
        "--connections".into(),
        "2".into(),
        "--summary-json".into(),
        summary_path.display().to_string(),
        "--finalize".into(),
    ]);
    let serve = Serve::spawn(&ctx.bin, &args)?;
    if let Some((_, generator_cpu)) = &split {
        crate::sys::set_affinity(generator_cpu).map_err(|e| e.to_string())?;
    }
    let mut streams = Vec::new();
    for sp in &plan.sessions {
        let mut s = client::connect(serve.addr)?;
        client::hello(&mut s, &sp.id, None)?;
        if streams.is_empty() {
            setup.push(serve.spawned.elapsed());
        }
        streams.push(s);
    }
    let mut sessions = plan.sessions.clone();
    let limit_ms = ctx.limit("queue_limit_ms")?;
    let (steps, counts, streams) = openloop::drive(
        &plan,
        &mut sessions,
        streams,
        &schedule(seconds),
        (STOP_AFTER, limit_ms),
        serve.pid(),
    )?;
    plan.sessions = sessions;
    for (mut s, sp) in streams.into_iter().zip(&plan.sessions) {
        client::close(&mut s, &sp.id)?;
    }
    let last_eos = Instant::now();
    let done = serve.finish()?;
    drop(pinned);
    let summary = read_summary(&summary_path)?;
    let reports = plan.total_reports();
    let acked = counts.frames_acked * REPORTS_PER_FRAME as u64;
    cross_check(
        &summary,
        &Counted {
            reports: acked,
            accepted: 2,
            completed: 2,
            failed: 0,
            sheds: counts.sheds,
        },
    )?;
    if acked != reports {
        return Err(format!("acked {acked} reports but sent {reports}"));
    }
    let snapshot_path = dir.join("sw.snap");
    let snapshot = std::fs::read_to_string(&snapshot_path)
        .map_err(|e| format!("reading the final snapshot: {e}"))?;
    // Open-loop validity: the generator must have kept its schedule at
    // the reference rate, or the latencies measure the generator. Host
    // stalls pause the generator and the collector alike and show as
    // sporadic lateness; a generator short of CPU lags persistently,
    // which the p90 catches.
    let lateness_p99_ms = segmented_quantile(&steps[0].lateness_ms, 0.99, SEGMENTS);
    let lateness_p90_ms = segmented_quantile(&steps[0].lateness_ms, 0.9, SEGMENTS);
    let max_lateness = ctx.limit("generator_lateness_p90_max_ms")?;
    if lateness_p90_ms > max_lateness {
        return Err(format!(
            "run invalid: generator lateness p90 {lateness_p90_ms:.3} ms at the reference rate \
             exceeds {max_lateness} ms"
        ));
    }
    // CPU per report at the reference rate: a fixed load, unlike the whole
    // run, whose ladder ends where the collector saturates.
    let reference = &steps[0];
    let cpu_ns_per_report = reference.serve_cpu.as_nanos() as f64
        / (reference.latency_ms.len() * REPORTS_PER_FRAME) as f64;
    // Attempted: every data frame, plus each session's connect, hello and
    // end-of-stream.
    let attempted = counts.frames_sent + 3 * plan.sessions.len() as u64;
    Ok(Served {
        setup,
        steps,
        cpu_ns_per_report,
        peak_rss_mb: done.usage.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        exit_finalize_ms: (done.stdout_closed - last_eos).as_secs_f64() * 1e3,
        snapshot_path,
        estimate: done.stdout,
        snapshot,
        reports,
        attempted,
        failed: counts.nacks + counts.sheds + counts.lost,
        gen_ns_per_report: gen_time.as_nanos() as f64 / gen_reports as f64,
        lateness_p99_ms,
        plan,
    })
}

/// The highest ladder step (the reference included) that sustained its
/// rate: (offered rate, delivered rate, i.e. its reports over the time
/// from its start to its last ack). When not even the reference rate is
/// sustained, the reference step's delivered rate, which then falls short
/// of what was offered.
fn sustained(served: &Served, limit_ms: f64) -> (f64, f64) {
    let delivered = |s: &StepResult| (s.rate, s.acked_reports as f64 / s.active_seconds);
    served
        .steps
        .iter()
        .filter(|s| s.sustains(limit_ms, REPORTS_PER_FRAME))
        .map(delivered)
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or_else(|| delivered(&served.steps[0]))
}

/// The served window must equal the serial in-process replay of the same
/// frames bit for bit: the final snapshot, the exiting serve's estimate,
/// and the estimate rendered from the snapshot.
fn check_identical(served: &Served, replay: &Replay, rendered: &str) -> Result<(), String> {
    let session = &replay.sessions[0];
    if session.snapshot_text() != served.snapshot {
        return Err("served snapshot differs from the serial in-process ingest".into());
    }
    let estimate = session.finalize_text().map_err(|e| e.to_string())?;
    if estimate != served.estimate || estimate != rendered {
        return Err("served estimate differs from the serial in-process ingest".into());
    }
    Ok(())
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let served = serve_leg(ctx, ctx.seconds)?;
    let limit = ctx.limit("queue_limit_ms")?;
    let (offered, sustained_rps) = sustained(&served, limit);
    let (finalize_ms, finalize_wall_ms, rendered) =
        render_estimates(&ctx.bin, &[(SPEC, served.snapshot_path.clone())])?;
    let replay = inproc::replay(&served.plan, None, None, None)?;
    check_identical(&served, &replay, &rendered[0])?;
    let inproc_ns = inproc::ns_per_report(&served.plan, INPROC_FRAMES, INPROC_PASSES)?;
    let reference = &served.steps[0];
    let mut out = Outcome {
        attempted: served.attempted,
        failed: served.failed,
        ..Outcome::default()
    };
    let n_ref = reference.latency_ms.len() as u64;
    out.metric(
        "setup_s",
        client::median_s(&served.setup),
        "s",
        served.setup.len() as u64,
    );
    // The ladder's sustained rate follows the collector's capacity, which
    // moved by 13-54% (quartile spread over ten runs) between runs on the
    // 2-vCPU host; it is recorded below, unbounded. The bounded throughput
    // is the rate delivered under the fixed reference load.
    out.metric(
        "throughput_per_s",
        reference.acked_reports as f64 / reference.active_seconds,
        "1/s",
        n_ref * REPORTS_PER_FRAME as u64,
    );
    out.metric(
        "latency_p50_ms",
        quantile(&reference.latency_ms, 0.5),
        "ms",
        n_ref,
    );
    out.fact(
        "ack_p99_ms",
        crate::json::num(quantile(&reference.latency_ms, 0.99)),
    );
    out.metric(
        "cpu_ns_per_report",
        served.cpu_ns_per_report,
        "ns",
        n_ref * REPORTS_PER_FRAME as u64,
    );
    out.fact("inproc_ns_per_report", crate::json::num(inproc_ns));
    out.fact("finalize_cpu_ms", crate::json::num(finalize_ms));
    out.metric("peak_rss_mb", served.peak_rss_mb, "MB", 1);
    out.fact("sustained_rps", crate::json::num(sustained_rps));
    out.fact("sustained_offered_rps", crate::json::num(offered));
    out.fact("queue_limit_ms", crate::json::num(limit));
    out.fact(
        "wire_bytes_per_report",
        crate::json::num(served.plan.wire_bytes_per_report(None)),
    );
    out.fact(
        "generator_lateness_p99_ms",
        crate::json::num(served.lateness_p99_ms),
    );
    out.fact(
        "exit_finalize_ms",
        crate::json::num(served.exit_finalize_ms),
    );
    out.fact("finalize_wall_ms", crate::json::num(finalize_wall_ms));
    out.fact("reactor_threads", "1".into());
    out.fact("ladder", ladder_json(&served));
    Ok(out)
}

fn ladder_json(served: &Served) -> String {
    let rows: Vec<String> = served
        .steps
        .iter()
        .filter(|s| !s.latency_ms.is_empty())
        .map(|s| {
            format!(
                "{{\"offered_rps\":{},\"delivered_rps\":{},\"ack_p50_ms\":{},\"ack_p99_ms\":{},\
                 \"lateness_p99_ms\":{},\"backlog_max\":{},\"queued_ms\":{},\"frames\":{}}}",
                s.rate,
                s.acked_reports as f64 / s.active_seconds,
                quantile(&s.latency_ms, 0.5),
                quantile(&s.latency_ms, 0.99),
                quantile(&s.lateness_ms, 0.99),
                s.backlog.iter().copied().fold(0.0, f64::max),
                s.queued_ms(REPORTS_PER_FRAME),
                s.latency_ms.len()
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The traced run's share of this workload: a shorter served leg for the
/// server-side numbers, the ledger over part of the same frames, and
/// direct layer timings.
pub fn trace(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let served = serve_leg(ctx, seconds)?;
    let full = inproc::replay(&served.plan, None, None, None)?;
    check_identical(&served, &full, &served.estimate)?;
    let ledger = crate::ledger::ingest_ledger(
        &served.plan,
        INPROC_FRAMES,
        "ingest-sw",
        ctx.limit("ledger_tolerance_pct")?,
    )?;
    let session = &full.sessions[0];
    let fam = "sw-ems";
    let mut out = Outcome {
        attempted: served.attempted,
        failed: served.failed,
        ..Outcome::default()
    };
    out.metric(
        "serve.residual_ns_per_report.ingest-sw",
        served.cpu_ns_per_report - ledger.inproc_ns_per_report,
        "ns",
        served.reports,
    );
    ledger.family_metrics(0, fam, &mut out);
    layers::family_metrics(fam, session.as_ref(), &served.plan.pools[0], &mut out)?;
    out.metric(
        format!("wire.bytes_per_report.{fam}"),
        served.plan.wire_bytes_per_report(None),
        "bytes",
        served.reports,
    );
    out.metric(
        format!("loadgen.gen_ns_per_report.{fam}"),
        served.gen_ns_per_report,
        "ns",
        (POOL_FRAMES * REPORTS_PER_FRAME) as u64,
    );
    out.metric(
        "loadgen.lateness_ms_p99",
        served.lateness_p99_ms,
        "ms",
        served.steps[0].lateness_ms.len() as u64,
    );
    ledger.ledger_metrics("ingest-sw", &mut out);
    out.trace = ledger.trace;
    Ok(out)
}
