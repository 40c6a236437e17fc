//! `ingest-mixed`: the frequency-oracle and mean baselines served behind
//! one listener under session churn. Default window `pm:eps=1`, routed
//! windows `oue` and `hh` (`hh-admm`, d = 1024); two connection slots open
//! sequenced sessions back to back, round-robin over the windows, 1024
//! reports per frame, closed loop; every window writes rotating cadence
//! snapshots, and every end-of-stream waits for a durable one.

use crate::client::{self, probe_setup};
use crate::inproc::{self, Replay};
use crate::layers;
use crate::plan::{push_data, Plan, SessionPlan, Window};
use crate::report::Outcome;
use crate::serve::{cross_check, fresh_dir, read_summary, render_estimates, Counted, Serve};
use crate::stats::quantile;
use crate::Ctx;
use ldp_collector::session::CollectorSession;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const REPORTS_PER_FRAME: usize = 1024;
/// Distinct frame bodies per window (OUE reports cost ~10 µs each to
/// generate, so frames are reused across sessions).
const POOL_FRAMES: [usize; 3] = [16, 16, 64];
/// Data frames per session.
const FRAMES_PER_SESSION: usize = 24;
/// Sessions per second of `--seconds`, sized so the served leg takes
/// about 40% of the run on a 2-core host.
const SESSIONS_PER_SECOND: f64 = 12.0;
const SLOTS: usize = 2;
const SNAPSHOT_EVERY: u64 = 200_000;
const SNAPSHOT_KEEP: u64 = 2;
const SETUP_PROBES: usize = 12;
/// Untraced in-process passes over the first `INPROC_FRAMES` frames (the
/// ledger replays the same frames).
const INPROC_PASSES: usize = 9;
const INPROC_FRAMES: u64 = 150;

fn windows() -> Vec<Window> {
    vec![
        Window {
            route: None,
            spec: "pm:eps=1",
            family: "pm",
        },
        Window {
            route: Some("oue"),
            spec: "oue:eps=1,d=1024",
            family: "oue",
        },
        Window {
            route: Some("hh"),
            spec: "hh-admm:eps=1,d=1024",
            family: "hh-admm",
        },
    ]
}

fn plan(seed: u64, seconds: f64) -> Result<(Plan, Vec<(Duration, u64)>), String> {
    let (mut plan, cost) = Plan::generate(windows(), &POOL_FRAMES, REPORTS_PER_FRAME, seed)?;
    let sessions = ((seconds * SESSIONS_PER_SECOND).round() as usize).max(3);
    plan.sessions = (0..sessions)
        .map(|g| SessionPlan {
            id: format!("mixed-{seed}-{g}"),
            window: g % 3,
            offset: g * 5,
            frames: FRAMES_PER_SESSION,
        })
        .collect();
    Ok((plan, cost))
}

/// What one connection slot saw.
#[derive(Default)]
struct SlotLog {
    latency_ms: Vec<f64>,
    eos_ms: Vec<f64>,
    frames: u64,
    sessions: u64,
    failed_sessions: u64,
    connect_failures: u64,
    nacks: u64,
    sheds: u64,
    last_eos: Option<Instant>,
    /// When the slot's first hello was acked (the measured serve's
    /// set-up sample).
    first_hello: Option<Instant>,
}

/// Runs the sessions `slot, slot + SLOTS, …` back to back, closed loop.
fn run_slot(plan: &Plan, addr: std::net::SocketAddr, slot: usize) -> SlotLog {
    let mut log = SlotLog::default();
    let mut buf = Vec::new();
    for sp in plan.sessions.iter().skip(slot).step_by(SLOTS) {
        log.sessions += 1;
        let mut s = match client::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                log.connect_failures += 1;
                continue;
            }
        };
        let route = plan.windows[sp.window].route;
        if client::hello(&mut s, &sp.id, route).is_err() {
            log.failed_sessions += 1;
            continue;
        }
        log.first_hello.get_or_insert_with(Instant::now);
        let mut ok = true;
        for k in 0..sp.frames {
            buf.clear();
            push_data(&mut buf, k as u64, plan.body(sp, k));
            let t = Instant::now();
            let ack = s
                .write_all(&buf)
                .map_err(|e| e.to_string())
                .and_then(|()| client::read_ack(&mut s, 1));
            match ack.as_deref() {
                Ok(b"+") => {
                    log.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    log.frames += 1;
                }
                Ok(b"!") => {
                    log.sheds += 1;
                    ok = false;
                    break;
                }
                Ok(_) => {
                    log.nacks += 1;
                    ok = false;
                    break;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let t = Instant::now();
        if !ok || client::close(&mut s, &sp.id).is_err() {
            log.failed_sessions += 1;
            continue;
        }
        let now = Instant::now();
        log.eos_ms.push((now - t).as_secs_f64() * 1e3);
        log.last_eos = Some(now);
    }
    log
}

struct Served {
    plan: Plan,
    setup: Vec<Duration>,
    /// Ack latency of every data frame.
    latency_ms: Vec<f64>,
    eos_ms: Vec<f64>,
    ingest_rps: f64,
    cpu_ns_per_report: f64,
    peak_rss_mb: f64,
    finalize_ms: f64,
    finalize_wall_ms: f64,
    exit_finalize_ms: f64,
    /// Per window: (final snapshot, rendered estimate).
    outputs: Vec<(String, String)>,
    summary: crate::json::Json,
    reports: u64,
    attempted: u64,
    failed: u64,
    gen: Vec<(Duration, u64)>,
}

fn snapshot_path(dir: &std::path::Path, route: Option<&str>) -> PathBuf {
    match route {
        None => dir.join("mixed.snap"),
        Some(r) => dir.join(format!("mixed.snap.{r}")),
    }
}

fn serve_leg(ctx: &Ctx, seconds: f64) -> Result<Served, String> {
    let (plan, gen) = plan(ctx.seed, seconds)?;
    let dir = fresh_dir(&ctx.run_dir, "ingest-mixed")?;
    let base = |name: &str| -> Vec<String> {
        let mut a = plan.serve_window_args();
        a.extend([
            "--reactor-threads".to_string(),
            "2".to_string(),
            "--snapshot".to_string(),
            dir.join(name).display().to_string(),
            "--snapshot-every".to_string(),
            SNAPSHOT_EVERY.to_string(),
            "--keep".to_string(),
            SNAPSHOT_KEEP.to_string(),
        ]);
        a
    };
    let mut setup = Vec::new();
    for i in 0..SETUP_PROBES {
        setup.push(probe_setup(
            &ctx.bin,
            &base(&format!("probe{i}.snap")),
            &format!("probe-{i}"),
        )?);
    }
    let summary_path = dir.join("summary.json");
    let mut args = base("mixed.snap");
    args.extend([
        "--connections".to_string(),
        plan.sessions.len().to_string(),
        "--summary-json".to_string(),
        summary_path.display().to_string(),
        "--finalize".to_string(),
    ]);
    let serve = Serve::spawn(&ctx.bin, &args)?;
    let addr = serve.addr;
    let started = Instant::now();
    let plan_ref = &plan;
    let logs: Vec<SlotLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SLOTS)
            .map(|slot| scope.spawn(move || run_slot(plan_ref, addr, slot)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slot thread panicked"))
            .collect()
    });
    let first_hello = logs
        .iter()
        .filter_map(|l| l.first_hello)
        .min()
        .ok_or("no session opened")?;
    setup.push(first_hello - serve.spawned);
    let last_eos = logs
        .iter()
        .filter_map(|l| l.last_eos)
        .max()
        .ok_or("no session completed")?;
    let wall = (last_eos - started).as_secs_f64();
    let done = serve.finish()?;
    let exit_finalize_ms = (done.stdout_closed - last_eos).as_secs_f64() * 1e3;
    let snapshots: Vec<(&str, PathBuf)> = plan
        .windows
        .iter()
        .map(|w| (w.spec, snapshot_path(&dir, w.route)))
        .collect();
    let (finalize_ms, finalize_wall_ms, rendered) = render_estimates(&ctx.bin, &snapshots)?;
    if rendered[0] != done.stdout {
        return Err("pm: the exiting serve's estimate differs from the rendered one".into());
    }
    let outputs = snapshots
        .iter()
        .zip(rendered)
        .map(|((_, path), estimate)| Ok((read(path)?, estimate)))
        .collect::<Result<Vec<_>, String>>()?;
    let summary = read_summary(&summary_path)?;
    let sum = |f: fn(&SlotLog) -> u64| logs.iter().map(f).sum::<u64>();
    let frames_acked = sum(|l| l.frames);
    let sessions = sum(|l| l.sessions);
    let failed_sessions = sum(|l| l.failed_sessions);
    let connect_failures = sum(|l| l.connect_failures);
    let (nacks, sheds) = (sum(|l| l.nacks), sum(|l| l.sheds));
    let acked = frames_acked * REPORTS_PER_FRAME as u64;
    cross_check(
        &summary,
        &Counted {
            reports: acked,
            accepted: sessions - connect_failures,
            completed: sessions - connect_failures - failed_sessions,
            failed: failed_sessions,
            sheds,
        },
    )?;
    let evictions = summary.req_num("evictions")? as u64;
    let failed = nacks + sheds + evictions + failed_sessions + connect_failures;
    // Attempted: every frame (hello, data, end-of-stream) and every
    // session's connect.
    let attempted = plan
        .sessions
        .iter()
        .map(|s| s.frames as u64 + 3)
        .sum::<u64>();
    let reports = plan.total_reports();
    if failed == 0 && acked != reports {
        return Err(format!("acked {acked} reports but sent {reports}"));
    }
    let mut latency_ms = Vec::new();
    let mut eos_ms = Vec::new();
    for l in &logs {
        latency_ms.extend_from_slice(&l.latency_ms);
        eos_ms.extend_from_slice(&l.eos_ms);
    }
    Ok(Served {
        setup,
        latency_ms,
        eos_ms,
        ingest_rps: acked as f64 / wall,
        cpu_ns_per_report: done.usage.cpu.as_nanos() as f64 / acked.max(1) as f64,
        peak_rss_mb: done.usage.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        finalize_ms,
        finalize_wall_ms,
        exit_finalize_ms,
        outputs,
        summary,
        reports: acked,
        attempted,
        failed,
        gen,
        plan,
    })
}

fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Every window's served snapshot and estimate must be bit-identical to
/// the serial in-process ingest of the same frames.
///
/// One exception is the format's own: a mean window's `ExactSum`
/// expansion depends on the order its reports were merged in, so its
/// snapshot bytes may differ while the state is *operationally
/// identical* (WIRE_FORMAT.md, "Restore guarantee"). For that family a
/// byte mismatch is accepted only when the restored served snapshot has
/// the same count and dedup cursors as the serial state, and finalizes
/// bit-identically both as is and after absorbing one more frame.
fn check_identical(served: &Served, replay: &Replay) -> Result<(), String> {
    for (w, (session, (snapshot, estimate))) in
        replay.sessions.iter().zip(&served.outputs).enumerate()
    {
        let window = &served.plan.windows[w];
        let name = window.family;
        let finalize = |s: &dyn CollectorSession| s.finalize_text().map_err(|e| e.to_string());
        if finalize(session.as_ref())? != *estimate {
            return Err(format!(
                "{name}: served estimate differs from the serial ingest"
            ));
        }
        if session.snapshot_text() == *snapshot {
            continue;
        }
        let differs = || format!("{name}: served snapshot differs from the serial ingest");
        if name != "pm" {
            return Err(differs());
        }
        let mut restored = ldp_collector::build_session(window.spec).map_err(|e| e.to_string())?;
        restored.restore(snapshot).map_err(|e| e.to_string())?;
        let mut serial = ldp_collector::build_session(window.spec).map_err(|e| e.to_string())?;
        serial
            .restore(&session.snapshot_text())
            .map_err(|e| e.to_string())?;
        if restored.count() != serial.count()
            || restored.session_cursors() != serial.session_cursors()
            || finalize(restored.as_ref())? != finalize(serial.as_ref())?
        {
            return Err(differs());
        }
        let probe = &served.plan.pools[w][0];
        for s in [&mut restored, &mut serial] {
            s.ingest_text(probe).map_err(|e| e.to_string())?;
        }
        if finalize(restored.as_ref())? != finalize(serial.as_ref())? {
            return Err(differs());
        }
    }
    Ok(())
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let served = serve_leg(ctx, ctx.seconds)?;
    if served.failed > 0 {
        return Err(format!("{} operations failed", served.failed));
    }
    let replay = inproc::replay(&served.plan, None, None, None)?;
    check_identical(&served, &replay)?;
    let inproc_ns = inproc::ns_per_report(&served.plan, INPROC_FRAMES, INPROC_PASSES)?;
    let mut out = Outcome {
        attempted: served.attempted,
        failed: served.failed,
        ..Outcome::default()
    };
    let n = served.latency_ms.len() as u64;
    out.metric(
        "setup_s",
        client::median_s(&served.setup),
        "s",
        served.setup.len() as u64,
    );
    out.metric("throughput_per_s", served.ingest_rps, "1/s", served.reports);
    out.metric("latency_p50_ms", quantile(&served.latency_ms, 0.5), "ms", n);

    out.metric(
        "cpu_ns_per_report",
        served.cpu_ns_per_report,
        "ns",
        served.reports,
    );
    out.fact("inproc_ns_per_report", crate::json::num(inproc_ns));
    out.fact("finalize_cpu_ms", crate::json::num(served.finalize_ms));
    out.metric("peak_rss_mb", served.peak_rss_mb, "MB", 1);
    out.fact(
        "exit_finalize_ms",
        crate::json::num(served.exit_finalize_ms),
    );
    out.fact(
        "finalize_wall_ms",
        crate::json::num(served.finalize_wall_ms),
    );
    out.fact(
        "ack_p99_ms",
        crate::json::num(quantile(&served.latency_ms, 0.99)),
    );
    out.fact(
        "eos_ack_p50_ms",
        crate::json::num(quantile(&served.eos_ms, 0.5)),
    );
    out.fact(
        "wire_bytes_per_report",
        crate::json::num(served.plan.wire_bytes_per_report(None)),
    );
    out.fact("reactor_threads", "2".into());
    Ok(out)
}

/// The traced run's share of this workload: a shorter served leg for the
/// server counters, the ledger over part of the same frames, and direct
/// layer timings per family, including snapshot rendering and writing.
pub fn trace(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let served = serve_leg(ctx, seconds)?;
    if served.failed > 0 {
        return Err(format!("{} operations failed", served.failed));
    }
    let full = inproc::replay(&served.plan, None, None, None)?;
    check_identical(&served, &full)?;
    let ledger = crate::ledger::ingest_ledger(
        &served.plan,
        INPROC_FRAMES,
        "ingest-mixed",
        ctx.limit("ledger_tolerance_pct")?,
    )?;
    let mut out = Outcome {
        attempted: served.attempted,
        failed: served.failed,
        ..Outcome::default()
    };
    out.metric(
        "serve.residual_ns_per_report.ingest-mixed",
        served.cpu_ns_per_report - ledger.inproc_ns_per_report,
        "ns",
        served.reports,
    );
    let dir = fresh_dir(&ctx.run_dir, "snapshot-write")?;
    let mut write_us = Vec::new();
    for (w, window) in served.plan.windows.iter().enumerate() {
        let fam = window.family;
        let session = full.sessions[w].as_ref();
        ledger.family_metrics(w, fam, &mut out);
        layers::family_metrics(fam, session, &served.plan.pools[w], &mut out)?;
        let text = session.snapshot_text();
        let render = layers::median_time(5, || session.snapshot_text());
        out.metric(
            format!("session.snapshot_text_us.{fam}"),
            render.as_secs_f64() * 1e6,
            "us",
            5,
        );
        out.metric(
            format!("snapshot.bytes.{fam}"),
            text.len() as f64,
            "bytes",
            1,
        );
        let path = dir.join(format!("{fam}.snap"));
        for _ in 0..3 {
            let t = Instant::now();
            ldp_collector::io::write_snapshot_rotating(&path, &text, SNAPSHOT_KEEP)
                .map_err(|e| e.to_string())?;
            write_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.metric(
            format!("wire.bytes_per_report.{fam}"),
            served.plan.wire_bytes_per_report(Some(w)),
            "bytes",
            full.sessions[w].count(),
        );
        let (t, n) = served.gen[w];
        out.metric(
            format!("loadgen.gen_ns_per_report.{fam}"),
            t.as_nanos() as f64 / n as f64,
            "ns",
            n,
        );
    }
    out.metric(
        "snapshot.write_us",
        crate::stats::median(&write_us),
        "us",
        write_us.len() as u64,
    );
    for (name, key, unit) in [
        (
            "serve.snapshots_superseded",
            "snapshots_superseded",
            "count",
        ),
        ("serve.peak_queue_bytes", "peak_queue_bytes", "bytes"),
        (
            "serve.duplicates_suppressed",
            "duplicates_suppressed",
            "count",
        ),
        ("serve.failed_sessions", "failed", "count"),
    ] {
        out.metric(name, served.summary.req_num(key)?, unit, 1);
    }
    out.metric(
        "serve.sheds",
        crate::serve::sheds(&served.summary)?,
        "count",
        1,
    );
    ledger.ledger_metrics("ingest-mixed", &mut out);
    out.trace = ledger.trace;
    Ok(out)
}
