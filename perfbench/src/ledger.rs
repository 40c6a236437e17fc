//! The ingest ledger: the in-process leg's per-report time split into the
//! self times of its stages, with what no stage covers left over as
//! `ledger.unattributed_ns_per_report`, and the tracing overhead.

use crate::inproc;
use crate::plan::Plan;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Untraced/traced replay pairs; the medians are compared.
const PAIRS: usize = 3;

/// Stage self times of the traced in-process leg.
pub struct IngestLedger {
    /// Frames replayed (hello, data and end-of-stream).
    pub frames: u64,
    /// Reports replayed.
    pub reports: u64,
    /// `Machine::on_bytes` minus its child `prepare`, plus
    /// `Machine::commit_done`, per frame.
    pub machine_self_ns_per_frame: f64,
    /// The absorber's commit minus its child `absorb_prepared` (the dedup
    /// cursor check and advance), per frame.
    pub absorber_self_ns_per_frame: f64,
    /// Per window: (reports, prepare ns, absorb_prepared ns).
    per_window: Vec<(u64, f64, f64)>,
    /// Untraced in-process CPU ns per report over the same frames.
    pub inproc_ns_per_report: f64,
    /// Traced frame time not covered by any stage span, per report.
    pub unattributed_ns_per_report: f64,
    /// Traced versus untraced in-process CPU time, in percent.
    pub overhead_pct: f64,
    /// Span and count lines for the trace file.
    pub trace: String,
}

/// Replays the first `max_frames` data frames of `plan` untraced and
/// traced, alternating, and builds the ledger from the last traced
/// replay. Each frame's span must be covered by its stage spans
/// (`Machine::on_bytes`, `BatchDecoder::prepare`, the absorber's commit,
/// `CollectorSession::absorb_prepared`, `Machine::commit_done`) to within
/// `tolerance_pct`, or the ledger fails: time outside every stage means a
/// layer is missing from it.
pub fn ingest_ledger(
    plan: &Plan,
    max_frames: u64,
    leg: &str,
    tolerance_pct: f64,
) -> Result<IngestLedger, String> {
    let encoded = inproc::encode(plan, max_frames);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    for _ in 0..PAIRS {
        let plain = inproc::replay(plan, Some(max_frames), Some(&encoded), None)?;
        untraced.push(plain.cpu.as_nanos() as f64 / plain.reports as f64);
        let mut tracer = Tracer::new();
        let r = inproc::replay(plan, Some(max_frames), Some(&encoded), Some(&mut tracer))?;
        traced.push(r.cpu.as_nanos() as f64 / r.reports as f64);
        last = Some((r, tracer));
    }
    let (replay, tracer) = last.expect("at least one pair");
    let self_times = tracer.self_times();
    let (mut machine, mut absorber, mut stages, mut frames_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut per_window = vec![(0u64, 0.0, 0.0); plan.windows.len()];
    for (s, t) in tracer.spans().iter().zip(&self_times) {
        let w = replay.frame_window[s.group as usize];
        match s.name {
            "frame" => {
                frames_ns += (s.end - s.start) as f64;
                continue;
            }
            "machine.on_bytes" | "machine.commit_done" => machine += t,
            "absorber.commit" => absorber += t,
            "session.prepare" => per_window[w].1 += t,
            "session.absorb_prepared" => per_window[w].2 += t,
            other => return Err(format!("unexpected span {other}")),
        }
        stages += t;
    }
    for (w, session) in replay.sessions.iter().enumerate() {
        per_window[w].0 = session.count();
    }
    let reports = replay.reports as f64;
    let inproc_ns = median(&untraced);
    let unattributed = (frames_ns - stages) / reports;
    let ledger = IngestLedger {
        frames: replay.frames,
        reports: replay.reports,
        machine_self_ns_per_frame: machine / replay.frames as f64,
        absorber_self_ns_per_frame: absorber / replay.frames as f64,
        per_window,
        inproc_ns_per_report: inproc_ns,
        unattributed_ns_per_report: unattributed,
        overhead_pct: (median(&traced) - inproc_ns) / inproc_ns * 100.0,
        trace: {
            let mut s = String::new();
            tracer.dump(leg, &mut s);
            s
        },
    };
    if unattributed > tolerance_pct / 100.0 * frames_ns / reports {
        return Err(format!(
            "{leg} ledger does not close: {unattributed:.1} of {:.1} ns/report outside every \
             stage span (tolerance {tolerance_pct}%)",
            frames_ns / reports
        ));
    }
    Ok(ledger)
}
impl IngestLedger {
    /// Emits the per-family stage metrics of window `w` as `family`.
    pub fn family_metrics(&self, w: usize, family: &str, out: &mut Outcome) {
        let (reports, prepare, absorb) = self.per_window[w];
        let n = reports.max(1) as f64;
        out.metric(
            format!("session.prepare_ns_per_report.{family}"),
            prepare / n,
            "ns",
            reports,
        );
        out.metric(
            format!("session.absorb_prepared_ns_per_report.{family}"),
            absorb / n,
            "ns",
            reports,
        );
    }

    /// Emits the ledger's own metrics for workload `leg`.
    pub fn ledger_metrics(&self, leg: &str, out: &mut Outcome) {
        out.metric(
            format!("machine.self_ns_per_frame.{leg}"),
            self.machine_self_ns_per_frame,
            "ns",
            self.frames,
        );
        out.metric(
            format!("absorber.commit_self_ns_per_frame.{leg}"),
            self.absorber_self_ns_per_frame,
            "ns",
            self.frames,
        );
        out.metric(
            format!("inproc.ns_per_report.{leg}"),
            self.inproc_ns_per_report,
            "ns",
            self.reports * PAIRS as u64,
        );
        out.metric(
            format!("ledger.unattributed_ns_per_report.{leg}"),
            self.unattributed_ns_per_report,
            "ns",
            self.reports,
        );
        out.metric(
            format!("trace.overhead_pct.{leg}"),
            self.overhead_pct,
            "%",
            PAIRS as u64,
        );
    }
}
