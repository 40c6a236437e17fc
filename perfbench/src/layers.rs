//! Direct timings of single layers on a workload's own frame bodies:
//! `WireReport::decode`, `Mechanism::absorb_slice`, `BatchDecoder::prepare`
//! and the snapshot and finalize calls of `CollectorSession`.

use ldp_cfo::Oue;
use ldp_collector::session::CollectorSession;
use ldp_core::{Mechanism, WireReport};
use ldp_hierarchy::HierarchicalHistogram;
use ldp_mean::Pm;
use ldp_sw::SwMechanism;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Decode and absorb cost of one family over a set of frame bodies.
pub struct DecodeAbsorb {
    /// Time in `WireReport::decode`.
    pub decode: Duration,
    /// Time in `Mechanism::absorb_slice` (one fresh state per body, as
    /// `prepare` does).
    pub absorb: Duration,
    /// Reports decoded.
    pub reports: u64,
}

fn decode_absorb<M>(mech: &M, fingerprint: u64, bodies: &[String]) -> Result<DecodeAbsorb, String>
where
    M: Mechanism,
    M::Report: WireReport,
{
    if mech.fingerprint() != fingerprint {
        return Err("layer mechanism does not match the served configuration".into());
    }
    let mut out = DecodeAbsorb {
        decode: Duration::ZERO,
        absorb: Duration::ZERO,
        reports: 0,
    };
    let mut reports = Vec::new();
    for body in bodies {
        reports.clear();
        let t0 = Instant::now();
        for line in body.lines() {
            reports.push(M::Report::decode(line).map_err(|e| e.to_string())?);
        }
        let t1 = Instant::now();
        let mut state = mech.empty_state();
        mech.absorb_slice(&mut state, black_box(&reports))
            .map_err(|e| e.to_string())?;
        black_box(&state);
        let t2 = Instant::now();
        out.decode += t1 - t0;
        out.absorb += t2 - t1;
        out.reports += reports.len() as u64;
    }
    Ok(out)
}

/// Times decode and absorb for `family` (built as `spec` builds it) over
/// `bodies`, checking the configuration against `session`.
pub fn family_decode_absorb(
    family: &str,
    session: &dyn CollectorSession,
    bodies: &[String],
) -> Result<DecodeAbsorb, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let fp = session.fingerprint();
    match family {
        "sw-ems" => decode_absorb(
            &SwMechanism::ems(1.0, 1024).map_err(|e| err(&e))?,
            fp,
            bodies,
        ),
        "oue" => decode_absorb(&Oue::new(1024, 1.0).map_err(|e| err(&e))?, fp, bodies),
        "hh-admm" => decode_absorb(
            &HierarchicalHistogram::new(4, 1024, 1.0).map_err(|e| err(&e))?,
            fp,
            bodies,
        ),
        "pm" => decode_absorb(&Pm::new(1.0).map_err(|e| err(&e))?, fp, bodies),
        other => Err(format!("no layer mechanism for family {other}")),
    }
}

/// Median wall time of `reps` calls of `f`.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Emits decode, absorb and finalize metrics for `family` over `bodies`.
pub fn family_metrics(
    family: &str,
    session: &dyn CollectorSession,
    bodies: &[String],
    out: &mut crate::report::Outcome,
) -> Result<(), String> {
    let da = family_decode_absorb(family, session, bodies)?;
    let n = da.reports as f64;
    out.metric(
        format!("wire.decode_ns_per_report.{family}"),
        da.decode.as_nanos() as f64 / n,
        "ns",
        da.reports,
    );
    out.metric(
        format!("absorb.ns_per_report.{family}"),
        da.absorb.as_nanos() as f64 / n,
        "ns",
        da.reports,
    );
    out.metric(
        format!("session.finalize_ms.{family}"),
        median_time(3, || session.finalize_text()).as_secs_f64() * 1e3,
        "ms",
        3,
    );
    Ok(())
}
