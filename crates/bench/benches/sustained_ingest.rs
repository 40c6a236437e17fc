//! End-to-end serve-path throughput: a live collector behind a loopback
//! TCP listener, driven by `ldp-loadgen` over concurrent framed sessions.
//!
//! Reported series (parsed by `scripts/bench_record.sh` into the
//! `sustained_ingest_*` sections of `BENCH_em.json` — informational, not
//! regression-gated, because loopback TCP timing is noisy):
//!
//! - `sustained/ingest_c{C}_n{N}`: one full collection window — accept C
//!   concurrent sessions, decode frames on the reactor threads, commit
//!   through the bounded queue, ack every frame — for N total reports of
//!   the paper's `sw-ems` mechanism. `c1` is the serial baseline the
//!   concurrent numbers are read against.
//!
//! `BENCH_SMOKE=1` switches to a seconds-long configuration for CI.
//! Frames are pre-generated outside the measured window; the measurement
//! is the serve path, not the client-side randomizer.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_collector::build_session;
use ldp_collector::server::{serve, ServeOptions, SnapshotPolicy};
use ldp_loadgen::{generate_frames, run_frames, Plan};
use std::net::TcpListener;
use std::time::Duration;

const SPEC: &str = "sw-ems:eps=1,d=256";

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").as_deref() == Ok("1")
}

/// One full window: serve `connections` sessions of pre-generated frames
/// and return the absorbed report count (sanity-checked by the caller).
fn window(frames: &[Vec<String>], reports_per_frame: usize) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let connections = frames.len();
    let server = std::thread::spawn(move || {
        let mut session = build_session(SPEC).unwrap();
        let policy = SnapshotPolicy {
            path: None,
            every: 0,
            keep: 0,
        };
        let options = ServeOptions {
            max_connections: connections,
            connections: connections as u64,
            ..ServeOptions::default()
        };
        serve(&listener, session.as_mut(), &policy, &options).unwrap();
        session.count()
    });
    let report = run_frames(&addr, frames, reports_per_frame, Duration::ZERO).unwrap();
    let count = server.join().unwrap();
    assert_eq!(count, report.reports, "bench must not lose reports");
    count
}

fn bench_sustained(c: &mut Criterion) {
    let mut group = c.benchmark_group("sustained");
    let (frames_per_connection, reports_per_frame) = if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400));
        (2, 128)
    } else {
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(3));
        (8, 512)
    };

    for connections in [1usize, 8, 64] {
        // The c64 point probes session-count scaling on the reactor, not
        // raw volume: shrink the per-connection load so one iteration
        // stays comparable to the c8 point.
        let fpc = if connections == 64 {
            (frames_per_connection / 4).max(1)
        } else {
            frames_per_connection
        };
        let plan = Plan {
            spec: SPEC.into(),
            connections,
            frames_per_connection: fpc,
            reports_per_frame,
            seed: 42,
            rate: 0.0,
            ..Plan::default()
        };
        let frames = generate_frames(&plan).unwrap();
        let total = plan.total_reports();
        group.bench_function(format!("ingest_c{connections}_n{total}"), |b| {
            b.iter(|| window(&frames, reports_per_frame))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sustained);
criterion_main!(benches);
