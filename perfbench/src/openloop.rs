//! The open-loop generator of `ingest-sw`: one thread, two nonblocking
//! sequenced sessions, frames pipelined on a fixed schedule whether or not
//! acks have returned. Each frame's latency runs from its scheduled send
//! to its ack, so a stall is charged to every frame queued behind it.

use crate::plan::{push_data, Plan, SessionPlan};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One fixed-rate stretch of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered load in reports per second.
    pub rate: f64,
    /// How long it lasts.
    pub duration: Duration,
}

/// What one step measured.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    /// Offered load in reports per second.
    pub rate: f64,
    /// Ack latency of each frame scheduled in the step, in ms.
    pub latency_ms: Vec<f64>,
    /// Generator lateness of each frame (handled − scheduled), in ms.
    pub lateness_ms: Vec<f64>,
    /// Backlog (frames sent − acked) sampled through the step.
    pub backlog: Vec<f64>,
    /// Reports acked for frames of this step.
    pub acked_reports: u64,
    /// From the step's start until its last frame was acked, in seconds.
    pub active_seconds: f64,
    /// CPU time the collector process used while the step was scheduled.
    pub serve_cpu: Duration,
}

impl StepResult {
    /// Whether the step sustained its rate: its backlog did not grow,
    /// i.e. the median backlog over the step's second half stays within
    /// `limit_ms` of frames at the step's rate. A stall spikes the backlog
    /// briefly; an overload grows it through the whole step.
    pub fn sustains(&self, limit_ms: f64, reports_per_frame: usize) -> bool {
        !self.latency_ms.is_empty() && self.queued_ms(reports_per_frame) <= limit_ms
    }

    /// The median backlog over the second half of the step, in ms of
    /// frames at the step's rate.
    pub fn queued_ms(&self, reports_per_frame: usize) -> f64 {
        let half = &self.backlog[self.backlog.len() / 2..];
        if half.is_empty() {
            return 0.0;
        }
        crate::stats::median(half) / (self.rate / reports_per_frame as f64) * 1e3
    }
}

/// Counts the generator keeps for failure accounting.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Data frames sent.
    pub frames_sent: u64,
    /// Data frames acked `+`.
    pub frames_acked: u64,
    /// `-` acks.
    pub nacks: u64,
    /// `!busy` sheds.
    pub sheds: u64,
    /// Connections lost before end-of-stream.
    pub lost: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    /// Scheduled time and step of every frame sent and not yet acked.
    pending: VecDeque<(Instant, usize)>,
    seq: u64,
    dead: bool,
}

/// Drives the two open sessions of `sessions` (hellos already acked)
/// through `steps`. Each step starts from an empty queue: once its
/// schedule is over, the next waits until every frame is acked. The ladder
/// stops after `stop_after` consecutive steps that do not sustain their
/// rate under `limit_ms` (the first step always runs). Frame bodies come
/// from `plan`; each session's `frames` is updated to what it sent.
/// `serve_pid`'s CPU time is charged to the steps.
pub fn drive(
    plan: &Plan,
    sessions: &mut [SessionPlan],
    streams: Vec<TcpStream>,
    steps: &[Step],
    (stop_after, limit_ms): (usize, f64),
    serve_pid: u32,
) -> Result<(Vec<StepResult>, Counts, Vec<TcpStream>), String> {
    let serve_cpu = || sys::process_cpu(serve_pid).ok_or("cannot read the collector's CPU time");
    sys::precise_timers();
    let mut conns: Vec<Conn> = streams
        .into_iter()
        .map(|stream| {
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                out: Vec::with_capacity(1 << 20),
                written: 0,
                pending: VecDeque::new(),
                seq: 0,
                dead: false,
            })
        })
        .collect::<Result<_, String>>()?;
    let rpf = plan.reports_per_frame as f64;
    let mut results: Vec<StepResult> = steps
        .iter()
        .map(|s| StepResult {
            rate: s.rate,
            ..StepResult::default()
        })
        .collect();
    let mut counts = Counts::default();
    let mut step = 0;
    let mut step_start = Instant::now() + Duration::from_millis(2);
    let mut step_frames = 0u64;
    // The current step's schedule is over and its frames are in flight:
    // the next step starts from an empty queue once they are all acked.
    let mut draining = false;
    let mut overloaded_run = 0;
    let mut next_sample = step_start;
    let mut frame_no = 0u64;
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut cpu_mark = serve_cpu()?;
    let due = |step_start: Instant, n: u64, rate: f64| {
        step_start + Duration::from_secs_f64(n as f64 * rpf / rate)
    };
    loop {
        let now = Instant::now();
        // Send every frame that is due.
        while !draining {
            let s = &steps[step];
            let at = due(step_start, step_frames, s.rate);
            if at >= step_start + s.duration {
                draining = true;
                break;
            }
            if at > now {
                break;
            }
            let c = (frame_no % conns.len() as u64) as usize;
            let conn = &mut conns[c];
            if !conn.dead {
                let sp = &sessions[c];
                push_data(&mut conn.out, conn.seq, plan.body(sp, conn.seq as usize));
                conn.seq += 1;
                conn.pending.push_back((at, step));
                counts.frames_sent += 1;
                results[step]
                    .lateness_ms
                    .push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
            }
            frame_no += 1;
            step_frames += 1;
        }
        // Write what the sockets take.
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            while conn.written < conn.out.len() {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.dead = true;
                        counts.lost += 1;
                        break;
                    }
                }
            }
            if conn.written == conn.out.len() {
                conn.out.clear();
                conn.written = 0;
            }
        }
        // Read acks.
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        conn.dead = true;
                        counts.lost += 1;
                        break;
                    }
                    Ok(n) => {
                        let at = Instant::now();
                        for &b in &read_buf[..n] {
                            match b {
                                b'+' => {
                                    let (due, st) = conn
                                        .pending
                                        .pop_front()
                                        .ok_or("ack without a pending frame")?;
                                    let r = &mut results[st];
                                    r.latency_ms.push((at - due).as_secs_f64() * 1e3);
                                    r.acked_reports += plan.reports_per_frame as u64;
                                    counts.frames_acked += 1;
                                }
                                b'-' => counts.nacks += 1,
                                b'!' => counts.sheds += 1,
                                _ => {}
                            }
                        }
                        if counts.nacks + counts.sheds > 0 {
                            return Err(format!(
                                "collector refused frames: {} '-' acks, {} busy sheds",
                                counts.nacks, counts.sheds
                            ));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.dead = true;
                        counts.lost += 1;
                        break;
                    }
                }
            }
        }
        if counts.lost > 0 {
            return Err(format!("{} connections lost mid-run", counts.lost));
        }
        let now = Instant::now();
        let backlog: usize = conns.iter().map(|c| c.pending.len()).sum();
        if !draining && now >= next_sample {
            results[step].backlog.push(backlog as f64);
            next_sample = now + Duration::from_millis(1);
        }
        if draining && backlog == 0 && conns.iter().all(|c| c.out.is_empty()) {
            // Step complete: charge the collector's CPU to it and decide
            // whether the ladder goes on.
            let cpu = serve_cpu()?;
            results[step].active_seconds = (now - step_start).as_secs_f64();
            results[step].serve_cpu = cpu - cpu_mark;
            cpu_mark = cpu;
            overloaded_run =
                if step > 0 && results[step].queued_ms(plan.reports_per_frame) > limit_ms {
                    overloaded_run + 1
                } else {
                    0
                };
            step += 1;
            if step == steps.len() || overloaded_run >= stop_after {
                break;
            }
            draining = false;
            step_start = Instant::now();
            step_frames = 0;
            next_sample = step_start;
            continue;
        }
        // Sleep until the next frame is due or an ack arrives.
        let wait = if draining {
            Duration::from_millis(1)
        } else {
            let s = &steps[step];
            due(step_start, step_frames, s.rate)
                .saturating_duration_since(now)
                .min(Duration::from_millis(1))
        };
        if !wait.is_zero() {
            let mut fds: Vec<PollFd> = conns
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                })
                .collect();
            sys::poll(&mut fds, wait).map_err(|e| format!("poll: {e}"))?;
        }
    }
    for (sp, conn) in sessions.iter_mut().zip(&conns) {
        sp.frames = conn.seq as usize;
    }
    results.truncate(step);
    let streams = conns
        .into_iter()
        .map(|c| {
            c.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
            Ok(c.stream)
        })
        .collect::<Result<_, String>>()?;
    Ok((results, counts, streams))
}
