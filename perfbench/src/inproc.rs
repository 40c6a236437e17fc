//! The in-process leg: a workload's frames replayed single-threaded
//! through `Machine::on_bytes` → `BatchDecoder::prepare` →
//! `CollectorSession::absorb_prepared` → `Machine::commit_done`, with no
//! sockets, threads or queues. It is both the serial reference the served
//! windows must match bit for bit and the per-report baseline of the
//! ingest ledger.

use crate::plan::{push_data, push_eos, push_hello, Plan, SessionPlan, HELLO_ACK_LEN};
use crate::trace::Tracer;
use ldp_collector::machine::{Action, CommitDone, CommitRequest, Machine, MachineConfig};
use ldp_collector::session::{BatchDecoder, CollectorSession, PreparedBatch};
use ldp_collector::CollectorError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a replay produced.
pub struct Replay {
    /// One session per window, holding everything replayed.
    pub sessions: Vec<Box<dyn CollectorSession>>,
    /// Data frames replayed.
    pub data_frames: u64,
    /// All frames replayed (hello, data, end-of-stream).
    pub frames: u64,
    /// Reports absorbed.
    pub reports: u64,
    /// Wall time inside the protocol and absorber calls (frame building
    /// excluded).
    pub busy: Duration,
    /// Thread CPU time of the whole replay loop (frame building included
    /// unless the frames were encoded beforehand).
    pub cpu: Duration,
    /// The window of every replayed frame, by frame number (the span
    /// group id).
    pub frame_window: Vec<usize>,
}

/// A decoder that times each `prepare` call of the decoder it wraps.
struct TimedDecoder {
    inner: Arc<dyn BatchDecoder>,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl BatchDecoder for TimedDecoder {
    fn prepare(&self, text: &str) -> Result<PreparedBatch, CollectorError> {
        let start = Instant::now();
        let out = self.inner.prepare(text);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("timing log poisoned")
            .push((start, end));
        out
    }
}

enum Decoders {
    Plain(Vec<Arc<dyn BatchDecoder>>),
    Timed(Vec<TimedDecoder>),
}

impl Decoders {
    fn get(&self, w: usize) -> &dyn BatchDecoder {
        match self {
            Decoders::Plain(d) => d[w].as_ref(),
            Decoders::Timed(d) => &d[w],
        }
    }

    fn drain_into(&self, w: usize, into: &mut Vec<(Instant, Instant)>) {
        if let Decoders::Timed(d) = self {
            into.extend(d[w].calls.lock().expect("timing log poisoned").drain(..));
        }
    }
}

/// The frames of a replay, encoded ahead of a timed pass: per session,
/// its hello, data frames and end-of-stream.
pub struct Encoded(Vec<Vec<Vec<u8>>>);

/// How many data frames of each session a replay of the first
/// `max_data_frames` data frames covers.
fn frames_per_session(plan: &Plan, max_data_frames: Option<u64>) -> Vec<usize> {
    let mut budget = max_data_frames.unwrap_or(u64::MAX);
    plan.sessions
        .iter()
        .map(|sp| {
            let n = (sp.frames as u64).min(budget);
            budget -= n;
            n as usize
        })
        .collect()
}

/// Appends frame `k` of session `sp` carrying `frames` data frames: the
/// hello, a data frame, or the end-of-stream. Returns the ack length.
fn encode_frame(
    plan: &Plan,
    sp: &SessionPlan,
    k: usize,
    frames: usize,
    buf: &mut Vec<u8>,
) -> usize {
    if k == 0 {
        push_hello(buf, &sp.id, plan.windows[sp.window].route);
        HELLO_ACK_LEN
    } else if k <= frames {
        push_data(buf, (k - 1) as u64, plan.body(sp, k - 1));
        1
    } else {
        push_eos(buf);
        1
    }
}

/// Encodes the frames a replay of the first `max_data_frames` data
/// frames feeds.
pub fn encode(plan: &Plan, max_data_frames: u64) -> Encoded {
    let counts = frames_per_session(plan, Some(max_data_frames));
    Encoded(
        plan.sessions
            .iter()
            .zip(counts)
            .map(|(sp, frames)| {
                (0..frames + 2)
                    .map(|k| {
                        let mut buf = Vec::new();
                        encode_frame(plan, sp, k, frames, &mut buf);
                        buf
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Replays every session of `plan` (or only the first `max_data_frames`
/// data frames across them, still closing each session) and, when a
/// tracer is given, records one span tree per frame. Frames come from
/// `encoded` when given (it must cover the same frames), else are built
/// as they are fed.
pub fn replay(
    plan: &Plan,
    max_data_frames: Option<u64>,
    encoded: Option<&Encoded>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let mut sessions = plan.fresh_sessions()?;
    let plain: Vec<Arc<dyn BatchDecoder>> = sessions.iter().map(|s| s.batch_decoder()).collect();
    let decoders = if tracer.is_some() {
        Decoders::Timed(
            plain
                .into_iter()
                .map(|inner| TimedDecoder {
                    inner,
                    calls: Mutex::new(Vec::new()),
                })
                .collect(),
        )
    } else {
        Decoders::Plain(plain)
    };
    let config = MachineConfig {
        windows: plan
            .windows
            .iter()
            .map(|w| w.route.unwrap_or("default").to_string())
            .collect(),
        ..MachineConfig::default()
    };
    let mut out = Replay {
        sessions: Vec::new(),
        data_frames: 0,
        frames: 0,
        reports: 0,
        busy: Duration::ZERO,
        cpu: Duration::ZERO,
        frame_window: Vec::new(),
    };
    let counts = frames_per_session(plan, max_data_frames);
    let mut scratch = Vec::new();
    let mut actions = Vec::new();
    let mut pending = Vec::new();
    let mut acked = Vec::new();
    // The frame's spans, handed to the tracer once the frame is done so
    // the recording stays outside the frame's time: (name, start, end,
    // index of the parent mark; `None` for a child of the frame itself).
    let traced = tracer.is_some();
    let mut marks: Vec<Mark> = Vec::new();
    let mut prepared = Vec::new();
    let cpu_start = crate::sys::thread_cpu();
    for (si, (sp, &frames)) in plan.sessions.iter().zip(&counts).enumerate() {
        let mut machine = Machine::new(config.clone(), Instant::now());
        machine.start(&mut actions);
        // Frame 0 is the hello, frames 1..=n carry data, the last is EOS.
        for k in 0..frames + 2 {
            let (buf, ack_len): (&[u8], usize) = match encoded {
                Some(e) => (&e.0[si][k], if k == 0 { HELLO_ACK_LEN } else { 1 }),
                None => {
                    scratch.clear();
                    let len = encode_frame(plan, sp, k, frames, &mut scratch);
                    (&scratch, len)
                }
            };
            marks.clear();
            acked.clear();
            let frame_start = Instant::now();
            let mut offset = 0;
            let mut ended = false;
            while offset < buf.len() && !ended {
                let window = machine.window();
                let t0 = Instant::now();
                offset += machine.on_bytes(
                    &buf[offset..],
                    Instant::now(),
                    decoders.get(window),
                    &mut actions,
                );
                if traced {
                    marks.push(("machine.on_bytes", t0, Instant::now(), None));
                    let parent = marks.len() - 1;
                    decoders.drain_into(window, &mut prepared);
                    for (a, b) in prepared.drain(..) {
                        marks.push(("session.prepare", a, b, Some(parent)));
                    }
                }
                while !actions.is_empty() {
                    std::mem::swap(&mut actions, &mut pending);
                    for action in pending.drain(..) {
                        match action {
                            Action::Reserve { .. } => machine.budget_granted(),
                            Action::Release { .. } => {}
                            Action::Send(bytes) => acked.extend_from_slice(&bytes),
                            Action::Commit(req) => {
                                let c0 = Instant::now();
                                let slot = traced.then(|| {
                                    marks.push(("absorber.commit", c0, c0, None));
                                    marks.len() - 1
                                });
                                let done = commit(&mut sessions, req, &mut marks, slot, &mut out)?;
                                let c1 = Instant::now();
                                machine.commit_done(done, &mut actions);
                                if let Some(i) = slot {
                                    marks[i].2 = c1;
                                    marks.push(("machine.commit_done", c1, Instant::now(), None));
                                }
                            }
                            Action::End(_) => ended = true,
                            Action::RateShed | Action::Oversized => {
                                return Err(format!("session {}: frame refused", sp.id))
                            }
                        }
                    }
                }
            }
            let frame_end = Instant::now();
            out.busy += frame_end - frame_start;
            let group = out.frames;
            out.frames += 1;
            out.frame_window.push(sp.window);
            if let Some(t) = tracer.as_deref_mut() {
                let frame = t.span("frame", frame_start, frame_end, None, group);
                let mut ids = Vec::with_capacity(marks.len());
                for &(name, a, b, parent) in &marks {
                    let parent = parent.map_or(frame, |p| ids[p]);
                    ids.push(t.span(name, a, b, Some(parent), group));
                }
                t.count("bytes", buf.len() as u64);
            }
            if acked.first() != Some(&b'+') || acked.len() != ack_len {
                return Err(format!(
                    "session {} frame {k}: unexpected ack {:?}",
                    sp.id,
                    String::from_utf8_lossy(&acked)
                ));
            }
            if ended != (k == frames + 1) {
                return Err(format!("session {} ended at frame {k}", sp.id));
            }
        }
    }
    out.cpu = crate::sys::thread_cpu() - cpu_start;
    if let Some(t) = tracer {
        t.count("frames", out.frames);
        t.count("data_frames", out.data_frames);
        t.count("reports", out.reports);
    }
    out.sessions = sessions;
    Ok(out)
}

/// A span of the frame in flight: name, start, end, and the index of its
/// parent mark (`None` for a child of the frame span).
type Mark = (&'static str, Instant, Instant, Option<usize>);

/// Runs one commit the way the serve path's absorber does: hello resolves
/// the window's dedup cursor; a batch must carry the cursor's sequence
/// number, is absorbed, and advances the cursor; a flush is a no-op here.
/// With `slot`, the absorb is recorded in `marks` under that mark.
fn commit(
    sessions: &mut [Box<dyn CollectorSession>],
    req: CommitRequest,
    marks: &mut Vec<Mark>,
    slot: Option<usize>,
    out: &mut Replay,
) -> Result<CommitDone, String> {
    Ok(match req {
        CommitRequest::Hello { window, session } => CommitDone::Hello {
            cursor: sessions[window].session_cursor(&session),
        },
        CommitRequest::Batch {
            window, batch, seq, ..
        } => {
            let session = &mut sessions[window];
            if let Some((id, n)) = &seq {
                let cursor = session.session_cursor(id);
                if *n != cursor {
                    return Err(format!(
                        "session {id}: frame {n} replayed at cursor {cursor}"
                    ));
                }
            }
            let a = Instant::now();
            let absorbed = session.absorb_prepared(batch).map_err(|e| e.to_string())?;
            if slot.is_some() {
                marks.push(("session.absorb_prepared", a, Instant::now(), slot));
            }
            if let Some((id, n)) = seq {
                session.set_session_cursor(&id, n + 1);
            }
            out.reports += absorbed;
            out.data_frames += 1;
            CommitDone::Batch(Ok(()))
        }
        CommitRequest::Flush { window, .. } => CommitDone::Flush(Ok(sessions[window].count())),
    })
}

/// In-process cost per report: the median over `passes` untraced replays
/// of the first `max_data_frames` data frames of `plan`, encoded
/// beforehand, of the replaying thread's CPU time per report. CPU time,
/// unlike wall time, does not count the time a shared host steals from
/// this virtual CPU.
pub fn ns_per_report(plan: &Plan, max_data_frames: u64, passes: usize) -> Result<f64, String> {
    let encoded = encode(plan, max_data_frames);
    let mut v = Vec::new();
    for _ in 0..passes.max(1) {
        let r = replay(plan, Some(max_data_frames), Some(&encoded), None)?;
        v.push(r.cpu.as_nanos() as f64 / r.reports as f64);
    }
    Ok(crate::stats::median(&v))
}
