//! What a generator sends: windows, per-window pools of pre-generated
//! frame bodies, and the sessions drawn from them; plus the framing.

use ldp_collector::protocol::encode_hello_routed;
use ldp_collector::session::CollectorSession;
use std::time::{Duration, Instant};

/// One estimation window of the collector under test.
pub struct Window {
    /// Route name (`None` for the default window).
    pub route: Option<&'static str>,
    /// Mechanism spec.
    pub spec: &'static str,
    /// Family label used in metric names.
    pub family: &'static str,
}

/// One sequenced session: its id, window, and how many data frames it
/// carries. Frame `k` of session `s` uses body `(k + s.offset) % pool`.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Session id.
    pub id: String,
    /// Index into the plan's windows.
    pub window: usize,
    /// Offset into the window's body pool.
    pub offset: usize,
    /// Data frames sent (and acked).
    pub frames: usize,
}

/// Inputs of one ingest workload.
pub struct Plan {
    /// Windows in serve order; index 0 is the default window.
    pub windows: Vec<Window>,
    /// Frame bodies per window (newline-terminated wire-report lines).
    pub pools: Vec<Vec<String>>,
    /// Reports per frame body.
    pub reports_per_frame: usize,
    /// Sessions in the order they were opened.
    pub sessions: Vec<SessionPlan>,
}

impl Plan {
    /// Generates `frames` bodies of `reports_per_frame` reports for each
    /// window from `seed` through `CollectorSession::gen_reports`; also
    /// returns each window's generation time and report count.
    pub fn generate(
        windows: Vec<Window>,
        frames: &[usize],
        reports_per_frame: usize,
        seed: u64,
    ) -> Result<(Plan, Vec<(Duration, u64)>), String> {
        let mut pools = Vec::new();
        let mut cost = Vec::new();
        for (w, window) in windows.iter().enumerate() {
            let session = ldp_collector::build_session(window.spec).map_err(|e| e.to_string())?;
            let n = (frames[w] * reports_per_frame) as u64;
            let t = Instant::now();
            let text = session
                .gen_reports(
                    n,
                    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1)),
                )
                .map_err(|e| e.to_string())?;
            cost.push((t.elapsed(), n));
            let lines: Vec<&str> = text.lines().collect();
            let pool = lines
                .chunks(reports_per_frame)
                .map(|c| {
                    let mut body = c.join("\n");
                    body.push('\n');
                    body
                })
                .collect();
            pools.push(pool);
        }
        Ok((
            Plan {
                windows,
                pools,
                reports_per_frame,
                sessions: Vec::new(),
            },
            cost,
        ))
    }

    /// The body of data frame `k` of `session`.
    pub fn body(&self, session: &SessionPlan, k: usize) -> &str {
        let pool = &self.pools[session.window];
        &pool[(k + session.offset) % pool.len()]
    }

    /// Reports carried by every session's data frames.
    pub fn total_reports(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| (s.frames * self.reports_per_frame) as u64)
            .sum()
    }

    /// Frame payload bytes per report over the data frames of the
    /// sessions in window `w` (all windows when `None`).
    pub fn wire_bytes_per_report(&self, w: Option<usize>) -> f64 {
        let (mut bytes, mut reports) = (0usize, 0usize);
        for sp in self
            .sessions
            .iter()
            .filter(|s| w.is_none_or(|w| s.window == w))
        {
            for k in 0..sp.frames {
                bytes += format!("seq {k}\n").len() + self.body(sp, k).len();
                reports += self.reports_per_frame;
            }
        }
        bytes as f64 / reports.max(1) as f64
    }

    /// Builds one fresh session per window.
    pub fn fresh_sessions(&self) -> Result<Vec<Box<dyn CollectorSession>>, String> {
        self.windows
            .iter()
            .map(|w| ldp_collector::build_session(w.spec).map_err(|e| e.to_string()))
            .collect()
    }

    /// The `serve` arguments declaring this plan's windows.
    pub fn serve_window_args(&self) -> Vec<String> {
        let mut args = vec!["--mechanism".to_string(), self.windows[0].spec.to_string()];
        for w in &self.windows[1..] {
            args.push("--window".into());
            args.push(format!("{}={}", w.route.expect("routed window"), w.spec));
        }
        args
    }
}

/// Appends a length-prefixed frame carrying `payload`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Appends the hello frame for `id`, routed to `route`.
pub fn push_hello(out: &mut Vec<u8>, id: &str, route: Option<&str>) {
    push_frame(out, encode_hello_routed(id, 0, route).as_bytes());
}

/// Appends sequenced data frame `seq` with `body`; returns the payload
/// length.
pub fn push_data(out: &mut Vec<u8>, seq: u64, body: &str) -> usize {
    let head = format!("seq {seq}\n");
    let len = head.len() + body.len();
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    len
}

/// Appends the end-of-stream frame.
pub fn push_eos(out: &mut Vec<u8>) {
    out.extend_from_slice(&0u32.to_be_bytes());
}

/// Length of the collector's hello ack (`+` and an 8-byte cursor).
pub const HELLO_ACK_LEN: usize = 9;
