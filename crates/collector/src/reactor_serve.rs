//! The serve engine: N epoll reactor threads multiplexing every admitted
//! connection through the resumable protocol machine
//! ([`crate::machine`]) into the absorber/snapshot pipeline of
//! [`crate::server`] — plus the multi-window session router. Its entry
//! point, [`serve_routed`], is re-exported as
//! [`crate::server::serve_routed`].
//!
//! # Shape
//!
//! ```text
//!             ┌ reactor thread 0 ── epoll ── conns… ┐
//!  acceptor ──┤ reactor thread 1 ── epoll ── conns… ├─┬─ default absorber ── spool ── writer
//!  (admission,│ …                                   │ ├─ window "hourly"   ── spool ── writer
//!   quota,    └ reactor thread N ── epoll ── conns… ┘ └─ window "coarse"   ── spool ── writer
//!   backoff)
//! ```
//!
//! The acceptor admits through a permit pool (quota sheds,
//! `admission`/`accept` failpoints, EMFILE backoff) and deals admitted sockets round-robin to the reactor threads' mailboxes.
//! Each reactor thread owns an epoll instance, a [`Slab`] of
//! connections, and a [`TimerWheel`] for idle/ack-deadline/shutdown
//! deadlines; each connection owns a [`Machine`] that turns bytes into
//! [`Action`]s. Commits cross to the per-window absorber over a
//! byte-budgeted queue — nonblockingly
//! (`try_reserve` / `try_push_reserved`), with the connection **parked**
//! when the queue pushes back and retried when the absorber signals
//! progress. The absorber answers through a [`Done`] callback that posts
//! to the owning reactor's mailbox and wakes its epoll.
//!
//! The chaos, overload, and stress suites pin its exactly-once
//! semantics, failpoint schedule, overload defenses, and counters; the
//! framing suite pins its ack bytes to golden transcripts.

use crate::error::CollectorError;
use crate::faults;
use crate::machine::MachineEnd;
use crate::machine::{Action, CommitDone, CommitRequest, Machine, MachineConfig};
use crate::protocol;
use crate::server::{
    absorb_commit, panic_message, run_writer, AbsorberShared, Commit, CommitReply, Done,
    ServeOptions, ServeSummary, SnapshotPolicy, WindowRoute,
};
use crate::session::{BatchDecoder, CollectorSession};
use ldp_core::snapshot::SnapshotSpool;
use ldp_pool::chan::{bounded, bounded_weighted, Receiver, Sender};
use ldp_reactor::{Events, Interest, Poller, Slab, TimerWheel, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timer kinds on the per-thread [`TimerWheel`].
const K_IDLE: u32 = 0;
const K_WRITE: u32 = 1;
const K_GRACE: u32 = 2;

/// Per-connection read chunk. Large enough that a busy peer drains in
/// few syscalls, small enough that one connection cannot monopolize a
/// reactor tick.
const READ_CHUNK: usize = 16 * 1024;

/// Longest one epoll wait blocks before the reactor re-checks the
/// shutdown flag — the granularity of "shutdown is checked between
/// frames".
const READ_TICK: Duration = Duration::from_millis(100);

/// How long the acceptor sleeps between polls of a quiet listen socket.
const ACCEPT_TICK: Duration = Duration::from_millis(20);

/// Longest the acceptor sleeps after a transient accept failure
/// (fd exhaustion). The backoff doubles from [`ACCEPT_TICK`] up to this
/// cap and resets on the next successful accept.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// How long a mid-frame connection may stall after shutdown is raised
/// before it is dropped.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Best-effort `!busy` shed of a connection that was never admitted: tell
/// the peer when to retry, then close. Write errors are ignored — the
/// peer is being turned away either way, and a short write timeout keeps
/// a hostile peer from stalling the acceptor.
fn shed_at_accept(mut stream: TcpStream, retry: Duration) {
    let retry_ms = u32::try_from(retry.as_millis().max(1)).unwrap_or(u32::MAX);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&protocol::encode_busy(retry_ms));
}

/// Whether an accept error is the process (`EMFILE`) or host (`ENFILE`)
/// running out of file descriptors — transient pressure the accept loop
/// must survive with backoff, never a reason to drop live sessions.
fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    matches!(
        e.raw_os_error(),
        Some(23 /* ENFILE */) | Some(24 /* EMFILE */)
    )
}

/// A reactor thread's inbox: the acceptor posts admitted sockets, the
/// absorbers post commit completions, and both wake the epoll so the
/// thread reacts immediately instead of on its next tick.
struct Mailbox {
    streams: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<(u64, Option<CommitReply>)>>,
    waker: Arc<Waker>,
}

impl Mailbox {
    fn post_stream(&self, stream: TcpStream) {
        self.streams.lock().expect("mailbox lock").push(stream);
        self.waker.wake();
    }

    fn post_completion(&self, token: u64, reply: Option<CommitReply>) {
        self.completions
            .lock()
            .expect("mailbox lock")
            .push((token, reply));
        self.waker.wake();
    }
}

/// Why a connection is leaving the slab — the reactor's `SessionEnd`.
enum Close {
    Completed,
    Shutdown,
    PeerClosed,
    Idle,
    Evicted,
    Failed(CollectorError),
}

/// A connection paused on pipeline backpressure, retried every time the
/// thread wakes (the absorbers wake all reactors on progress).
enum Parked {
    /// `Action::Reserve` found the byte budget exhausted.
    Budget { window: usize, bytes: usize },
    /// A commit found its queue's count slots full. `weight > 0` means
    /// the value carries a byte reservation (a batch); the reservation
    /// stays with us until the push lands or the connection dies.
    Push {
        window: usize,
        commit: Commit,
        weight: usize,
    },
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    machine: Machine,
    /// The machine's pending action queue (also its scratch buffer —
    /// resolving one action may emit more).
    actions: Vec<Action>,
    /// Bytes read from the socket the machine has not consumed yet.
    pending_in: Vec<u8>,
    /// Bytes queued to the peer, flushed before anything else happens.
    out: Vec<u8>,
    out_pos: usize,
    parked: Option<Parked>,
    /// A commit is in flight; the machine is paused until its
    /// completion posts back.
    awaiting: bool,
    eof_seen: bool,
    /// The machine ended; close with this reason once `out` drains.
    closing: Option<Close>,
    write_timer_armed: bool,
    grace_armed: bool,
}

/// Everything one reactor thread needs, mostly borrowed from
/// [`serve_routed`]'s stack.
struct ReactorShared<'a> {
    machine_cfg: MachineConfig,
    decoders: Vec<Arc<dyn BatchDecoder>>,
    commit_txs: Vec<Sender<Commit>>,
    permit_tx: Sender<()>,
    mailbox: Arc<Mailbox>,
    shutdown: Arc<AtomicBool>,
    accepting_done: &'a AtomicBool,
    idle_timeout: Option<Duration>,
    ack_deadline: Option<Duration>,
    completed: &'a AtomicU64,
    failed: &'a AtomicU64,
    idle_disconnects: &'a AtomicU64,
    evictions: &'a AtomicU64,
    rate_sheds: &'a AtomicU64,
    oversized: &'a AtomicU64,
    last_error: &'a Mutex<Option<String>>,
    reactor_error: &'a Mutex<Option<CollectorError>>,
}

impl ReactorShared<'_> {
    fn note_session_error(&self, msg: String) {
        *self.last_error.lock().expect("last error lock") = Some(msg);
    }
}

/// [`serve`](crate::server::serve) with additional named windows: a
/// hello frame carrying `window <name>` routes its whole session to that
/// window's own absorber/snapshot pipeline; sessions without the line
/// (and bare at-least-once sessions) land in the default window.
///
/// Window 0 is the default (the `session`/`policy` arguments); each
/// [`WindowRoute`] adds a named window with its own absorber, spool,
/// and snapshot writer.
pub fn serve_routed(
    listener: &TcpListener,
    session: &mut dyn CollectorSession,
    policy: &SnapshotPolicy,
    options: &ServeOptions,
    windows: &mut [WindowRoute],
) -> Result<ServeSummary, CollectorError> {
    let mut names: Vec<String> = vec!["default".to_string()];
    for route in windows.iter() {
        if !protocol::valid_session_id(&route.name) {
            return Err(CollectorError::Spec(format!(
                "window name {:?} must be 1-128 ASCII letters, digits, '.', '_', or '-'",
                route.name
            )));
        }
        if names.iter().any(|n| n == &route.name) {
            return Err(CollectorError::Spec(format!(
                "window {:?} is declared twice",
                route.name
            )));
        }
        names.push(route.name.clone());
    }
    let n_windows = names.len();
    let start_counts: Vec<u64> = std::iter::once(session.count())
        .chain(windows.iter().map(|w| w.session.count()))
        .collect();
    let decoders: Vec<Arc<dyn BatchDecoder>> = std::iter::once(session.batch_decoder())
        .chain(windows.iter().map(|w| w.session.batch_decoder()))
        .collect();
    let policies: Vec<SnapshotPolicy> = std::iter::once(policy.clone())
        .chain(windows.iter().map(|w| w.policy.clone()))
        .collect();
    let machine_cfg = MachineConfig {
        max_frame_bytes: options.max_frame_bytes,
        rate: (options.max_rps_per_conn > 0.0).then_some(options.max_rps_per_conn),
        windows: names.clone(),
    };

    let max_connections = options.max_connections.max(1);
    let mut commit_txs: Vec<Sender<Commit>> = Vec::with_capacity(n_windows);
    let mut commit_rxs: Vec<Receiver<Commit>> = Vec::with_capacity(n_windows);
    for _ in 0..n_windows {
        let (tx, rx) =
            bounded_weighted::<Commit>(options.queue_depth.max(1), options.memory_budget_bytes);
        commit_txs.push(tx);
        commit_rxs.push(rx);
    }
    let (permit_tx, permit_rx) = bounded::<()>(max_connections);
    for _ in 0..max_connections {
        permit_tx
            .push(())
            .expect("filling a fresh permit channel cannot fail");
    }

    let spools: Vec<SnapshotSpool> = (0..n_windows).map(|_| SnapshotSpool::new()).collect();
    let absorbed_totals: Vec<AtomicU64> = start_counts.iter().map(|&c| AtomicU64::new(c)).collect();
    let window_peaks: Vec<AtomicU64> = (0..n_windows).map(|_| AtomicU64::new(0)).collect();

    let accepted = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let duplicates = AtomicU64::new(0);
    let resumed = AtomicU64::new(0);
    let idle_disconnects = AtomicU64::new(0);
    let admission_sheds = AtomicU64::new(0);
    let quota_sheds = AtomicU64::new(0);
    let rate_sheds = AtomicU64::new(0);
    let oversized_frames = AtomicU64::new(0);
    let evictions = AtomicU64::new(0);
    let accept_errors = AtomicU64::new(0);
    let supervisor_restarts = AtomicU64::new(0);
    let accepting_done = AtomicBool::new(false);
    let faults_before = faults::injected();
    let last_session_error: Mutex<Option<String>> = Mutex::new(None);
    let writer_error: Mutex<Option<CollectorError>> = Mutex::new(None);
    let accept_error: Mutex<Option<CollectorError>> = Mutex::new(None);
    let reactor_error: Mutex<Option<CollectorError>> = Mutex::new(None);
    let absorber_panic: Mutex<Option<String>> = Mutex::new(None);

    let reactor_threads = if options.reactor_threads > 0 {
        options.reactor_threads
    } else {
        ldp_pool::configured_threads()
    }
    .max(1);
    let mut pollers: Vec<Poller> = Vec::with_capacity(reactor_threads);
    let mut mailboxes: Vec<Arc<Mailbox>> = Vec::with_capacity(reactor_threads);
    for _ in 0..reactor_threads {
        let poller = Poller::new().map_err(|e| CollectorError::Io(format!("epoll: {e}")))?;
        mailboxes.push(Arc::new(Mailbox {
            streams: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: poller.waker(),
        }));
        pollers.push(poller);
    }

    listener
        .set_nonblocking(true)
        .map_err(|e| CollectorError::Io(format!("set_nonblocking: {e}")))?;

    let scope_result = ldp_pool::service_scope(|scope| {
        // Snapshot writers: one per window, all reporting into the same
        // error slot (any one giving up raises shutdown for the whole
        // serve — a window that can no longer persist should wind the
        // fleet down, not keep acking).
        for i in 0..n_windows {
            let spool = &spools[i];
            let window_policy = &policies[i];
            let writer_error_ref = &writer_error;
            let writer_shutdown = Arc::clone(&options.shutdown);
            let restarts_ref = &supervisor_restarts;
            scope.spawn("snapshot-writer", move || {
                run_writer(
                    spool,
                    window_policy,
                    writer_error_ref,
                    &writer_shutdown,
                    restarts_ref,
                );
            });
        }

        // The acceptor: admission (permits, quota, `admission`/`accept`
        // faults, fd exhaustion backoff); admitted sockets go nonblocking and are
        // dealt round-robin to the reactor mailboxes.
        {
            let shutdown = Arc::clone(&options.shutdown);
            let accepted_ref = &accepted;
            let admission_sheds_ref = &admission_sheds;
            let quota_sheds_ref = &quota_sheds;
            let accept_errors_ref = &accept_errors;
            let accept_error_ref = &accept_error;
            let accepting_done_ref = &accepting_done;
            let absorbed_ref = &absorbed_totals;
            let mailboxes_ref = &mailboxes;
            let failed_ref = &failed;
            let last_error_ref = &last_session_error;
            let session_limit = options.connections;
            let report_quota = options.report_quota;
            let busy_retry = options.busy_retry;
            scope.spawn("acceptor", move || {
                let mut permit_held = false;
                let mut accept_backoff = ACCEPT_TICK;
                let mut next_thread = 0usize;
                loop {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if session_limit > 0 && accepted_ref.load(Ordering::SeqCst) >= session_limit {
                        break;
                    }
                    let quota_met = report_quota > 0
                        && absorbed_ref
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .sum::<u64>()
                            >= report_quota;
                    if !permit_held && !quota_met {
                        permit_held = permit_rx.try_pop().is_some();
                    }
                    if faults::hit("accept").is_some() {
                        accept_errors_ref.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(accept_backoff);
                        accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                        continue;
                    }
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            accept_backoff = ACCEPT_TICK;
                            if quota_met {
                                let _ = stream.set_nonblocking(false);
                                quota_sheds_ref.fetch_add(1, Ordering::SeqCst);
                                shed_at_accept(stream, busy_retry);
                                continue;
                            }
                            if !permit_held {
                                let _ = stream.set_nonblocking(false);
                                admission_sheds_ref.fetch_add(1, Ordering::SeqCst);
                                shed_at_accept(stream, busy_retry);
                                continue;
                            }
                            if faults::hit("admission").is_some() {
                                let _ = stream.set_nonblocking(false);
                                admission_sheds_ref.fetch_add(1, Ordering::SeqCst);
                                shed_at_accept(stream, busy_retry);
                                continue;
                            }
                            if let Err(e) = stream.set_nonblocking(true) {
                                failed_ref.fetch_add(1, Ordering::SeqCst);
                                *last_error_ref.lock().expect("last error lock") =
                                    Some(format!("set_nonblocking: {e}"));
                                continue;
                            }
                            permit_held = false;
                            accepted_ref.fetch_add(1, Ordering::SeqCst);
                            mailboxes_ref[next_thread].post_stream(stream);
                            next_thread = (next_thread + 1) % mailboxes_ref.len();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_TICK);
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) if is_fd_exhaustion(&e) => {
                            accept_errors_ref.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(accept_backoff);
                            accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                        }
                        Err(e) => {
                            *accept_error_ref.lock().expect("accept error lock") =
                                Some(CollectorError::Io(format!("accept: {e}")));
                            break;
                        }
                    }
                }
                accepting_done_ref.store(true, Ordering::SeqCst);
                for mailbox in mailboxes_ref {
                    mailbox.waker.wake();
                }
            });
        }

        // The reactor threads.
        for (poller, mailbox) in pollers.drain(..).zip(mailboxes.iter()) {
            let shared = ReactorShared {
                machine_cfg: machine_cfg.clone(),
                decoders: decoders.clone(),
                commit_txs: commit_txs.iter().map(Clone::clone).collect(),
                permit_tx: permit_tx.clone(),
                mailbox: Arc::clone(mailbox),
                shutdown: Arc::clone(&options.shutdown),
                accepting_done: &accepting_done,
                idle_timeout: options.idle_timeout,
                ack_deadline: options.ack_deadline,
                completed: &completed,
                failed: &failed,
                idle_disconnects: &idle_disconnects,
                evictions: &evictions,
                rate_sheds: &rate_sheds,
                oversized: &oversized_frames,
                last_error: &last_session_error,
                reactor_error: &reactor_error,
            };
            scope.spawn("reactor", move || run_reactor(poller, shared));
        }
        // The originals go now: once every reactor thread exits, the
        // queues disconnect and the absorbers below drain out.
        drop(commit_txs);
        drop(permit_tx);

        // Absorbers for the routed windows, each under the supervisor's
        // catch_unwind (first panic wins the report; any panic
        // quiesces the whole serve).
        let mut rx_iter = commit_rxs.drain(..);
        let default_rx = rx_iter.next().expect("window 0 always exists");
        for (i, (route, rx)) in windows.iter_mut().zip(rx_iter).enumerate() {
            let widx = i + 1;
            let window_policy = &policies[widx];
            let spool = &spools[widx];
            let duplicates_ref = &duplicates;
            let resumed_ref = &resumed;
            let absorbed_ref = &absorbed_totals[widx];
            let peak_ref = &window_peaks[widx];
            let absorber_panic_ref = &absorber_panic;
            let shutdown = Arc::clone(&options.shutdown);
            let mailboxes_ref = &mailboxes;
            let window_session = &mut route.session;
            scope.spawn("absorber", move || {
                let shared = AbsorberShared {
                    policy: window_policy,
                    spool,
                    duplicates: duplicates_ref,
                    resumed: resumed_ref,
                    absorbed_total: absorbed_ref,
                };
                let run = std::panic::AssertUnwindSafe(|| {
                    while let Some(commit) = rx.pop() {
                        absorb_commit(window_session.as_mut(), &shared, commit);
                        for mailbox in mailboxes_ref {
                            mailbox.waker.wake();
                        }
                    }
                });
                if let Err(panic) = std::panic::catch_unwind(run) {
                    let mut slot = absorber_panic_ref.lock().expect("absorber panic lock");
                    if slot.is_none() {
                        *slot = Some(panic_message(panic.as_ref()));
                    }
                    drop(slot);
                    shutdown.store(true, Ordering::SeqCst);
                    for mailbox in mailboxes_ref {
                        mailbox.waker.wake();
                    }
                }
                peak_ref.store(rx.peak_bytes() as u64, Ordering::SeqCst);
                drop(rx);
                spool.close();
            });
        }

        // The default window's absorber runs here, on the scope's own
        // thread — the single owner of `session`.
        let shared = AbsorberShared {
            policy: &policies[0],
            spool: &spools[0],
            duplicates: &duplicates,
            resumed: &resumed,
            absorbed_total: &absorbed_totals[0],
        };
        let absorber = std::panic::AssertUnwindSafe(|| {
            while let Some(commit) = default_rx.pop() {
                absorb_commit(session, &shared, commit);
                for mailbox in &mailboxes {
                    mailbox.waker.wake();
                }
            }
        });
        if let Err(panic) = std::panic::catch_unwind(absorber) {
            let mut slot = absorber_panic.lock().expect("absorber panic lock");
            if slot.is_none() {
                *slot = Some(panic_message(panic.as_ref()));
            }
            drop(slot);
            options.shutdown.store(true, Ordering::SeqCst);
            for mailbox in &mailboxes {
                mailbox.waker.wake();
            }
        }
        window_peaks[0].store(default_rx.peak_bytes() as u64, Ordering::SeqCst);
        drop(default_rx);
        spools[0].close();
    });

    let _ = listener.set_nonblocking(false);
    // Final durable snapshots for every window, attempted on every exit
    // path; the first failure is the one reported.
    let mut final_snapshot = policy.apply(session, session.count(), true);
    for (i, route) in windows.iter().enumerate() {
        let applied = policies[i + 1].apply(route.session.as_ref(), route.session.count(), true);
        if final_snapshot.is_ok() {
            final_snapshot = applied;
        }
    }
    scope_result.map_err(|e| CollectorError::Io(format!("serve service failure: {e}")))?;
    if let Some(msg) = absorber_panic.into_inner().expect("absorber panic lock") {
        final_snapshot?;
        return Err(CollectorError::Panicked(format!("absorber: {msg}")));
    }
    if let Some(e) = accept_error.into_inner().expect("accept error lock") {
        return Err(e);
    }
    if let Some(e) = reactor_error.into_inner().expect("reactor error lock") {
        return Err(e);
    }
    if let Some(e) = writer_error.into_inner().expect("writer error lock") {
        return Err(e);
    }
    final_snapshot?;
    let window_counts: Vec<u64> = std::iter::once(session.count())
        .chain(windows.iter().map(|w| w.session.count()))
        .collect();
    let reports: u64 = window_counts
        .iter()
        .zip(&start_counts)
        .map(|(now, start)| now - start)
        .sum();
    let window_reports = if windows.is_empty() {
        Vec::new()
    } else {
        names
            .iter()
            .cloned()
            .zip(
                window_counts
                    .iter()
                    .zip(&start_counts)
                    .map(|(now, start)| now - start),
            )
            .collect()
    };
    Ok(ServeSummary {
        accepted: accepted.into_inner(),
        completed: completed.into_inner(),
        failed: failed.into_inner(),
        reports,
        snapshots_superseded: spools.iter().map(SnapshotSpool::superseded).sum(),
        duplicates_suppressed: duplicates.into_inner(),
        sessions_resumed: resumed.into_inner(),
        idle_disconnects: idle_disconnects.into_inner(),
        admission_sheds: admission_sheds.into_inner(),
        quota_sheds: quota_sheds.into_inner(),
        rate_sheds: rate_sheds.into_inner(),
        oversized_frames: oversized_frames.into_inner(),
        evictions: evictions.into_inner(),
        supervisor_restarts: supervisor_restarts.into_inner(),
        peak_queue_bytes: window_peaks
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0),
        accept_errors: accept_errors.into_inner(),
        faults_injected: faults::injected() - faults_before,
        window_reports,
        last_session_error: last_session_error.into_inner().expect("last error lock"),
    })
}

/// One reactor thread: wait on epoll, drain the mailbox, pump
/// connections, fire timers, and wind down once accepting is over and
/// the slab is empty.
fn run_reactor(poller: Poller, shared: ReactorShared<'_>) {
    let mut events = Events::with_capacity(256);
    let mut slab: Slab<Conn> = Slab::new();
    let mut timers = TimerWheel::new();
    loop {
        let now = Instant::now();
        let mut timeout = READ_TICK;
        if let Some(deadline) = timers.next_deadline() {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        if let Err(e) = poller.wait(&mut events, Some(timeout)) {
            let mut slot = shared.reactor_error.lock().expect("reactor error lock");
            if slot.is_none() {
                *slot = Some(CollectorError::Io(format!("epoll wait: {e}")));
            }
            drop(slot);
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }

        // Admitted sockets: register, start the machine (which fires the
        // `frame-read` failpoint for the first frame read), and pump.
        let new_streams: Vec<TcpStream> =
            std::mem::take(&mut *shared.mailbox.streams.lock().expect("mailbox lock"));
        for stream in new_streams {
            let machine = Machine::new(shared.machine_cfg.clone(), Instant::now());
            let token = slab.insert(Conn {
                stream,
                machine,
                actions: Vec::new(),
                pending_in: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                parked: None,
                awaiting: false,
                eof_seen: false,
                closing: None,
                write_timer_armed: false,
                grace_armed: false,
            });
            let registered = {
                let conn = slab.get_mut(token).expect("just inserted");
                poller.add(&conn.stream, token, Interest::edge_rw())
            };
            if let Err(e) = registered {
                slab.remove(token);
                shared.failed.fetch_add(1, Ordering::SeqCst);
                shared.note_session_error(format!("epoll add: {e}"));
                let _ = shared.permit_tx.push(());
                continue;
            }
            if let Some(idle) = shared.idle_timeout {
                timers.set(token, K_IDLE, Instant::now() + idle);
            }
            {
                let conn = slab.get_mut(token).expect("just inserted");
                conn.machine.start(&mut conn.actions);
                if let Some(close) = apply_actions(conn, token, &shared) {
                    conn.closing = Some(close);
                }
            }
            pump(token, &mut slab, &mut timers, &poller, &shared);
        }

        // Commit completions from the absorbers. The slab's generation
        // check discards completions for connections that died while
        // their commit was in flight.
        let completions: Vec<(u64, Option<CommitReply>)> =
            std::mem::take(&mut *shared.mailbox.completions.lock().expect("mailbox lock"));
        for (token, reply) in completions {
            let found = {
                let Some(conn) = slab.get_mut(token) else {
                    continue;
                };
                conn.awaiting = false;
                match reply {
                    Some(CommitReply::Hello(resume)) => conn.machine.commit_done(
                        CommitDone::Hello {
                            cursor: resume.cursor,
                        },
                        &mut conn.actions,
                    ),
                    Some(CommitReply::Batch(result)) => conn
                        .machine
                        .commit_done(CommitDone::Batch(result.map(|_| ())), &mut conn.actions),
                    Some(CommitReply::Flush(result)) => conn
                        .machine
                        .commit_done(CommitDone::Flush(result), &mut conn.actions),
                    None => conn.machine.absorber_gone(&mut conn.actions),
                }
                if let Some(close) = apply_actions(conn, token, &shared) {
                    conn.closing = Some(close);
                }
                true
            };
            if found {
                pump(token, &mut slab, &mut timers, &poller, &shared);
            }
        }

        // Socket readiness.
        for event in ldp_reactor::ready_events(&events) {
            pump(event.token, &mut slab, &mut timers, &poller, &shared);
        }

        // Backpressure retries: the absorbers wake every reactor on
        // progress, and the tick bounds the wait otherwise.
        for token in slab.tokens() {
            let is_parked = slab.get(token).is_some_and(|c| c.parked.is_some());
            if is_parked {
                pump(token, &mut slab, &mut timers, &poller, &shared);
            }
        }

        // Deadlines.
        let now = Instant::now();
        while let Some((token, kind)) = timers.pop_due(now) {
            enum Verdict {
                Nothing,
                Close(Close),
                Rearm(Duration),
            }
            let verdict = {
                let Some(conn) = slab.get_mut(token) else {
                    continue;
                };
                match kind {
                    K_IDLE => {
                        let idle_now = conn.machine.at_boundary()
                            && !conn.awaiting
                            && conn.parked.is_none()
                            && conn.closing.is_none()
                            && conn.pending_in.is_empty()
                            && conn.out_pos >= conn.out.len();
                        if idle_now {
                            Verdict::Close(Close::Idle)
                        } else if let Some(idle) = shared.idle_timeout {
                            // Mid-frame or mid-commit stalls are
                            // backpressure, not idleness.
                            Verdict::Rearm(idle)
                        } else {
                            Verdict::Nothing
                        }
                    }
                    K_WRITE => {
                        conn.write_timer_armed = false;
                        if conn.out_pos < conn.out.len() {
                            // A slow consumer: the committed state
                            // stands, exactly like a blocked ack write
                            // past the deadline. A session that already
                            // failed keeps its own reason.
                            match conn.closing.take() {
                                Some(close @ Close::Failed(_))
                                | Some(close @ Close::PeerClosed) => Verdict::Close(close),
                                _ => Verdict::Close(Close::Evicted),
                            }
                        } else {
                            Verdict::Nothing
                        }
                    }
                    K_GRACE => {
                        conn.grace_armed = false;
                        if conn.closing.is_none() && conn.machine.mid_frame() {
                            Verdict::Close(Close::Failed(CollectorError::Protocol(
                                "peer stalled mid-frame during shutdown".into(),
                            )))
                        } else if shared.shutdown.load(Ordering::SeqCst) && !conn.machine.is_ended()
                        {
                            conn.grace_armed = true;
                            Verdict::Rearm(SHUTDOWN_GRACE)
                        } else {
                            Verdict::Nothing
                        }
                    }
                    _ => Verdict::Nothing,
                }
            };
            match verdict {
                Verdict::Nothing => {}
                Verdict::Close(close) => {
                    close_conn(token, close, &mut slab, &mut timers, &poller, &shared);
                }
                Verdict::Rearm(after) => timers.set(token, kind, now + after),
            }
        }

        // Shutdown: close every between-frames connection now, give the
        // mid-frame ones a bounded grace to finish their frame.
        if shared.shutdown.load(Ordering::SeqCst) {
            for token in slab.tokens() {
                pump(token, &mut slab, &mut timers, &poller, &shared);
                if let Some(conn) = slab.get_mut(token) {
                    if !conn.grace_armed {
                        conn.grace_armed = true;
                        timers.set(token, K_GRACE, Instant::now() + SHUTDOWN_GRACE);
                    }
                }
            }
        }

        // Done when no more connections can arrive and none are left.
        // (`accepting_done` is set before the acceptor's last wake, so
        // reading it first makes the mailbox check authoritative.)
        if shared.accepting_done.load(Ordering::SeqCst)
            && slab.is_empty()
            && shared
                .mailbox
                .streams
                .lock()
                .expect("mailbox lock")
                .is_empty()
            && shared
                .mailbox
                .completions
                .lock()
                .expect("mailbox lock")
                .is_empty()
        {
            return;
        }
    }
}

/// Drives one connection as far as it can go right now, closing it if
/// its session ended.
fn pump(
    token: u64,
    slab: &mut Slab<Conn>,
    timers: &mut TimerWheel,
    poller: &Poller,
    shared: &ReactorShared<'_>,
) {
    let close = {
        let Some(conn) = slab.get_mut(token) else {
            return;
        };
        drive(conn, token, timers, shared)
    };
    if let Some(close) = close {
        close_conn(token, close, slab, timers, poller, shared);
    }
}

/// The per-connection state machine driver: flush output, resolve
/// backpressure, feed buffered bytes to the machine, read more, handle
/// EOF — until the connection blocks, pauses on a commit, or ends.
fn drive(
    conn: &mut Conn,
    token: u64,
    timers: &mut TimerWheel,
    shared: &ReactorShared<'_>,
) -> Option<Close> {
    loop {
        let now = Instant::now();
        // Output first: acks precede further reads.
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    return Some(Close::Failed(CollectorError::Io(
                        "writing ack: connection closed".into(),
                    )))
                }
                Ok(n) => {
                    conn.out_pos += n;
                    // Progress resets the slow-consumer clock.
                    if conn.write_timer_armed {
                        timers.clear(token, K_WRITE);
                        conn.write_timer_armed = false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Some(deadline) = shared.ack_deadline {
                        if !conn.write_timer_armed {
                            timers.set(token, K_WRITE, now + deadline);
                            conn.write_timer_armed = true;
                        }
                    }
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    return Some(Close::Failed(CollectorError::Io(format!(
                        "writing ack: {e}"
                    ))))
                }
            }
        }
        if conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.write_timer_armed {
                timers.clear(token, K_WRITE);
                conn.write_timer_armed = false;
            }
        }

        // An ended session leaves once its last bytes are out.
        if let Some(close) = conn.closing.take() {
            return Some(close);
        }

        // Shutdown is honored between frames only.
        if shared.shutdown.load(Ordering::SeqCst)
            && conn.machine.at_boundary()
            && !conn.awaiting
            && conn.parked.is_none()
        {
            return Some(Close::Shutdown);
        }

        // Parked backpressure: retry now, stay parked on no progress.
        if let Some(parked) = conn.parked.take() {
            match parked {
                Parked::Budget { window, bytes } => {
                    match shared.commit_txs[window].try_reserve(bytes) {
                        Ok(true) => conn.machine.budget_granted(),
                        Ok(false) => {
                            conn.parked = Some(Parked::Budget { window, bytes });
                            return None;
                        }
                        Err(_) => {
                            conn.machine.absorber_gone(&mut conn.actions);
                            if let Some(close) = apply_actions(conn, token, shared) {
                                conn.closing = Some(close);
                            }
                            continue;
                        }
                    }
                }
                Parked::Push {
                    window,
                    commit,
                    weight,
                } => {
                    let result = if weight > 0 {
                        shared.commit_txs[window].try_push_reserved(commit, weight)
                    } else {
                        shared.commit_txs[window].try_push(commit)
                    };
                    match result {
                        Ok(()) => {}
                        Err(e) if e.full => {
                            conn.parked = Some(Parked::Push {
                                window,
                                commit: e.value,
                                weight,
                            });
                            return None;
                        }
                        // Receiver gone: dropping the commit fires its
                        // `Done` with `None`; the completion resolves
                        // this connection on the next drain.
                        Err(_) => return None,
                    }
                }
            }
        }

        // Feed what we have buffered.
        if !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
            && !conn.pending_in.is_empty()
        {
            let decoder = Arc::clone(&shared.decoders[conn.machine.window()]);
            let consumed =
                conn.machine
                    .on_bytes(&conn.pending_in, now, decoder.as_ref(), &mut conn.actions);
            conn.pending_in.drain(..consumed);
            let had_actions = !conn.actions.is_empty();
            if let Some(close) = apply_actions(conn, token, shared) {
                conn.closing = Some(close);
                continue;
            }
            if consumed > 0 || had_actions {
                continue;
            }
        }

        // Read until the socket would block (edge-triggered: we must
        // drain it whenever we are able to consume).
        if !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
            && !conn.eof_seen
            && conn.pending_in.is_empty()
        {
            let mut buf = [0u8; READ_CHUNK];
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.eof_seen = true,
                Ok(n) => {
                    conn.pending_in.extend_from_slice(&buf[..n]);
                    if let Some(idle) = shared.idle_timeout {
                        timers.set(token, K_IDLE, now + idle);
                    }
                    if conn.grace_armed {
                        timers.set(token, K_GRACE, now + SHUTDOWN_GRACE);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Some(Close::Failed(CollectorError::Io(format!(
                        "reading frame: {e}"
                    ))))
                }
            }
        }

        // EOF is delivered only once everything read has been consumed
        // and nothing is pending, so no frame is cut short.
        if conn.eof_seen
            && conn.pending_in.is_empty()
            && !conn.awaiting
            && conn.parked.is_none()
            && !conn.machine.is_ended()
        {
            conn.machine.on_eof(&mut conn.actions);
            if let Some(close) = apply_actions(conn, token, shared) {
                conn.closing = Some(close);
                continue;
            }
        }

        return None;
    }
}

/// Resolves the machine's queued actions. Returns the close reason if
/// the session ended. Resolving one action (a granted budget, a gone
/// absorber) may make the machine emit more — the outer loop drains
/// until quiescent.
fn apply_actions(conn: &mut Conn, token: u64, shared: &ReactorShared<'_>) -> Option<Close> {
    let mut close = None;
    while !conn.actions.is_empty() {
        for action in std::mem::take(&mut conn.actions) {
            match action {
                Action::Send(bytes) => conn.out.extend_from_slice(&bytes),
                Action::Reserve { window, bytes } => {
                    match shared.commit_txs[window].try_reserve(bytes) {
                        Ok(true) => conn.machine.budget_granted(),
                        Ok(false) => conn.parked = Some(Parked::Budget { window, bytes }),
                        Err(_) => conn.machine.absorber_gone(&mut conn.actions),
                    }
                }
                Action::Release { window, bytes } => shared.commit_txs[window].unreserve(bytes),
                Action::Commit(request) => {
                    conn.awaiting = true;
                    let mailbox = Arc::clone(&shared.mailbox);
                    let done = Done::new(move |reply| mailbox.post_completion(token, reply));
                    let (window, commit, weight) = match request {
                        CommitRequest::Hello { window, session } => {
                            (window, Commit::Hello { session, done }, 0)
                        }
                        CommitRequest::Batch {
                            window,
                            batch,
                            seq,
                            weight,
                        } => (window, Commit::Batch { batch, seq, done }, weight),
                        CommitRequest::Flush { window, sequenced } => {
                            (window, Commit::Flush { sequenced, done }, 0)
                        }
                    };
                    let result = if weight > 0 {
                        shared.commit_txs[window].try_push_reserved(commit, weight)
                    } else {
                        shared.commit_txs[window].try_push(commit)
                    };
                    match result {
                        Ok(()) => {}
                        Err(e) if e.full => {
                            conn.parked = Some(Parked::Push {
                                window,
                                commit: e.value,
                                weight,
                            })
                        }
                        // Receiver gone: the dropped commit's `Done`
                        // posts a `None` completion that fails this
                        // connection through the normal path.
                        Err(_) => {}
                    }
                }
                Action::RateShed => {
                    shared.rate_sheds.fetch_add(1, Ordering::SeqCst);
                }
                Action::Oversized => {
                    shared.oversized.fetch_add(1, Ordering::SeqCst);
                }
                Action::End(end) => {
                    close = Some(match end {
                        MachineEnd::Completed => Close::Completed,
                        MachineEnd::Evicted => Close::Evicted,
                        MachineEnd::PeerClosed => Close::PeerClosed,
                        MachineEnd::Failed(e) => Close::Failed(e),
                    });
                }
            }
        }
    }
    close
}

/// Removes a connection: timers cleared, charges released, the last
/// bytes flushed best-effort (a `-` on a failed session is
/// fire-and-forget), counters updated, the
/// admission permit returned.
fn close_conn(
    token: u64,
    close: Close,
    slab: &mut Slab<Conn>,
    timers: &mut TimerWheel,
    poller: &Poller,
    shared: &ReactorShared<'_>,
) {
    let Some(mut conn) = slab.remove(token) else {
        return;
    };
    timers.clear(token, K_IDLE);
    timers.clear(token, K_WRITE);
    timers.clear(token, K_GRACE);
    let _ = poller.delete(&conn.stream);
    if let Some((window, bytes)) = conn.machine.take_charge() {
        shared.commit_txs[window].unreserve(bytes);
    }
    if let Some(Parked::Push {
        window,
        commit,
        weight,
    }) = conn.parked.take()
    {
        // The commit's `Done` posts a completion for a token the slab
        // no longer knows — discarded by the generation check.
        drop(commit);
        if weight > 0 {
            shared.commit_txs[window].unreserve(weight);
        }
    }
    if conn.out_pos < conn.out.len() {
        let _ = conn.stream.write(&conn.out[conn.out_pos..]);
    }
    match close {
        Close::Completed => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
        }
        Close::Shutdown => {}
        Close::PeerClosed => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            shared.note_session_error("peer closed without an end-of-stream frame".into());
        }
        Close::Idle => {
            shared.idle_disconnects.fetch_add(1, Ordering::SeqCst);
            shared.note_session_error("peer idled past --idle-timeout between frames".into());
        }
        Close::Evicted => {
            shared.evictions.fetch_add(1, Ordering::SeqCst);
            shared.note_session_error(
                "slow consumer evicted past --ack-deadline (committed state stands)".into(),
            );
        }
        Close::Failed(e) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            shared.note_session_error(e.to_string());
        }
    }
    let _ = shared.permit_tx.push(());
}
