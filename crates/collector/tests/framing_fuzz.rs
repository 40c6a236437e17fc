//! Property suite for the incremental protocol machine.
//!
//! The reactor feeds [`ldp_collector::machine::Machine`] whatever byte
//! slices the kernel hands it, so the machine must produce the same ack
//! stream no matter how the input is sliced. The oracle is a set of
//! golden transcripts, `fixtures/framing_golden.txt`: for every exchange
//! below it pins each connection's raw ack bytes, the final report count
//! and the finalized window, as recorded from the straight-line blocking
//! reader the machine was written to replace. Each exchange is driven
//! three ways — byte-at-a-time through the machine, randomly split
//! through the machine, and over a real socket against `serve` — and all
//! three must reproduce the transcript byte for byte.

use ldp_collector::machine::{
    Action, CommitDone, CommitRequest, Machine, MachineConfig, MachineEnd,
};
use ldp_collector::server::{serve, ServeOptions, SnapshotPolicy};
use ldp_collector::session::CollectorSession;
use ldp_collector::{build_session, protocol, CollectorError};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

/// The recorded transcripts every exchange is checked against.
const GOLDEN: &str = include_str!("fixtures/framing_golden.txt");

const SPEC: &str = "sw-ems:eps=1,d=16";

fn frame(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

fn eos() -> Vec<u8> {
    0u32.to_be_bytes().to_vec()
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Split `total` bytes into random chunk sizes in `1..=16`.
fn random_splits(total: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut sizes = Vec::new();
    let mut left = total;
    while left > 0 {
        let take = ((xorshift(&mut state) % 16) as usize + 1).min(left);
        sizes.push(take);
        left -= take;
    }
    sizes
}

/// Resolve every pending [`Action`] inline: collect `Send` bytes,
/// grant reservations immediately, and run commits against `session`
/// with the absorber's exact dedup rules.
fn resolve(
    session: &mut dyn CollectorSession,
    machine: &mut Machine,
    actions: &mut Vec<Action>,
    acks: &mut Vec<u8>,
    ends: &mut Vec<MachineEnd>,
) {
    while !actions.is_empty() {
        for action in std::mem::take(actions) {
            match action {
                Action::Send(bytes) => acks.extend_from_slice(&bytes),
                Action::Reserve { .. } => machine.budget_granted(),
                Action::Release { .. } => {}
                Action::RateShed | Action::Oversized => {}
                Action::End(end) => ends.push(end),
                Action::Commit(request) => {
                    let done = match request {
                        CommitRequest::Hello { session: id, .. } => CommitDone::Hello {
                            cursor: session.session_cursor(&id),
                        },
                        CommitRequest::Batch { batch, seq, .. } => CommitDone::Batch(match seq {
                            None => session.absorb_prepared(batch).map(|_| ()),
                            Some((id, n)) => {
                                let cursor = session.session_cursor(&id);
                                if n < cursor {
                                    Ok(()) // replay: ack `+`, absorb nothing
                                } else if n > cursor {
                                    Err(CollectorError::Protocol(format!(
                                        "session {id:?}: frame seq {n} skips ahead of cursor {cursor}"
                                    )))
                                } else {
                                    session.absorb_prepared(batch).map(|_| {
                                        session.set_session_cursor(&id, n + 1);
                                    })
                                }
                            }
                        }),
                        CommitRequest::Flush { .. } => CommitDone::Flush(Ok(session.count())),
                    };
                    machine.commit_done(done, actions);
                }
            }
        }
    }
}

/// Feed `input` through a fresh machine in the given chunk sizes and
/// return the ack bytes it emits. Commits resolve synchronously, so the
/// machine never parks between calls.
fn machine_acks(
    session: &mut dyn CollectorSession,
    config: MachineConfig,
    input: &[u8],
    sizes: &[usize],
) -> Vec<u8> {
    let decoder = session.batch_decoder();
    let mut machine = Machine::new(config, Instant::now());
    let mut actions = Vec::new();
    let mut acks = Vec::new();
    let mut ends = Vec::new();
    machine.start(&mut actions);
    resolve(session, &mut machine, &mut actions, &mut acks, &mut ends);

    let mut offset = 0usize;
    for &size in sizes {
        let end = (offset + size).min(input.len());
        while offset < end && !machine.is_ended() {
            let n = machine.on_bytes(
                &input[offset..end],
                Instant::now(),
                decoder.as_ref(),
                &mut actions,
            );
            resolve(session, &mut machine, &mut actions, &mut acks, &mut ends);
            assert!(
                n > 0 || machine.is_ended(),
                "machine stalled with commits resolved inline"
            );
            offset += n;
        }
        if machine.is_ended() {
            break;
        }
    }
    if !machine.is_ended() {
        machine.on_eof(&mut actions);
        resolve(session, &mut machine, &mut actions, &mut acks, &mut ends);
    }
    acks
}

/// What one exchange produced: each connection's raw ack bytes, the
/// window's final report count, and its finalized estimate (empty for an
/// empty window, which has nothing to finalize).
#[derive(Debug, PartialEq, Eq)]
struct Transcript {
    acks: Vec<Vec<u8>>,
    count: u64,
    finalized: String,
}

impl Transcript {
    fn of(acks: Vec<Vec<u8>>, session: &dyn CollectorSession) -> Transcript {
        let finalized = if session.count() > 0 {
            session.finalize_text().unwrap()
        } else {
            String::new()
        };
        Transcript {
            acks,
            count: session.count(),
            finalized,
        }
    }

    /// The fixture's text form of one case (see the fixture's header).
    fn render(&self, case: &str) -> String {
        let mut out = format!("case {case}\n");
        for acks in &self.acks {
            out.push_str("conn ");
            for byte in acks {
                write!(out, "{byte:02x}").unwrap();
            }
            out.push('\n');
        }
        writeln!(out, "count {}", self.count).unwrap();
        for line in self.finalized.split('\n') {
            writeln!(out, "|{line}").unwrap();
        }
        out.push_str("end\n");
        out
    }
}

/// Parses `case` out of the golden fixture.
fn golden(case: &str) -> Transcript {
    let header = format!("case {case}");
    let lines = GOLDEN
        .lines()
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| *line != "end");
    let mut acks = Vec::new();
    let mut count = None;
    let mut finalized = Vec::new();
    for line in lines {
        if let Some(hex) = line.strip_prefix("conn ") {
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            acks.push(bytes);
        } else if let Some(n) = line.strip_prefix("count ") {
            count = Some(n.parse().unwrap());
        } else if let Some(text) = line.strip_prefix('|') {
            finalized.push(text);
        } else {
            panic!("golden case {case}: unexpected line {line:?}");
        }
    }
    Transcript {
        acks,
        count: count.unwrap_or_else(|| panic!("no golden transcript for case {case}")),
        finalized: finalized.join("\n"),
    }
}

/// Runs the per-connection inputs against `serve` over a real socket,
/// one connection after another.
fn socket_transcript(inputs: &[Vec<u8>], max_frame_bytes: u32) -> Transcript {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let connections = inputs.len() as u64;
    let server = std::thread::spawn(move || {
        let mut session = build_session(SPEC).unwrap();
        let options = ServeOptions {
            connections,
            max_frame_bytes,
            ..ServeOptions::default()
        };
        serve(
            &listener,
            session.as_mut(),
            &SnapshotPolicy::default(),
            &options,
        )
        .unwrap();
        session
    });
    let mut all = Vec::new();
    for input in inputs {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Rejected sessions may close before the whole input is written.
        let _ = stream.write_all(input);
        let _ = stream.shutdown(Shutdown::Write);
        let mut acks = Vec::new();
        let _ = stream.read_to_end(&mut acks);
        all.push(acks);
    }
    let session = server.join().unwrap();
    Transcript::of(all, session.as_ref())
}

/// Assert that the machine (byte-at-a-time AND randomly split) and the
/// socket `serve` path each reproduce golden transcript `case`, an
/// exchange of sequential connections against a fresh [`SPEC`] window.
fn assert_equivalent(case: &str, inputs: &[Vec<u8>], max_frame_bytes: u32, seed: u64) {
    let expected = golden(case);
    let check = |label: &str, actual: Transcript| {
        assert!(
            actual == expected,
            "{label}: case {case} diverged from the golden transcript\n\
             expected:\n{}actual:\n{}",
            expected.render(case),
            actual.render(case)
        );
    };
    for (label, sizes_for) in [("byte-at-a-time", None), ("random splits", Some(seed))] {
        let mut session = build_session(SPEC).unwrap();
        let mut acks = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let sizes = match sizes_for {
                None => vec![1; input.len().max(1)],
                Some(seed) => random_splits(input.len(), seed ^ (i as u64 + 1)),
            };
            let config = MachineConfig {
                max_frame_bytes,
                ..MachineConfig::default()
            };
            acks.push(machine_acks(session.as_mut(), config, input, &sizes));
        }
        check(label, Transcript::of(acks, session.as_ref()));
    }
    check("serve socket", socket_transcript(inputs, max_frame_bytes));
}

/// Build one connection's bytes: optional hello, then frames, then EOS.
fn connection_bytes(hello: Option<&str>, frames: &[String], with_eos: bool) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(h) = hello {
        out.extend_from_slice(&frame(h));
    }
    for f in frames {
        out.extend_from_slice(&frame(f));
    }
    if with_eos {
        out.extend_from_slice(&eos());
    }
    out
}

fn gen_frames(spec: &str, per_frame: u64, count: usize, seed: u64) -> Vec<String> {
    let session = build_session(spec).unwrap();
    (0..count)
        .map(|i| session.gen_reports(per_frame, seed + i as u64).unwrap())
        .collect()
}

#[test]
fn bare_session_acks_are_split_invariant() {
    let frames = gen_frames(SPEC, 20, 3, 100);
    let input = connection_bytes(None, &frames, true);
    assert_equivalent("bare_session", &[input], 64 * 1024, 0xB0A7);
}

#[test]
fn sequenced_session_with_replay_and_resume_is_split_invariant() {
    let frames = gen_frames(SPEC, 12, 4, 200);
    // First visit: frames 0 and 1, no EOS (the peer "crashes").
    let mut first = frame(&protocol::encode_hello("fuzz", 0));
    for (n, f) in frames[..2].iter().enumerate() {
        first.extend_from_slice(&frame(&protocol::encode_seq_frame(n as u64, f)));
    }
    // Second visit replays from 0 — the server acks `+` for the two
    // duplicates without absorbing, then takes 2 and 3 and the EOS.
    let mut second = frame(&protocol::encode_hello("fuzz", 0));
    for (n, f) in frames.iter().enumerate() {
        second.extend_from_slice(&frame(&protocol::encode_seq_frame(n as u64, f)));
    }
    second.extend_from_slice(&eos());
    assert_equivalent(
        "sequenced_replay_resume",
        &[first, second],
        64 * 1024,
        0x5EED,
    );
}

#[test]
fn a_gap_in_the_sequence_is_refused_identically() {
    let frames = gen_frames(SPEC, 8, 1, 300);
    let mut input = frame(&protocol::encode_hello("gap", 0));
    input.extend_from_slice(&frame(&protocol::encode_seq_frame(5, &frames[0])));
    input.extend_from_slice(&eos());
    assert_equivalent("sequence_gap", &[input], 64 * 1024, 0x6A9);
}

#[test]
fn an_undecodable_frame_is_refused_identically() {
    let good = gen_frames(SPEC, 8, 1, 400);
    let input = connection_bytes(
        None,
        &[good[0].clone(), "this is not a wire report\n".to_string()],
        true,
    );
    assert_equivalent("undecodable_frame", &[input], 64 * 1024, 0xBAD);
}

#[test]
fn an_oversized_frame_is_refused_identically() {
    let frames = gen_frames(SPEC, 40, 1, 500);
    assert!(frames[0].len() > 256, "need a frame above the test cap");
    let input = connection_bytes(None, &frames, true);
    assert_equivalent("oversized_frame", &[input], 256, 0xFA7);
}

#[test]
fn a_window_line_routes_or_refuses_identically() {
    let frames = gen_frames(SPEC, 8, 1, 800);
    // `window default` is accepted everywhere; an unknown window is
    // refused with `-`.
    let mut accepted = frame(&protocol::encode_hello_routed("wd", 0, Some("default")));
    accepted.extend_from_slice(&frame(&protocol::encode_seq_frame(0, &frames[0])));
    accepted.extend_from_slice(&eos());
    let mut refused = frame(&protocol::encode_hello_routed("wx", 0, Some("nope")));
    refused.extend_from_slice(&frame(&protocol::encode_seq_frame(0, &frames[0])));
    refused.extend_from_slice(&eos());
    assert_equivalent("window_line", &[accepted, refused], 64 * 1024, 0x717D0);
}

#[test]
fn a_rate_shed_emits_the_busy_frame_at_any_split() {
    // Machine-only: the busy shape is easier to pin than to socket-race.
    // Burst equals rate, so the second frame in the same instant sheds.
    let frames = gen_frames(SPEC, 4, 2, 600);
    let input = connection_bytes(None, &frames, true);
    let config = MachineConfig {
        rate: Some(4.0),
        ..MachineConfig::default()
    };
    let mut session = build_session(SPEC).unwrap();
    let acks = machine_acks(
        session.as_mut(),
        config,
        &input,
        &random_splits(input.len(), 0x5AFE),
    );
    // `+` for the first frame, then `!` + 4-byte retry hint for the
    // shed one, then `+` for the end-of-stream flush.
    assert_eq!(acks[0], b'+');
    assert_eq!(acks[1], protocol::BUSY_BYTE);
    assert_eq!(acks.len(), 1 + 5 + 1);
    assert_eq!(*acks.last().unwrap(), b'+');
    assert_eq!(session.count(), 4, "only the first frame absorbed");
}

#[test]
fn random_fleets_stay_bit_identical_across_twenty_seeds() {
    for seed in 0..20u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let frame_count = (xorshift(&mut state) % 4 + 1) as usize;
        let per_frame = xorshift(&mut state) % 24 + 1;
        let frames = gen_frames(SPEC, per_frame, frame_count, seed * 31 + 7);
        let sequenced = xorshift(&mut state).is_multiple_of(2);
        let with_eos = !xorshift(&mut state).is_multiple_of(4);
        let input = if sequenced {
            let id = format!("fz{seed}");
            let mut bytes = frame(&protocol::encode_hello(&id, 0));
            for (n, f) in frames.iter().enumerate() {
                bytes.extend_from_slice(&frame(&protocol::encode_seq_frame(n as u64, f)));
            }
            if with_eos {
                bytes.extend_from_slice(&eos());
            }
            bytes
        } else {
            connection_bytes(None, &frames, with_eos)
        };
        assert_equivalent(
            &format!("random_fleet_{seed:02}"),
            &[input],
            64 * 1024,
            seed ^ 0xDEAD_BEEF,
        );
    }
}

#[test]
fn machine_end_states_match_their_inputs() {
    // Clean EOS → Completed; missing EOS → PeerClosed; gap → Failed.
    let frames = gen_frames(SPEC, 6, 1, 700);
    type EndCase = (Vec<u8>, fn(&MachineEnd) -> bool, &'static str);
    let cases: Vec<EndCase> = vec![
        (
            connection_bytes(None, &frames, true),
            |end| matches!(end, MachineEnd::Completed),
            "Completed",
        ),
        (
            connection_bytes(None, &frames, false),
            |end| matches!(end, MachineEnd::PeerClosed),
            "PeerClosed",
        ),
        (
            {
                let mut b = frame(&protocol::encode_hello("ends", 0));
                b.extend_from_slice(&frame(&protocol::encode_seq_frame(9, &frames[0])));
                b
            },
            |end| matches!(end, MachineEnd::Failed(_)),
            "Failed",
        ),
    ];
    for (input, want, label) in cases {
        let mut session = build_session(SPEC).unwrap();
        let decoder = session.batch_decoder();
        let mut machine = Machine::new(MachineConfig::default(), Instant::now());
        let mut actions = Vec::new();
        let mut acks = Vec::new();
        let mut ends = Vec::new();
        machine.start(&mut actions);
        resolve(
            session.as_mut(),
            &mut machine,
            &mut actions,
            &mut acks,
            &mut ends,
        );
        let mut offset = 0;
        while offset < input.len() && !machine.is_ended() {
            let n = machine.on_bytes(
                &input[offset..],
                Instant::now(),
                decoder.as_ref(),
                &mut actions,
            );
            resolve(
                session.as_mut(),
                &mut machine,
                &mut actions,
                &mut acks,
                &mut ends,
            );
            assert!(n > 0 || machine.is_ended(), "{label}: machine stalled");
            offset += n;
        }
        if !machine.is_ended() {
            machine.on_eof(&mut actions);
            resolve(
                session.as_mut(),
                &mut machine,
                &mut actions,
                &mut acks,
                &mut ends,
            );
        }
        assert!(machine.is_ended(), "{label}: machine must have ended");
        assert_eq!(ends.len(), 1, "{label}: exactly one end state");
        assert!(want(&ends[0]), "wrong end state, wanted {label}");
    }
}
