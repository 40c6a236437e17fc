//! End-to-end tests of the `ldp-collector` binary: every subcommand runs
//! as a real process, exactly as `docs/OPERATIONS.md` documents it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldp-collector"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-collector-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn ldp-collector");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

const SPEC: &str = "sw-ems:eps=1,d=32";

fn gen_reports(dir: &Path, n: u64) -> PathBuf {
    let reports = dir.join("reports.txt");
    run_ok(bin().args([
        "gen",
        "--mechanism",
        SPEC,
        "--n",
        &n.to_string(),
        "--seed",
        "42",
        "--out",
        reports.to_str().unwrap(),
    ]));
    reports
}

/// One-shot estimate of the full report file: the recovery baseline.
fn one_shot(dir: &Path, reports: &Path) -> String {
    let snap = dir.join("oneshot.snap");
    let out = run_ok(bin().args([
        "ingest",
        "--mechanism",
        SPEC,
        "--input",
        reports.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--finalize",
    ]));
    stdout(&out)
}

#[test]
fn kill_and_resume_is_bit_identical_to_one_shot() {
    let dir = scratch("resume");
    let reports = gen_reports(&dir, 6_000);
    let expected = one_shot(&dir, &reports);
    assert_eq!(expected.lines().count(), 32);

    // "Crash" after 2,500 reports: the process exits with only the
    // snapshot surviving.
    let snap = dir.join("window.snap");
    run_ok(bin().args([
        "ingest",
        "--mechanism",
        SPEC,
        "--input",
        reports.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--snapshot-every",
        "1000",
        "--max-reports",
        "2500",
    ]));
    let header = stdout(&run_ok(bin().args(["inspect", snap.to_str().unwrap()])));
    assert!(header.contains("reports     2500"), "{header}");
    assert!(header.contains("mechanism   sw-ems:eps=1,d=32"), "{header}");

    // A fresh process resumes from the snapshot and replays the log.
    let out = run_ok(bin().args([
        "ingest",
        "--mechanism",
        SPEC,
        "--input",
        reports.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--resume",
        "--finalize",
    ]));
    assert_eq!(
        stdout(&out),
        expected,
        "recovered estimate must be bit-identical"
    );
}

#[test]
fn three_shard_merge_equals_concatenated_ingest() {
    let dir = scratch("merge");
    let reports = gen_reports(&dir, 6_000);
    let expected = one_shot(&dir, &reports);

    // Split the stream across three parallel collectors.
    let text = std::fs::read_to_string(&reports).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut snaps = Vec::new();
    for (i, chunk) in lines.chunks(2_000).enumerate() {
        let part = dir.join(format!("part{i}.txt"));
        std::fs::write(&part, chunk.join("\n")).unwrap();
        let snap = dir.join(format!("shard{i}.snap"));
        run_ok(bin().args([
            "ingest",
            "--mechanism",
            SPEC,
            "--input",
            part.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
        ]));
        snaps.push(snap);
    }
    assert_eq!(snaps.len(), 3);

    let merged = dir.join("merged.snap");
    let mut args = vec![
        "merge".to_string(),
        "--mechanism".into(),
        SPEC.into(),
        "--out".into(),
        merged.to_str().unwrap().into(),
        "--finalize".into(),
    ];
    args.extend(snaps.iter().map(|s| s.to_str().unwrap().to_string()));
    let out = run_ok(bin().args(&args));
    assert_eq!(stdout(&out), expected, "3-shard merge must equal one-shot");

    // `finalize` over the merged snapshot agrees too.
    let out = run_ok(bin().args([
        "finalize",
        "--mechanism",
        SPEC,
        "--snapshot",
        merged.to_str().unwrap(),
    ]));
    assert_eq!(stdout(&out), expected);
}

#[test]
fn corrupted_and_cross_config_snapshots_are_refused() {
    let dir = scratch("reject");
    let reports = gen_reports(&dir, 500);
    let snap = dir.join("window.snap");
    run_ok(bin().args([
        "ingest",
        "--mechanism",
        SPEC,
        "--input",
        reports.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ]));

    // Bit rot: flip a digit inside the state body.
    let good = std::fs::read_to_string(&snap).unwrap();
    let body_line = good.lines().nth(5).unwrap().to_string();
    let idx = body_line
        .find(|c: char| c.is_ascii_digit() && c != '7')
        .unwrap();
    let mut tampered_line = body_line.clone();
    tampered_line.replace_range(idx..idx + 1, "7");
    assert_ne!(body_line, tampered_line, "test must actually tamper");
    std::fs::write(&snap, good.replacen(&body_line, &tampered_line, 1)).unwrap();
    let out = bin()
        .args([
            "finalize",
            "--mechanism",
            SPEC,
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Cross-configuration: a valid snapshot under a different ε.
    std::fs::write(&snap, &good).unwrap();
    let out = bin()
        .args([
            "finalize",
            "--mechanism",
            "sw-ems:eps=2,d=32",
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Truncation mid-write (no atomic rename): drop the checksum line.
    let torn: String =
        good.lines()
            .take(good.lines().count() - 1)
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
    std::fs::write(&snap, torn).unwrap();
    let out = bin()
        .args([
            "finalize",
            "--mechanism",
            SPEC,
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_ingests_framed_batches_over_tcp() {
    let dir = scratch("serve");
    let reports = gen_reports(&dir, 900);
    let expected = one_shot(&dir, &reports);
    let snap = dir.join("window.snap");

    // Pick a free port first, then hand it to the server process.
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let server = bin()
        .args([
            "serve",
            "--mechanism",
            SPEC,
            "--listen",
            &addr,
            "--snapshot",
            snap.to_str().unwrap(),
            "--snapshot-every",
            "300",
            "--connections",
            "1",
            "--finalize",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Forward the reports in three frames, then the end-of-stream frame.
    let text = std::fs::read_to_string(&reports).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut stream = connect_with_retry(&addr);
    for chunk in lines.chunks(300) {
        let payload = chunk.join("\n");
        stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        let mut ack = [0u8; 1];
        stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack[0], b'+');
    }
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], b'+');

    let out = server.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "socket-collected window must equal file ingestion"
    );
    // The snapshot survives for recovery/merge.
    let header = stdout(&run_ok(bin().args(["inspect", snap.to_str().unwrap()])));
    assert!(header.contains("reports     900"), "{header}");
}

fn connect_with_retry(addr: &str) -> TcpStream {
    for _ in 0..100 {
        if let Ok(s) = TcpStream::connect(addr) {
            return s;
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
    }
    panic!("server at {addr} never came up");
}

#[test]
fn resume_rejects_a_shorter_replay_log() {
    let dir = scratch("shortlog");
    let reports = gen_reports(&dir, 1_000);
    let snap = dir.join("window.snap");
    run_ok(bin().args([
        "ingest",
        "--mechanism",
        SPEC,
        "--input",
        reports.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ]));
    // Replay log shorter than the snapshot's absorbed count.
    let text = std::fs::read_to_string(&reports).unwrap();
    let short: String = text.lines().take(400).collect::<Vec<_>>().join("\n");
    std::fs::write(&reports, short).unwrap();
    let out = bin()
        .args([
            "ingest",
            "--mechanism",
            SPEC,
            "--input",
            reports.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot resume"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn specs_lists_every_registered_mechanism() {
    let out = stdout(&run_ok(bin().args(["specs"])));
    for name in [
        "sw-ems",
        "sw-em",
        "grr",
        "olh",
        "oue",
        "hrr",
        "adaptive",
        "cfo-binning",
        "pm",
        "sr",
        "hybrid",
        "hh",
        "hh-admm",
        "haar-hrr",
    ] {
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "missing {name} in:\n{out}"
        );
    }
    assert_eq!(out.lines().count(), 14, "{out}");
}

#[test]
fn a_typo_in_the_mechanism_name_gets_a_suggestion() {
    let out = bin()
        .args(["gen", "--mechanism", "sw-emz:eps=1,d=32", "--n", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean"), "stderr: {stderr}");
    assert!(stderr.contains("sw-em"), "stderr: {stderr}");
}

#[test]
fn serve_shuts_down_when_the_shutdown_file_appears() {
    let dir = scratch("shutdown-file");
    let reports = gen_reports(&dir, 300);
    let snap = dir.join("window.snap");
    let stop = dir.join("stop.now");
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let mut server = bin()
        .args([
            "serve",
            "--mechanism",
            SPEC,
            "--listen",
            &addr,
            "--snapshot",
            snap.to_str().unwrap(),
            "--shutdown-file",
            stop.to_str().unwrap(),
        ])
        .spawn()
        .unwrap();

    // Stream the whole log in one frame, but never send end-of-stream —
    // shutdown has to end the window for us.
    let text = std::fs::read_to_string(&reports).unwrap();
    let payload = text.trim_end();
    let mut stream = connect_with_retry(&addr);
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let mut ack = [0u8; 1];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack[0], b'+');

    std::fs::write(&stop, "").unwrap();
    let status = server.wait().unwrap();
    assert!(status.success());
    // The acked frame survived shutdown in the final snapshot.
    let header = stdout(&run_ok(bin().args(["inspect", snap.to_str().unwrap()])));
    assert!(header.contains("reports     300"), "{header}");
}

/// Runs a command that must be refused at argument parsing: it exits
/// non-zero within a few seconds (a `serve` that ignored the bad flag
/// would listen forever and be killed here). Returns its stderr.
fn run_refused(args: &[&str]) -> String {
    let mut child = bin()
        .args(args)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            panic!("`ldp-collector {}` kept running", args.join(" "));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelled_flag_is_refused_not_ignored() {
    let stderr = run_refused(&[
        "serve",
        "--mechanism",
        "grr:eps=1,d=8",
        "--listen",
        "127.0.0.1:0",
        "--conections",
        "1",
        "--snapshot-evry",
        "5",
    ]);
    assert!(stderr.contains("unknown flag --conections"), "{stderr}");
    let stderr = run_refused(&["gen", "--mechanism", SPEC, "--n", "1", "--sed", "3"]);
    assert!(stderr.contains("unknown flag --sed"), "{stderr}");
}

#[test]
fn the_removed_engine_switches_are_refused() {
    for switch in ["--serial", "--threads-per-conn"] {
        let stderr = run_refused(&[
            "serve",
            switch,
            "--mechanism",
            "grr:eps=1,d=8",
            "--listen",
            "127.0.0.1:0",
            "--connections",
            "1",
        ]);
        assert!(
            stderr.contains(&format!("unknown flag {switch}")),
            "{stderr}"
        );
    }
}
