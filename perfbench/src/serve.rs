//! The collector under test as a child process: `ldp-collector serve`
//! (and `finalize`) run from the built binary, so their CPU time and peak
//! RSS are the kernel's own accounting for that process.

use crate::json::Json;
use crate::sys::{self, ChildUsage};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids of every live child, for the watchdog.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn register(pid: u32) {
    CHILDREN.lock().expect("child registry poisoned").push(pid);
}

fn unregister(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry poisoned")
        .retain(|&p| p != pid);
}

/// Kills the whole run after `limit`: every live child is killed and the
/// process exits with code 3 without printing a result.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; killing children");
        let pids = CHILDREN.lock().map(|g| g.clone()).unwrap_or_default();
        for pid in pids {
            sys::kill_hard(pid);
            let _ = sys::wait_child(pid);
        }
        std::process::exit(3);
    });
}

/// A running `serve` process.
pub struct Serve {
    child: Option<Child>,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// When it was spawned.
    pub spawned: Instant,
    stdout: Option<JoinHandle<(String, Instant)>>,
    stderr: Option<JoinHandle<String>>,
}

/// What a finished `serve` left behind.
pub struct Finished {
    /// Its standard output (the `--finalize` estimate).
    pub stdout: String,
    /// When its standard output closed (the estimate is complete).
    pub stdout_closed: Instant,
    /// Its resource usage.
    pub usage: ChildUsage,
}

impl Serve {
    /// Spawns `bin serve <args> --listen 127.0.0.1:0` and waits for its
    /// listening line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Serve, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        register(child.id());
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut serve = Serve {
            child: Some(child),
            addr: "127.0.0.1:1".parse().expect("literal address"),
            spawned,
            stdout: Some(std::thread::spawn(move || {
                let mut text = String::new();
                let _ = stdout.read_to_string(&mut text);
                (text, Instant::now())
            })),
            stderr: None,
        };
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading serve stderr: {e}"))?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("serve did not start: {}", line.trim()))?;
        serve.addr = addr;
        serve.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        }));
        Ok(serve)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits for the process to exit on its own and collects its output
    /// and resource usage. Fails if it exited with an error.
    // The child is reaped by `sys::wait_child` (wait4), which also returns
    // its resource usage; `Child::wait` would discard that.
    #[allow(clippy::zombie_processes)]
    pub fn finish(mut self) -> Result<Finished, String> {
        let child = self.child.take().expect("finish called once");
        let (stdout, stdout_closed) = self
            .stdout
            .take()
            .expect("stdout reader")
            .join()
            .map_err(|_| "stdout reader panicked")?;
        let usage = sys::wait_child(child.id()).map_err(|e| format!("waiting for serve: {e}"))?;
        unregister(child.id());
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !usage.success {
            return Err(format!("serve exited with an error: {}", stderr.trim()));
        }
        Ok(Finished {
            stdout,
            stdout_closed,
            usage,
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = sys::wait_child(child.id());
            unregister(child.id());
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Runs `bin finalize --mechanism spec --snapshot path`; returns the
/// rendered estimate and the process's resource usage.
pub fn finalize_snapshot(
    bin: &Path,
    spec: &str,
    path: &Path,
) -> Result<(String, ChildUsage), String> {
    let mut child = Command::new(bin)
        .args(["finalize", "--mechanism", spec, "--snapshot"])
        .arg(path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning finalize: {e}"))?;
    register(child.id());
    let mut text = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut text);
    let usage = sys::wait_child(child.id());
    unregister(child.id());
    let usage = usage.map_err(|e| format!("waiting for finalize: {e}"))?;
    read.map_err(|e| format!("reading finalize output: {e}"))?;
    if !usage.success {
        return Err(format!("finalize {} failed", path.display()));
    }
    Ok((text, usage))
}

/// Renders every window's estimate from its final snapshot through the
/// collector binary, one window after another. Returns the rendering
/// processes' total CPU time and the wall time, both in ms, and the
/// estimates.
pub fn render_estimates(
    bin: &Path,
    windows: &[(&str, PathBuf)],
) -> Result<(f64, f64, Vec<String>), String> {
    let t = Instant::now();
    let mut cpu = Duration::ZERO;
    let mut estimates = Vec::new();
    for (spec, path) in windows {
        let (text, usage) = finalize_snapshot(bin, spec, path)?;
        cpu += usage.cpu;
        estimates.push(text);
    }
    let wall = t.elapsed();
    Ok((cpu.as_secs_f64() * 1e3, wall.as_secs_f64() * 1e3, estimates))
}

/// What a generator counted, to be matched against `serve
/// --summary-json`.
pub struct Counted {
    /// Reports in frames acked `+`.
    pub reports: u64,
    /// Sessions whose connect succeeded.
    pub accepted: u64,
    /// Sessions closed by an acked end-of-stream.
    pub completed: u64,
    /// Sessions that failed after connecting.
    pub failed: u64,
    /// `!busy` sheds received.
    pub sheds: u64,
}

/// Busy sheds the collector reports, of every kind.
pub fn sheds(summary: &Json) -> Result<f64, String> {
    Ok(summary.req_num("admission_sheds")?
        + summary.req_num("quota_sheds")?
        + summary.req_num("rate_sheds")?)
}

/// The generator's accounting must match the collector's, and no frame
/// may have been suppressed as a duplicate.
pub fn cross_check(summary: &Json, counted: &Counted) -> Result<(), String> {
    let served_sheds = sheds(summary)?;
    for (key, got, want) in [
        ("reports", summary.req_num("reports")?, counted.reports),
        ("accepted", summary.req_num("accepted")?, counted.accepted),
        (
            "completed",
            summary.req_num("completed")?,
            counted.completed,
        ),
        ("failed", summary.req_num("failed")?, counted.failed),
        ("sheds", served_sheds, counted.sheds),
        (
            "duplicates_suppressed",
            summary.req_num("duplicates_suppressed")?,
            0,
        ),
    ] {
        if got != want as f64 {
            return Err(format!("summary {key} = {got}, generator counted {want}"));
        }
    }
    Ok(())
}

/// Reads and parses a `--summary-json` file.
pub fn read_summary(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// A fresh, empty scratch directory `name` under the run directory.
pub fn fresh_dir(run_dir: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = run_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
