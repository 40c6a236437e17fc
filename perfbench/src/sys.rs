//! The few Linux calls the standard library does not expose: per-child
//! resource usage at exit (`wait4`), a poll with a sub-millisecond timeout
//! (`ppoll`) and a precise timer slack (`prctl`). The benchmark runs on
//! x86-64 Linux only; the struct layouts below are that ABI's.

use std::os::raw::{c_int, c_long, c_void};
use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// One entry of a `ppoll` set.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// The descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn malloc_trim(pad: usize) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A CPU set as the kernel's `cpu_set_t` (1024 bits).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs in the set, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// The set holding exactly `cpus`.
    pub fn of(cpus: &[usize]) -> CpuSet {
        let mut m = [0u64; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            m[c / 64] |= 1 << (c % 64);
        }
        CpuSet(m)
    }
}

/// The calling thread's CPU affinity.
pub fn affinity() -> std::io::Result<CpuSet> {
    let mut m = [0u64; 16];
    // SAFETY: `m` is a live 128-byte buffer and its size is passed along;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(CpuSet(m))
}

/// Restricts the calling thread (and children it spawns afterwards) to
/// `set`.
pub fn set_affinity(set: &CpuSet) -> std::io::Result<()> {
    // SAFETY: `set.0` is a live 128-byte buffer and its size is passed
    // along; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// CPU time the calling thread has used so far (CLOCK_THREAD_CPUTIME_ID).
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is live and laid out as the x86-64 Linux
    // `struct timespec`; clock 3 is CLOCK_THREAD_CPUTIME_ID.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// User plus system CPU time this process has used so far.
pub fn self_cpu() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is live and laid out as the x86-64 Linux
    // `struct rusage` getrusage fills; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec as u32) * 1000);
    tv(usage.utime) + tv(usage.stime)
}

/// CPU time process `pid` has used so far, from `/proc/<pid>/stat`, in
/// clock ticks' resolution.
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    // SAFETY: sysconf takes an integer and touches no memory of ours;
    // _SC_CLK_TCK is 2.
    let hz = unsafe { sysconf(2) };
    (hz > 0).then(|| Duration::from_nanos(ticks * 1_000_000_000 / hz as u64))
}

/// Returns freed heap memory to the kernel and restarts this process's
/// peak-RSS mark at its current RSS, so a following VmHWM reading covers
/// only what runs in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim takes a size and only releases free memory.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// This process's peak resident set size (VmHWM) in bytes.
pub fn self_peak_rss() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Sends SIGKILL to `pid` (used only by the watchdog on a stuck run).
pub fn kill_hard(pid: u32) {
    if let Ok(pid) = c_int::try_from(pid) {
        // SAFETY: kill takes two integers and touches no memory of ours.
        unsafe {
            kill(pid, 9);
        }
    }
}

/// What a reaped child used over its whole life.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size (the kernel's `ru_maxrss`, i.e. VmHWM).
    pub peak_rss_bytes: u64,
    /// Whether the child exited with status 0.
    pub success: bool,
}

/// Waits for child `pid` to exit and reaps it, returning its resource
/// usage. The caller must own the child and must not reap it otherwise.
pub fn wait_child(pid: u32) -> std::io::Result<ChildUsage> {
    let pid = c_int::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the x86-64 Linux `int` and `struct rusage` that wait4 fills.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec as u32) * 1000);
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildUsage {
        cpu: tv(usage.utime) + tv(usage.stime),
        peak_rss_bytes: (usage.maxrss_kb as u64) * 1024,
        success,
    })
}

/// Polls `fds` for at most `timeout`; returns once any is ready.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
    let ts = Timespec {
        sec: timeout.as_secs() as c_long,
        nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live slice of `pollfd`-layout entries whose length
    // is passed alongside; `ts` outlives the call; a null sigmask is allowed.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Sets this thread's timer slack to 1 ns, so timed waits wake on time
/// instead of up to 50 µs late.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_long);
    }
}

/// Restores the calling thread's original CPU affinity when dropped.
pub struct AffinityGuard(CpuSet);

impl AffinityGuard {
    /// Remembers the calling thread's current affinity.
    pub fn save() -> std::io::Result<AffinityGuard> {
        affinity().map(AffinityGuard)
    }

    /// The saved set split into (all but the last CPU, the last CPU), or
    /// `None` on a single CPU.
    pub fn split(&self) -> Option<(CpuSet, CpuSet)> {
        let cpus = self.0.cpus();
        let (last, rest) = cpus.split_last()?;
        (!rest.is_empty()).then(|| (CpuSet::of(rest), CpuSet::of(&[*last])))
    }
}

impl Drop for AffinityGuard {
    fn drop(&mut self) {
        let _ = set_affinity(&self.0);
    }
}
