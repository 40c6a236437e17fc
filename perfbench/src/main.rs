//! `perfbench` — the repository benchmark: served SW ingest
//! (`ingest-sw`), mixed-window ingest under session churn
//! (`ingest-mixed`) and the paper's offline SW-EMS estimation
//! (`estimate-sw`), plus a traced per-layer ledger.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --collector PATH --spec PATH --benchmark PATH
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds the collector and this package first. With `--trace 0` the last
//! stdout line carries every end-to-end metric of `BENCHMARK.json`; with
//! `--trace 1` every per-layer metric. A failed output check exits
//! non-zero without a result line. Results with sample counts and
//! provenance go to `.bench_out/`, traces next to them.

mod client;
mod estimate_sw;
mod ingest_mixed;
mod ingest_sw;
mod inproc;
mod json;
mod layers;
mod ledger;
mod openloop;
mod plan;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use json::{quote, Json};
use report::Outcome;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Everything a workload needs to run.
pub struct Ctx {
    /// The built `ldp-collector` binary.
    pub bin: PathBuf,
    /// Scratch directory for snapshots and summaries.
    pub run_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// `spec.json` (limits and the layer map).
    spec: Json,
}

impl Ctx {
    /// Limit `key` from `spec.json`'s `limits`.
    pub fn limit(&self, key: &str) -> Result<f64, String> {
        self.spec
            .get("limits")
            .ok_or("spec.json has no limits")?
            .req_num(key)
    }
}

/// Share of `--seconds` each ingest workload's served leg gets in the
/// traced run (which covers all three workloads).
const TRACE_SERVE_SHARE: f64 = 0.3;

const WORKLOADS: [&str; 3] = ["ingest-sw", "ingest-mixed", "estimate-sw"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    collector: PathBuf,
    spec: PathBuf,
    benchmark: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut collector, mut spec, mut benchmark) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--collector" => collector = Some(PathBuf::from(value)),
            "--spec" => spec = Some(PathBuf::from(value)),
            "--benchmark" => benchmark = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        collector: collector.ok_or("missing --collector")?,
        spec: spec.ok_or("missing --spec")?,
        benchmark: benchmark.ok_or("missing --benchmark")?,
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Metric names and units `BENCHMARK.json` declares under `key`.
fn declared(benchmark: &Json, key: &str) -> Result<BTreeSet<(String, String)>, String> {
    match benchmark.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("{key} entry without a name and unit")),
            })
            .collect(),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = read_json(&args.spec)?;
    let benchmark = read_json(&args.benchmark)?;
    if !args.collector.is_file() {
        return Err(format!(
            "collector binary {} not found",
            args.collector.display()
        ));
    }
    let run_dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("creating .bench_run: {e}"))?;
    let ctx = Ctx {
        bin: args.collector.clone(),
        run_dir,
        seed: args.seed,
        seconds: args.seconds,
        spec,
    };
    let (mut out, key) = if args.trace {
        let mut out = Outcome::default();
        let serve_seconds = args.seconds * TRACE_SERVE_SHARE;
        out.absorb(ingest_sw::trace(&ctx, serve_seconds)?);
        out.absorb(ingest_mixed::trace(&ctx, serve_seconds)?);
        out.absorb(estimate_sw::trace(&ctx)?);
        (out, "per_layer")
    } else {
        let out = match args.workload.as_str() {
            "ingest-sw" => ingest_sw::run(&ctx)?,
            "ingest-mixed" => ingest_mixed::run(&ctx)?,
            _ => estimate_sw::run(&ctx)?,
        };
        (out, "end_to_end")
    };
    let want = declared(&benchmark, key)?;
    let got: BTreeSet<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    if got != want || got.len() != out.metrics.len() {
        let missing: Vec<_> = want.difference(&got).collect();
        let extra: Vec<_> = got.difference(&want).collect();
        return Err(format!(
            "emitted metrics do not match BENCHMARK.json {key}: missing {missing:?}, extra {extra:?}"
        ));
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    provenance(&ctx, args, &mut out);
    Ok(out)
}

/// Records where and how the numbers were made.
fn provenance(ctx: &Ctx, args: &Args, out: &mut Outcome) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    let simd = if ldp_numeric::kernels::simd_enabled() {
        "avx2".to_string()
    } else if std::env::var(ldp_numeric::kernels::NO_SIMD_ENV).is_ok() {
        "scalar (LDP_NO_SIMD set)".to_string()
    } else {
        "scalar (no avx2)".to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.fact_str("workload", &args.workload);
    out.fact("seed", args.seed.to_string());
    out.fact("seconds", json::num(args.seconds));
    out.fact("trace", args.trace.to_string());
    out.fact_str("git_commit", &commit);
    out.fact_str("source_digest", &format!("{:016x}", source_digest()));
    out.fact("nproc", nproc.to_string());
    out.fact("pool_threads", ldp_pool::configured_threads().to_string());
    out.fact_str("simd", &simd);
    out.fact_str("snapshot_fs", &filesystem_of(&ctx.run_dir));
}

/// FNV-1a over the sources the measured programs are built from, so a
/// result from a checkout without git history still names its code.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["crates", "src", "vendor", "perfbench"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The filesystem type `dir` lives on, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn main() -> ExitCode {
    serve::arm_watchdog(Duration::from_secs(170));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let _ = std::fs::create_dir_all(".bench_out");
    let _ = std::fs::write(format!(".bench_out/{stem}.json"), out.results_json());
    if !out.trace.is_empty() {
        let _ = std::fs::write(format!(".bench_out/{stem}.trace.tsv"), &out.trace);
    }
    for m in &out.metrics {
        println!(
            "{:<52} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    println!("facts {{{}}}", facts.join(","));
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
