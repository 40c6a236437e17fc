//! `estimate-sw`: the paper's offline experiment. SW-EMS over Beta(5,2)
//! (n = 100k, d = 256) and Income-like (n = 2.31M, d = 1024) at
//! ε ∈ {0.5, 1, 2.5}. Each trial runs `Client::randomize_batch` →
//! `Aggregator::push_slice_pooled` → `finalize` (EMS) → W1/KS against the
//! truth; trials run through `parallel_jobs` on one pool thread per core.
//! No socket or decode code runs here.

use crate::report::Outcome;
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::Ctx;
use ldp_core::{Aggregator, Client};
use ldp_datasets::{DatasetKind, DatasetSpec};
use ldp_experiments::runner::parallel_jobs;
use ldp_experiments::ExperimentError;
use ldp_numeric::rng::mix64;
use ldp_numeric::{Histogram, SplitMix64};
use ldp_sw::{EmConfig, SwMechanism};
use std::time::{Duration, Instant};

const EPSILONS: [f64; 3] = [0.5, 1.0, 2.5];
const DATASETS: [(DatasetKind, &str, usize); 2] = [
    (DatasetKind::Beta, "beta", 256),
    (DatasetKind::Income, "income", 1024),
];
/// The datasets are fixed, as the paper's are; `--seed` drives the
/// randomizers of the trials run over them.
const DATASET_SEED: u64 = 2020;
/// Trials per `parallel_jobs` batch: two rounds of every configuration.
const BATCH_ROUNDS: usize = 2;
const SETUP_REPS: usize = 5;
/// Serial, unpooled rounds of every configuration: the single-threaded
/// per-report baseline (median over rounds) and the determinism check.
const SERIAL_ROUNDS: usize = 5;
/// Rounds of every configuration in the traced leg.
const TRACED_ROUNDS: usize = 2;

/// One (dataset, ε) cell of the grid.
struct Config {
    label: String,
    d: usize,
    dataset: usize,
    mech: SwMechanism,
}

/// Datasets, their truth histograms and every configuration's mechanism.
struct Setup {
    values: Vec<Vec<f64>>,
    truths: Vec<Histogram>,
    configs: Vec<Config>,
}

fn build() -> Result<Setup, String> {
    let mut values = Vec::new();
    let mut truths = Vec::new();
    let mut configs = Vec::new();
    for (i, (kind, name, d)) in DATASETS.iter().enumerate() {
        let data = DatasetSpec::paper_scale(*kind, mix64(DATASET_SEED ^ i as u64)).generate();
        truths.push(data.histogram(*d).map_err(|e| e.to_string())?);
        values.push(data.values);
        for eps in EPSILONS {
            configs.push(Config {
                label: format!("{name}-eps{eps}"),
                d: *d,
                dataset: i,
                mech: SwMechanism::ems(eps, *d).map_err(|e| e.to_string())?,
            });
        }
    }
    Ok(Setup {
        values,
        truths,
        configs,
    })
}

/// One trial's result and the time each stage took.
struct Trial {
    config: usize,
    estimate: Histogram,
    w1: f64,
    total: Duration,
    randomize: Duration,
    aggregate: Duration,
    finalize: Duration,
    eval: Duration,
    /// Calling thread's CPU time in randomize and aggregate.
    per_report_cpu: Duration,
    counts: Vec<f64>,
    /// Start and end, for pool efficiency.
    span: (Instant, Instant),
}

fn trial(setup: &Setup, seed: u64, j: usize, pooled: bool) -> Result<Trial, String> {
    let c = j % setup.configs.len();
    let cfg = &setup.configs[c];
    let values = &setup.values[cfg.dataset];
    let mut rng = SplitMix64::new(mix64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ j as u64));
    let c0 = sys::thread_cpu();
    let t0 = Instant::now();
    let reports = Client::new(&cfg.mech)
        .randomize_batch(values, &mut rng)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut agg = Aggregator::new(&cfg.mech);
    if pooled {
        agg.push_slice_pooled(&reports)
    } else {
        agg.push_slice(&reports)
    }
    .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let per_report_cpu = sys::thread_cpu() - c0;
    let estimate = agg.finalize().map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let truth = &setup.truths[cfg.dataset];
    let w1 = ldp_metrics::wasserstein(truth, &estimate).map_err(|e| e.to_string())?;
    let ks = ldp_metrics::ks_distance(truth, &estimate).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    check_histogram(&estimate, cfg.d, &cfg.label)?;
    if !(w1.is_finite() && ks.is_finite()) {
        return Err(format!("{}: non-finite distance", cfg.label));
    }
    Ok(Trial {
        config: c,
        w1,
        total: t4 - t0,
        randomize: t1 - t0,
        aggregate: t2 - t1,
        finalize: t3 - t2,
        eval: t4 - t3,
        per_report_cpu,
        counts: agg.state().to_counts(),
        estimate,
        span: (t0, t4),
    })
}

/// A valid histogram: `d` finite, non-negative probabilities summing to 1.
fn check_histogram(h: &Histogram, d: usize, label: &str) -> Result<(), String> {
    let p = h.probs();
    let sum: f64 = p.iter().sum();
    if p.len() != d || p.iter().any(|x| !x.is_finite() || *x < 0.0) || (sum - 1.0).abs() > 1e-9 {
        return Err(format!("{label}: estimate is not a valid histogram"));
    }
    Ok(())
}

/// Runs trials `first..first + n` through `parallel_jobs`.
fn batch(setup: &Setup, seed: u64, first: usize, n: usize) -> Result<Vec<Trial>, String> {
    let threads = ldp_pool::configured_threads();
    parallel_jobs(n, threads, |i| {
        trial(setup, seed, first + i, true).map_err(ExperimentError)
    })
    .map_err(|e| e.to_string())
}

fn per_config<F: Fn(&Trial) -> f64>(trials: &[Trial], n: usize, q: f64, f: F) -> f64 {
    let per: Vec<f64> = (0..n)
        .map(|c| {
            let v: Vec<f64> = trials.iter().filter(|t| t.config == c).map(&f).collect();
            quantile(&v, q)
        })
        .collect();
    mean(&per)
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = build()?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let per_round = setup.configs.len();
    let jobs = per_round * BATCH_ROUNDS;
    let cpu0 = sys::self_cpu();
    let start = Instant::now();
    let mut trials = Vec::new();
    let mut attempted = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        attempted += jobs as u64;
        trials.extend(batch(&setup, ctx.seed, trials.len(), jobs)?);
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = sys::self_cpu() - cpu0;
    let reports: u64 = trials
        .iter()
        .map(|t| setup.values[setup.configs[t.config].dataset].len() as u64)
        .sum();
    // Single-threaded baseline of the per-report stages (randomize and
    // aggregate, in thread CPU time; EMS cost depends on iterations, not
    // reports, and is `finalize_ms`), and the determinism check: every round again,
    // serially and unpooled, must reproduce the pooled estimates of the
    // same trials bit for bit.
    let bits = |h: &Histogram| h.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    // Peak memory of one estimate at a time: the pooled phase's peak
    // depends on which trials happened to overlap and on what the
    // allocator kept cached, so it is measured over the serial rounds.
    sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
    let mut serial_ns = Vec::new();
    let mut serial_reports = 0u64;
    for round in 0..SERIAL_ROUNDS.min(trials.len() / per_round) {
        let (mut busy, mut n) = (Duration::ZERO, 0u64);
        for c in 0..per_round {
            let j = round * per_round + c;
            let t = trial(&setup, ctx.seed, j, false)?;
            busy += t.per_report_cpu;
            n += setup.values[setup.configs[c].dataset].len() as u64;
            if bits(&t.estimate) != bits(&trials[j].estimate) {
                return Err(format!(
                    "{}: a second run on the same seed gave a different estimate",
                    setup.configs[c].label
                ));
            }
        }
        serial_ns.push(busy.as_nanos() as f64 / n as f64);
        serial_reports += n;
    }
    let w1 = mean(&trials.iter().map(|t| t.w1).collect::<Vec<_>>());
    let w1_max = ctx.limit("w1_mean_max")?;
    if w1 > w1_max {
        return Err(format!("w1_mean {w1} exceeds the bound {w1_max}"));
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let n = trials.len() as u64;
    let mut out = Outcome {
        attempted,
        failed: attempted - n,
        ..Outcome::default()
    };
    out.metric("setup_s", median(&setup_s), "s", SETUP_REPS as u64);
    out.metric("throughput_per_s", n as f64 / wall, "1/s", n);
    out.metric(
        "latency_p50_ms",
        per_config(&trials, per_round, 0.5, |t| ms(t.total)),
        "ms",
        n,
    );
    out.fact(
        "latency_p90_ms",
        crate::json::num(per_config(&trials, per_round, 0.9, |t| ms(t.total))),
    );
    out.metric(
        "cpu_ns_per_report",
        cpu.as_nanos() as f64 / reports as f64,
        "ns",
        reports,
    );
    out.fact("inproc_ns_per_report", crate::json::num(median(&serial_ns)));
    out.fact("serial_reports", serial_reports.to_string());
    out.fact(
        "finalize_ms",
        crate::json::num(per_config(&trials, per_round, 0.5, |t| ms(t.finalize))),
    );
    out.metric(
        "peak_rss_mb",
        sys::self_peak_rss() as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    );
    out.fact("w1_mean", crate::json::num(w1));
    out.fact("w1_mean_max", crate::json::num(w1_max));
    out.fact(
        "pool_jobs_threads",
        ldp_pool::configured_threads().to_string(),
    );
    Ok(out)
}

/// The traced run's share of this workload: a few rounds with one span
/// per stage of every trial, and `em::reconstruct` on each trial's counts
/// for iteration counts and per-iteration cost.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let mut gen_ms = Vec::new();
    for (i, (kind, _, _)) in DATASETS.iter().enumerate() {
        let spec = DatasetSpec::paper_scale(*kind, mix64(DATASET_SEED ^ i as u64));
        gen_ms.push(crate::layers::median_time(3, || spec.generate()).as_secs_f64() * 1e3);
    }
    let setup = build()?;
    let per_round = setup.configs.len();
    let jobs = per_round * TRACED_ROUNDS;
    let start = Instant::now();
    let trials = batch(&setup, ctx.seed, 0, jobs)?;
    let wall = start.elapsed();
    let mut tracer = Tracer::new();
    let mut out = Outcome {
        attempted: jobs as u64,
        failed: (jobs - trials.len()) as u64,
        ..Outcome::default()
    };
    let (mut randomize, mut aggregate, mut eval, mut busy) = (0.0, 0.0, 0.0, 0.0);
    let mut reports = 0u64;
    let mut iterations = vec![Vec::new(); per_round];
    let mut em_ns: Vec<(usize, f64, f64)> = Vec::new();
    for (j, t) in trials.iter().enumerate() {
        let cfg = &setup.configs[t.config];
        let (a, b) = t.span;
        let root = tracer.span("trial", a, b, None, j as u64);
        let r0 = a + t.randomize;
        tracer.span("client.randomize_batch", a, r0, Some(root), j as u64);
        tracer.span(
            "aggregator.push_slice_pooled",
            r0,
            r0 + t.aggregate,
            Some(root),
            j as u64,
        );
        let f0 = r0 + t.aggregate;
        tracer.span(
            "aggregator.finalize",
            f0,
            f0 + t.finalize,
            Some(root),
            j as u64,
        );
        tracer.span("metrics.eval", f0 + t.finalize, b, Some(root), j as u64);
        let n = setup.values[cfg.dataset].len() as u64;
        tracer.count("reports", n);
        reports += n;
        randomize += t.randomize.as_nanos() as f64;
        aggregate += t.aggregate.as_nanos() as f64;
        eval += t.eval.as_nanos() as f64;
        busy += t.total.as_secs_f64();
        let e0 = Instant::now();
        let em = ldp_sw::reconstruct(cfg.mech.pipeline().operator(), &t.counts, &EmConfig::ems())
            .map_err(|e| e.to_string())?;
        let e1 = Instant::now();
        tracer.span("em.reconstruct", e0, e1, None, j as u64);
        tracer.count("em_iterations", em.iterations as u64);
        if em.histogram.probs() != t.estimate.probs() {
            return Err(format!(
                "{}: em::reconstruct disagrees with finalize",
                cfg.label
            ));
        }
        iterations[t.config].push(em.iterations as f64);
        em_ns.push((cfg.d, (e1 - e0).as_nanos() as f64, em.iterations as f64));
    }
    for (c, cfg) in setup.configs.iter().enumerate() {
        out.metric(
            format!("em.iterations.{}", cfg.label),
            median(&iterations[c]),
            "count",
            iterations[c].len() as u64,
        );
    }
    for (_, _, d) in DATASETS {
        let (ns, its) = em_ns
            .iter()
            .filter(|(dd, _, _)| *dd == d)
            .fold((0.0, 0.0), |(a, b), (_, t, i)| (a + t, b + i));
        out.metric(
            format!("em.ns_per_iteration.d{d}"),
            ns / its,
            "ns",
            its as u64,
        );
    }
    let r = reports as f64;
    out.metric("sw.randomize_ns_per_report", randomize / r, "ns", reports);
    out.metric(
        "aggregator.push_slice_pooled_ns_per_report",
        aggregate / r,
        "ns",
        reports,
    );
    let threads = ldp_pool::configured_threads() as f64;
    out.metric(
        "pool.parallel_efficiency",
        busy / (wall.as_secs_f64() * threads),
        "ratio",
        trials.len() as u64,
    );
    out.metric(
        "metrics.eval_us",
        eval / trials.len() as f64 / 1e3,
        "us",
        trials.len() as u64,
    );
    out.metric("datasets.generate_ms", gen_ms.iter().sum(), "ms", 3);
    let mut dump = String::new();
    tracer.dump("estimate-sw", &mut dump);
    out.trace = dump;
    Ok(out)
}
