//! Expectation Maximization over aggregated report counts
//! (paper §5.5, Algorithm 1, Appendix A), with the optional smoothing step
//! that turns EM into EMS.
//!
//! Given the column-stochastic transition matrix `M` and the histogram of
//! perturbed reports `n_j`, one application of the EM map `F` performs
//!
//! ```text
//! E-step:  Pᵢ = x̂ᵢ · Σⱼ nⱼ · Mⱼᵢ / (M·x̂)ⱼ
//! M-step:  x̂ᵢ = Pᵢ / Σ Pᵢ
//! S-step:  (EMS only) binomial smoothing of x̂, renormalized
//! ```
//!
//! The loop stops when one step of `F` improves the log-likelihood
//! `L = Σⱼ nⱼ ln (M·x̂)ⱼ` by less than a threshold (paper §6.1 uses
//! `τ = 10⁻³·eᵉ` for EM and `τ = 10⁻³` for EMS), or at an iteration cap;
//! the theorem 5.6 concavity guarantees convergence to the MLE for plain
//! EM.
//!
//! **Plain EM** iterates `F` directly. Its early stop is its only
//! regulariser: extrapolated with the same SQUAREM scheme it runs closer
//! to the (noisy) MLE, which raised the mean Wasserstein error over the
//! paper-scale Beta and Income datasets by 6% (0.00432 → 0.00459, 8
//! seeds), so plain EM is never accelerated.
//!
//! **EMS** is accelerated with SQUAREM (Varadhan & Roland 2008, "Simple and
//! globally convergent methods for accelerating the convergence of any EM
//! algorithm", Scand. J. Statist.). Each cycle from `θ₀`:
//!
//! 1. takes the plain step `θ₁ = F(θ₀)` and stops, returning `θ₁`, if it
//!    improved `L` by less than `τ` — the paper's stopping rule, unchanged;
//! 2. takes `θ₂ = F(θ₁)` and extrapolates
//!    `θ′ = θ₀ − 2αr + α²v` with `r = θ₁ − θ₀`, `v = θ₂ − 2θ₁ + θ₀` and
//!    `α = min(r·v / v·v, −1)`, halving `α + 1` until `θ′` is non-negative
//!    (`α = −1` gives `θ′ = θ₂`);
//! 3. renormalizes `θ′` and takes the stabilising step `θ₃ = F(θ′)`, which
//!    becomes the next `θ₀` unless its log-likelihood is below `θ₂`'s, in
//!    which case `θ₂` does.
//!
//! The step length is Varadhan & Roland's first scheme, the shortest of
//! their three. The longer `−‖r‖/‖v‖` stopped the same test further from
//! the unaccelerated loop's estimate: on Income at `ε = 1` it raised the
//! mean Wasserstein error 6.5% above the unaccelerated loop's, where this
//! one is within 1.1% on every paper-scale configuration.
//!
//! At the same `τ` this takes 6–16× fewer applications of `F` than the
//! plain loop on the paper's datasets (Income, `d = 1024`, `ε = 1`, mean
//! of 8 seeds: 1,875 → 145), and the mean Wasserstein error over Beta and
//! Income at `ε ∈ {0.5, 1, 2.5}` moved 0.00403 → 0.00398.
//! [`EmResult::iterations`] counts applications of `F` either way, and
//! [`EmConfig::max_iterations`] caps the same unit.
//!
//! The transition matrix is only ever *applied*, so [`reconstruct`] is
//! generic over [`LinearOperator`]: pass the dense
//! [`Matrix`](ldp_numeric::Matrix) or the `O(d)`
//! [`crate::operator::BandedBaselineOperator`] interchangeably. Each
//! application of `F` costs one transposed and one forward application:
//! the `M·x̂` computed for the log-likelihood of an iterate is exactly the
//! E-step conditional of the next step, and `M·θ′` is the same
//! extrapolation of the three iterates' products, since `M` is linear.

use crate::error::SwError;
use crate::smoothing::SmoothingKernel;
use ldp_numeric::{Histogram, LinearOperator};

/// Configuration of the EM/EMS loop.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Stop once one plain step improves the log-likelihood by less than
    /// this (in absolute value).
    pub ll_threshold: f64,
    /// Hard cap on iterations, counted as applications of the EM map (one
    /// forward plus one transposed operator application each), for EMS's
    /// extrapolation cycles as for plain EM.
    pub max_iterations: usize,
    /// Run at least this many iterations before testing convergence.
    pub min_iterations: usize,
    /// Optional S-step kernel; `Some` makes this EMS.
    pub smoothing: Option<SmoothingKernel>,
}

impl EmConfig {
    /// The paper's plain-EM configuration: `τ = 10⁻³·eᵉ`, no smoothing.
    #[must_use]
    pub fn em(eps: f64) -> Self {
        EmConfig {
            ll_threshold: 1e-3 * eps.exp(),
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: None,
        }
    }

    /// The paper's EMS configuration: `τ = 10⁻³`, binomial (1,2,1) S-step.
    ///
    /// [`reconstruct`] runs it SQUAREM-accelerated (see the module docs)
    /// with the paper's stopping rule at the same `τ`.
    #[must_use]
    pub fn ems() -> Self {
        EmConfig {
            ll_threshold: 1e-3,
            max_iterations: 10_000,
            min_iterations: 2,
            smoothing: Some(SmoothingKernel::binomial3()),
        }
    }
}

/// Outcome of a reconstruction run.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// The reconstructed input distribution (valid histogram).
    pub histogram: Histogram,
    /// Applications of the EM map executed, each one forward plus one
    /// transposed operator application; for EMS this includes the
    /// stabilising steps of rejected extrapolations.
    pub iterations: usize,
    /// Final log-likelihood `Σⱼ nⱼ ln (M·x̂)ⱼ`.
    pub log_likelihood: f64,
    /// Whether the log-likelihood test triggered (vs the iteration cap).
    pub converged: bool,
}

/// Runs EM (or EMS, when `config.smoothing` is set) on aggregated counts.
/// EMS runs SQUAREM-accelerated, plain EM unaccelerated (see the module
/// docs).
///
/// `counts[j]` is the number of reports landing in output bucket `j`; it
/// must have the operator's row count. Fractional counts are permitted (the
/// experiment harness sometimes feeds normalized histograms).
///
/// `m` is any [`LinearOperator`] — the dense transition
/// [`Matrix`](ldp_numeric::Matrix) and the structured
/// [`BandedBaselineOperator`](crate::operator::BandedBaselineOperator)
/// produce the same reconstruction, the latter in `O(d)` per iteration.
pub fn reconstruct<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> Result<EmResult, SwError> {
    validate(m, counts, config)?;
    match &config.smoothing {
        None => iterate(m, counts, config),
        Some(kernel) => squarem(m, counts, config, kernel),
    }
}

fn validate<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> Result<(), SwError> {
    let d_tilde = m.rows();
    if counts.len() != d_tilde {
        return Err(SwError::Reconstruction(format!(
            "got {} count buckets, transition matrix expects {d_tilde}",
            counts.len()
        )));
    }
    if counts.iter().any(|&c| c < 0.0 || !c.is_finite()) {
        return Err(SwError::Reconstruction(
            "counts must be finite and non-negative".into(),
        ));
    }
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return Err(SwError::Reconstruction(
            "need at least one report to reconstruct".into(),
        ));
    }
    if config.max_iterations == 0 {
        return Err(SwError::InvalidParameter(
            "max_iterations must be positive".into(),
        ));
    }
    if !(config.ll_threshold >= 0.0) {
        return Err(SwError::InvalidParameter(
            "ll_threshold must be non-negative".into(),
        ));
    }
    Ok(())
}

/// The EM (or EMS) map `F` with its scratch buffers.
struct EmMap<'a, M: ?Sized> {
    m: &'a M,
    counts: &'a [f64],
    smoothing: Option<&'a SmoothingKernel>,
    ratio: Vec<f64>,
    tmp: Vec<f64>,
    smoothed: Vec<f64>,
}

impl<'a, M: LinearOperator + ?Sized> EmMap<'a, M> {
    fn new(m: &'a M, counts: &'a [f64], smoothing: Option<&'a SmoothingKernel>) -> Self {
        EmMap {
            m,
            counts,
            smoothing,
            ratio: vec![0.0; m.rows()],
            tmp: vec![0.0; m.cols()],
            smoothed: vec![0.0; m.cols()],
        }
    }

    /// `M·θ` into `cond`.
    fn forward(&self, theta: &[f64], cond: &mut [f64]) -> Result<(), SwError> {
        self.m
            .matvec_into(theta, cond)
            .map_err(|e| SwError::Reconstruction(e.to_string()))
    }

    /// `Σⱼ nⱼ ln condⱼ`, `−∞` if a bucket with reports has no mass.
    fn log_likelihood(&self, cond: &[f64]) -> f64 {
        let mut ll = 0.0;
        for (&n, &c) in self.counts.iter().zip(cond) {
            if n > 0.0 {
                if c <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                ll += n * c.ln();
            }
        }
        ll
    }

    /// One application of `F`: given `cond = M·θ`, writes `F(θ)` into
    /// `out` and `M·F(θ)` into `out_cond`, and returns `L(F(θ))`.
    fn step(
        &mut self,
        theta: &[f64],
        cond: &[f64],
        out: &mut [f64],
        out_cond: &mut [f64],
    ) -> Result<f64, SwError> {
        // E-step: ratio_j = n_j / (M·θ)_j, tmp = Mᵀ·ratio.
        for ((r, &n), &c) in self.ratio.iter_mut().zip(self.counts).zip(cond) {
            *r = if c > 0.0 { n / c } else { 0.0 };
        }
        self.m
            .matvec_transpose_into(&self.ratio, &mut self.tmp)
            .map_err(|e| SwError::Reconstruction(e.to_string()))?;

        // M-step: θᵢ ∝ θᵢ·tmpᵢ.
        let mut sum = 0.0;
        for ((o, &t), &g) in out.iter_mut().zip(theta).zip(&self.tmp) {
            *o = t * g;
            sum += *o;
        }
        if sum <= 0.0 {
            return Err(SwError::Reconstruction(
                "EM iterate collapsed to zero mass".into(),
            ));
        }
        for o in out.iter_mut() {
            *o /= sum;
        }

        // S-step.
        if let Some(kernel) = self.smoothing {
            kernel.smooth_into(out, &mut self.smoothed);
            out.copy_from_slice(&self.smoothed);
            let s: f64 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= s;
            }
        }

        self.forward(out, out_cond)?;
        Ok(self.log_likelihood(out_cond))
    }
}

fn finish(
    theta: Vec<f64>,
    iterations: usize,
    log_likelihood: f64,
    converged: bool,
) -> Result<EmResult, SwError> {
    let histogram =
        Histogram::from_probs(theta).map_err(|e| SwError::Reconstruction(e.to_string()))?;
    Ok(EmResult {
        histogram,
        iterations,
        log_likelihood,
        converged,
    })
}

/// The unaccelerated loop: iterate `F` until one step improves the
/// log-likelihood by less than the threshold. Plain EM always runs here;
/// for EMS it is the oracle the accelerated loop is tested against.
fn iterate<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
) -> Result<EmResult, SwError> {
    let d = m.cols();
    let mut map = EmMap::new(m, counts, config.smoothing.as_ref());
    let mut theta = vec![1.0 / d as f64; d];
    let mut next = vec![0.0; d];
    let mut cond = vec![0.0; m.rows()];
    let mut next_cond = vec![0.0; m.rows()];

    let mut old_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut converged = false;
    let mut log_likelihood = f64::NEG_INFINITY;

    // Prime `cond = M·θ` once; inside the loop the log-likelihood
    // application of iteration k doubles as the E-step conditional of
    // iteration k + 1, halving the forward applications.
    map.forward(&theta, &mut cond)?;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        log_likelihood = map.step(&theta, &cond, &mut next, &mut next_cond)?;
        std::mem::swap(&mut theta, &mut next);
        std::mem::swap(&mut cond, &mut next_cond);

        if iterations >= config.min_iterations.max(1)
            && (log_likelihood - old_ll).abs() < config.ll_threshold
        {
            converged = true;
            break;
        }
        old_ll = log_likelihood;
    }
    finish(theta, iterations, log_likelihood, converged)
}

/// EMS accelerated with SQUAREM (see the module docs).
fn squarem<M: LinearOperator + ?Sized>(
    m: &M,
    counts: &[f64],
    config: &EmConfig,
    kernel: &SmoothingKernel,
) -> Result<EmResult, SwError> {
    let d = m.cols();
    let d_tilde = m.rows();
    let mut map = EmMap::new(m, counts, Some(kernel));
    // Iterates θ₀, θ₁, θ₂, the extrapolation θ′, and their products with M.
    let (mut t0, mut t1, mut t2, mut tx) = (
        vec![1.0 / d as f64; d],
        vec![0.0; d],
        vec![0.0; d],
        vec![0.0; d],
    );
    let (mut c0, mut c1, mut c2, mut cx) = (
        vec![0.0; d_tilde],
        vec![0.0; d_tilde],
        vec![0.0; d_tilde],
        vec![0.0; d_tilde],
    );
    map.forward(&t0, &mut c0)?;
    let mut ll0 = map.log_likelihood(&c0);
    let min_iterations = config.min_iterations.max(1);
    let cap = config.max_iterations;
    let mut iterations = 0;

    loop {
        // The paper's stopping rule on one plain step from θ₀.
        let ll1 = map.step(&t0, &c0, &mut t1, &mut c1)?;
        iterations += 1;
        if iterations >= min_iterations && (ll1 - ll0).abs() < config.ll_threshold {
            return finish(t1, iterations, ll1, true);
        }
        if iterations >= cap {
            return finish(t1, iterations, ll1, false);
        }
        let ll2 = map.step(&t1, &c1, &mut t2, &mut c2)?;
        iterations += 1;
        if iterations >= cap {
            return finish(t2, iterations, ll2, false);
        }

        // Step length α = r·v / v·v, at most −1 (α = −1 is θ₂ itself).
        let (mut rv, mut vv) = (0.0, 0.0);
        for ((&a, &b), &c) in t0.iter().zip(&t1).zip(&t2) {
            let r = b - a;
            let v = c - 2.0 * b + a;
            rv += r * v;
            vv += v * v;
        }
        let mut alpha = rv / vv;
        if !(alpha.is_finite() && alpha < -1.0) {
            alpha = -1.0;
        }
        // Backtrack toward −1 until θ′ is a non-negative vector; within 1%
        // of −1 the extrapolation is θ₂ up to rounding, so take θ₂.
        while alpha < -1.0 {
            if extrapolate(alpha, &t0, &t1, &t2, &mut tx) {
                break;
            }
            alpha = (alpha - 1.0) / 2.0;
            if alpha > -1.01 {
                alpha = -1.0;
            }
        }
        let (t_ext, c_ext) = if alpha < -1.0 {
            // M·θ′ by linearity from the three products F computed.
            extrapolate(alpha, &c0, &c1, &c2, &mut cx);
            let s: f64 = tx.iter().sum();
            for t in &mut tx {
                *t /= s;
            }
            for c in &mut cx {
                *c /= s;
            }
            (&tx, &cx)
        } else {
            (&t2, &c2)
        };

        // Stabilising step; never fall below the plain θ₂.
        let ll3 = map.step(t_ext, c_ext, &mut t1, &mut c1)?;
        iterations += 1;
        if ll3 >= ll2 {
            std::mem::swap(&mut t0, &mut t1);
            std::mem::swap(&mut c0, &mut c1);
            ll0 = ll3;
        } else {
            std::mem::swap(&mut t0, &mut t2);
            std::mem::swap(&mut c0, &mut c2);
            ll0 = ll2;
        }
        if iterations >= cap {
            return finish(t0, iterations, ll0, false);
        }
    }
}

/// `out = x₀ − 2α(x₁ − x₀) + α²(x₂ − 2x₁ + x₀)`; returns whether every
/// entry is non-negative.
fn extrapolate(alpha: f64, x0: &[f64], x1: &[f64], x2: &[f64], out: &mut [f64]) -> bool {
    let mut nonneg = true;
    for (((o, &a), &b), &c) in out.iter_mut().zip(x0).zip(x1).zip(x2) {
        *o = a - 2.0 * alpha * (b - a) + alpha * alpha * (c - 2.0 * b + a);
        nonneg &= *o >= 0.0;
    }
    nonneg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::BandedBaselineOperator;
    use crate::transition::transition_matrix;
    use crate::wave::Wave;

    /// Exact expected counts for a known input distribution — EM must
    /// recover the input from noiseless (expected) observations.
    fn expected_counts<M: LinearOperator>(m: &M, truth: &[f64], n: f64) -> Vec<f64> {
        m.matvec(truth).unwrap().iter().map(|p| p * n).collect()
    }

    #[test]
    fn em_recovers_truth_from_expected_counts() {
        let wave = Wave::square(0.25, 2.0).unwrap();
        let d = 16;
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        truth[3] = 0.5;
        truth[4] = 0.3;
        truth[10] = 0.2;
        let counts = expected_counts(&m, &truth, 1e6);
        let config = EmConfig {
            ll_threshold: 1e-10,
            max_iterations: 50_000,
            min_iterations: 2,
            smoothing: None,
        };
        let result = reconstruct(&m, &counts, &config).unwrap();
        for (i, (&got, &want)) in result.histogram.probs().iter().zip(&truth).enumerate() {
            assert!((got - want).abs() < 0.01, "bucket {i}: {got} vs {want}");
        }
    }

    #[test]
    fn em_increases_log_likelihood_monotonically() {
        let wave = Wave::square(0.3, 1.0).unwrap();
        let d = 8;
        let m = transition_matrix(&wave, d, d).unwrap();
        let counts = vec![10.0, 40.0, 80.0, 50.0, 30.0, 20.0, 10.0, 5.0];
        // Track the likelihood trajectory by running with increasing caps.
        let mut lls = Vec::new();
        for cap in [1, 2, 4, 8, 16, 64] {
            let config = EmConfig {
                ll_threshold: 0.0,
                max_iterations: cap,
                min_iterations: cap + 1, // disable early stop
                smoothing: None,
            };
            let r = reconstruct(&m, &counts, &config).unwrap();
            lls.push(r.log_likelihood);
        }
        for w in lls.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "log-likelihood decreased: {lls:?}");
        }
    }

    #[test]
    fn ems_converges_and_produces_valid_histogram() {
        let wave = Wave::square(0.256, 1.0).unwrap();
        let d = 32;
        let m = transition_matrix(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        for (i, t) in truth.iter_mut().enumerate() {
            *t = (i as f64 / d as f64).powi(2);
        }
        let s: f64 = truth.iter().sum();
        for t in &mut truth {
            *t /= s;
        }
        let counts = expected_counts(&m, &truth, 1e5);
        let result = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        assert!(result.converged, "EMS should converge");
        let probs = result.histogram.probs();
        assert!(probs.iter().all(|&p| p >= 0.0));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Reconstruction tracks the increasing shape.
        assert!(probs[d - 1] > probs[0]);
    }

    /// Beta(5, 2) bucket masses (the paper's synthetic dataset shape).
    fn beta_truth(d: usize) -> Vec<f64> {
        let w: Vec<f64> = (0..d)
            .map(|i| {
                let x = (i as f64 + 0.5) / d as f64;
                x.powi(4) * (1.0 - x)
            })
            .collect();
        let s: f64 = w.iter().sum();
        w.iter().map(|v| v / s).collect()
    }

    /// Income-shaped bucket masses: the dataset generator's log-normal
    /// body (μ = 10.7, σ = 0.85, in dollars below 2¹⁹), with 45%, 25% and
    /// 15% of each bucket's mass moved to the nearest multiple of $1,000,
    /// $5,000 and $10,000, as reported incomes are rounded.
    fn income_truth(d: usize) -> Vec<f64> {
        const CAP: f64 = 524_288.0;
        let (mu, sigma) = (10.7_f64, 0.85_f64);
        let width = CAP / d as f64;
        let bucket = |dollars: f64| ((dollars / width) as usize).min(d - 1);
        let mut w = vec![0.0; d];
        for i in 0..d {
            let x = (i as f64 + 0.5) * width;
            let z = (x.ln() - mu) / sigma;
            let mass = (-0.5 * z * z).exp() / x;
            w[i] += 0.15 * mass;
            for (share, unit) in [(0.45, 1_000.0), (0.25, 5_000.0), (0.15, 10_000.0)] {
                w[bucket((x / unit).round() * unit)] += share * mass;
            }
        }
        let s: f64 = w.iter().sum();
        w.iter().map(|v| v / s).collect()
    }

    /// `n` reports drawn from the output distribution `M·truth`, bucketed.
    fn noisy_counts<M: LinearOperator>(m: &M, truth: &[f64], n: usize, seed: u64) -> Vec<f64> {
        let mut cdf = m.matvec(truth).unwrap();
        for j in 1..cdf.len() {
            cdf[j] += cdf[j - 1];
        }
        let total = cdf[cdf.len() - 1];
        let mut u = vec![0.0; n];
        ldp_numeric::SplitMix64::new(seed).fill_f64(&mut u);
        let mut counts = vec![0.0; cdf.len()];
        for x in u {
            let j = cdf.partition_point(|&c| c <= x * total);
            counts[j.min(cdf.len() - 1)] += 1.0;
        }
        counts
    }

    /// Wasserstein-1 distance between two histograms over `[0, 1]`.
    fn w1(a: &[f64], b: &[f64]) -> f64 {
        let (mut ca, mut cb, mut dist) = (0.0, 0.0, 0.0);
        for (x, y) in a.iter().zip(b) {
            ca += x;
            cb += y;
            dist += (ca - cb).abs();
        }
        dist / a.len() as f64
    }

    #[test]
    fn accelerated_ems_matches_the_unaccelerated_loop() {
        const SEEDS: u64 = 8;
        let cases = [
            ("Beta", beta_truth(256), 100_000),
            ("Beta", beta_truth(1024), 1_000_000),
            ("Income", income_truth(1024), 2_308_374),
        ];
        for (name, truth, n) in cases {
            let d = truth.len();
            for eps in [0.5, 1.0, 2.5] {
                let op = crate::pipeline::SwPipeline::new(eps, d).unwrap();
                let op = op.operator();
                let expected = expected_counts(op, &truth, n as f64);
                let mut runs = vec![expected];
                runs.extend((0..SEEDS).map(|s| noisy_counts(op, &truth, n, s)));
                let (mut w1_fast, mut w1_oracle) = (0.0, 0.0);
                for (k, counts) in runs.iter().enumerate() {
                    let fast = reconstruct(op, counts, &EmConfig::ems()).unwrap();
                    let oracle = iterate(op, counts, &EmConfig::ems()).unwrap();
                    assert!(
                        fast.converged && oracle.converged,
                        "{name} d = {d}, eps = {eps}"
                    );
                    let (f, o) = (fast.histogram.probs(), oracle.histogram.probs());
                    let gap = w1(f, o);
                    assert!(
                        gap < 2e-3,
                        "{name} d = {d}, eps = {eps}, run {k}: W1 gap {gap}"
                    );
                    if d == 1024 {
                        assert!(
                            3 * fast.iterations <= oracle.iterations,
                            "{name} d = {d}, eps = {eps}, run {k}: {} vs {} map evaluations",
                            fast.iterations,
                            oracle.iterations
                        );
                    }
                    if k > 0 {
                        w1_fast += w1(f, &truth);
                        w1_oracle += w1(o, &truth);
                    }
                }
                assert!(
                    w1_fast <= 1.05 * w1_oracle,
                    "{name} d = {d}, eps = {eps}: mean W1 {} vs oracle {}",
                    w1_fast / SEEDS as f64,
                    w1_oracle / SEEDS as f64
                );
            }
        }
    }

    #[test]
    fn em_threshold_scaling_follows_paper() {
        let c = EmConfig::em(2.0);
        assert!((c.ll_threshold - 1e-3 * 2f64.exp()).abs() < 1e-12);
        assert!(c.smoothing.is_none());
        let c = EmConfig::ems();
        assert!((c.ll_threshold - 1e-3).abs() < 1e-15);
        assert!(c.smoothing.is_some());
    }

    #[test]
    fn reconstruct_validates_inputs() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let ok = vec![1.0; 8];
        assert!(reconstruct(&m, &ok[..7], &EmConfig::ems()).is_err());
        assert!(reconstruct(&m, &[-1.0; 8], &EmConfig::ems()).is_err());
        assert!(reconstruct(&m, &[0.0; 8], &EmConfig::ems()).is_err());
        let bad = EmConfig {
            max_iterations: 0,
            ..EmConfig::ems()
        };
        assert!(reconstruct(&m, &ok, &bad).is_err());
        let bad = EmConfig {
            ll_threshold: f64::NAN,
            ..EmConfig::ems()
        };
        assert!(reconstruct(&m, &ok, &bad).is_err());
    }

    #[test]
    fn fractional_counts_are_accepted() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let counts = vec![0.125; 8];
        let r = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        assert_eq!(r.histogram.len(), 8);
    }

    #[test]
    fn structured_operator_reconstructs_identically_to_dense() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let d = 32;
        let dense = transition_matrix(&wave, d, d).unwrap();
        let op = BandedBaselineOperator::from_wave(&wave, d, d).unwrap();
        let mut truth = vec![0.0; d];
        truth[5] = 0.6;
        truth[20] = 0.4;
        let counts = expected_counts(&dense, &truth, 5e4);
        for config in [EmConfig::em(1.0), EmConfig::ems()] {
            let a = reconstruct(&dense, &counts, &config).unwrap();
            let b = reconstruct(&op, &counts, &config).unwrap();
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.histogram.probs().iter().zip(b.histogram.probs()) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn reconstruct_accepts_dyn_operators() {
        let wave = Wave::square(0.25, 1.0).unwrap();
        let m = transition_matrix(&wave, 8, 8).unwrap();
        let dynamic: &dyn ldp_numeric::LinearOperator = &m;
        let r = reconstruct(dynamic, &[10.0; 8], &EmConfig::ems()).unwrap();
        assert_eq!(r.histogram.len(), 8);
    }

    #[test]
    fn ems_is_smoother_than_em_on_noisy_counts() {
        // Feed deliberately jagged counts; the EMS output must have lower
        // total variation than the EM output.
        let wave = Wave::square(0.256, 1.0).unwrap();
        let d = 32;
        let m = transition_matrix(&wave, d, d).unwrap();
        let counts: Vec<f64> = (0..d)
            .map(|j| if j % 2 == 0 { 500.0 } else { 100.0 })
            .collect();
        let em = reconstruct(&m, &counts, &EmConfig::em(1.0)).unwrap();
        let ems = reconstruct(&m, &counts, &EmConfig::ems()).unwrap();
        let tv = |h: &Histogram| -> f64 { h.probs().windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(
            tv(&ems.histogram) < tv(&em.histogram),
            "EMS TV {} vs EM TV {}",
            tv(&ems.histogram),
            tv(&em.histogram)
        );
    }
}
