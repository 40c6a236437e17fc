//! Optimized Local Hashing (OLH, Wang et al., USENIX Security 2017).
//!
//! Each user hashes its value into a small domain of size
//! `g = round(eᵉ) + 1` with a per-user random hash function, then applies
//! GRR over the hashed domain. The aggregator counts, for each domain value
//! `v`, how many reports *support* `v` (i.e. `H_j(v) = y_j`) and inverts:
//! `x̂_v = (C(v)/n - 1/g) / (p - 1/g)`. The resulting variance
//! `4eᵉ / ((eᵉ - 1)² n)` does not grow with the domain size, so OLH wins on
//! large domains (paper §2.1).
//!
//! The per-user hash family is seeded SplitMix64 finalizer mixing — pairwise
//! independence across users is what the estimator needs, and each user
//! drawing an independent 64-bit seed provides it.

use crate::error::{check_value, CfoError};
use ldp_core::{Domain, Epsilon};
use ldp_numeric::kernels::{self, ModReducer};
use ldp_numeric::rng::mix64;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single OLH report: the user's hash seed and the GRR-perturbed hashed
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OlhReport {
    /// Seed identifying the user's hash function.
    pub seed: u64,
    /// The perturbed hash value in `{0, …, g-1}`.
    pub y: u32,
}

/// The OLH frequency oracle.
#[derive(Clone)]
pub struct Olh {
    d: usize,
    eps: f64,
    g: usize,
    /// GRR keep-probability over the hashed domain.
    p: f64,
    /// `% g` for the support walk (a mask when `g` is a power of two).
    reducer: ModReducer,
    /// `mix64(v)` for every domain value `v`: the report-independent inner
    /// hash of [`olh_hash`], built once per oracle and shared by clones.
    value_mix: Arc<[u64]>,
}

impl fmt::Debug for Olh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Olh")
            .field("d", &self.d)
            .field("eps", &self.eps)
            .field("g", &self.g)
            .field("p", &self.p)
            .finish_non_exhaustive()
    }
}

/// Evaluates the OLH hash family: maps `value` into `{0, …, g-1}` under
/// hash function `seed`.
#[inline]
#[must_use]
pub fn olh_hash(seed: u64, value: usize, g: usize) -> u32 {
    (mix64(seed ^ mix64(value as u64)) % g as u64) as u32
}

impl Olh {
    /// Creates an OLH oracle with the variance-optimal hash range
    /// `g = round(eᵉ) + 1`.
    pub fn new(d: usize, eps: f64) -> Result<Self, CfoError> {
        Domain::new(d)?;
        Epsilon::new(eps)?;
        let g = ((eps.exp()).round() as usize + 1).max(2);
        Self::with_hash_range(d, eps, g)
    }

    /// Creates an OLH oracle with an explicit hash range
    /// `2 <= g <= u32::MAX` (exposed for the ablation benches); the upper
    /// bound is the range of a report's hashed value [`OlhReport::y`].
    pub fn with_hash_range(d: usize, eps: f64, g: usize) -> Result<Self, CfoError> {
        Domain::new(d)?;
        Epsilon::new(eps)?;
        let g32 = match u32::try_from(g) {
            Ok(g32) if g32 >= 2 => g32,
            _ => {
                return Err(CfoError::InvalidParameter(format!(
                    "hash range g must be in 2..={}, got {g}",
                    u32::MAX
                )))
            }
        };
        let e = eps.exp();
        let p = e / (e + g as f64 - 1.0);
        Ok(Olh {
            d,
            eps,
            g,
            p,
            reducer: ModReducer::new(g32),
            value_mix: (0..d as u64).map(mix64).collect(),
        })
    }

    /// The hash range g.
    #[must_use]
    pub fn hash_range(&self) -> usize {
        self.g
    }

    /// The closed-form per-estimate variance for `n` users (paper §2.1).
    #[must_use]
    pub fn theoretical_variance(eps: f64, n: usize) -> f64 {
        let e = eps.exp();
        4.0 * e / ((e - 1.0) * (e - 1.0) * n as f64)
    }

    /// Adds every report's support pattern to per-value support counts —
    /// the O(d) inversion step shared by both absorb paths, one
    /// [`kernels::hash_support`] walk over the cached `mix64(v)` table. It equals an [`olh_hash`] reference loop
    /// bit for bit.
    pub(crate) fn add_support(&self, support: &mut [u64], reports: &[OlhReport]) {
        let pairs = reports.iter().map(|r| (r.seed, r.y));
        kernels::hash_support(support, &self.value_mix, pairs, self.reducer);
    }

    /// Debiases support counts into frequency estimates.
    pub(crate) fn estimate_from_support(&self, support: &[u64], n: u64) -> Vec<f64> {
        if n == 0 {
            return vec![0.0; self.d];
        }
        let nf = n as f64;
        let inv_g = 1.0 / self.g as f64;
        support
            .iter()
            .map(|&c| (c as f64 / nf - inv_g) / (self.p - inv_g))
            .collect()
    }

    /// Size `d` of the categorical input domain.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.d
    }

    /// The privacy budget ε the randomizer satisfies.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Client side: randomizes one private value in `{0, …, d-1}`.
    pub fn randomize<R: Rng + ?Sized>(
        &self,
        value: usize,
        rng: &mut R,
    ) -> Result<OlhReport, CfoError> {
        check_value(value, self.d)?;
        let seed: u64 = rng.gen();
        let h = olh_hash(seed, value, self.g);
        let y = if rng.gen::<f64>() < self.p {
            h
        } else {
            let mut other = rng.gen_range(0..self.g as u32 - 1);
            if other >= h {
                other += 1;
            }
            other
        };
        Ok(OlhReport { seed, y })
    }

    /// Approximate variance of one frequency estimate given `n` reports.
    #[must_use]
    pub fn estimate_variance(&self, n: usize) -> f64 {
        Self::theoretical_variance(self.eps, n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::Mechanism;
    use ldp_numeric::SplitMix64;

    #[test]
    fn construction_validates() {
        assert!(Olh::new(1, 1.0).is_err());
        assert!(Olh::new(16, -1.0).is_err());
        assert!(Olh::with_hash_range(16, 1.0, 1).is_err());
        assert!(Olh::with_hash_range(16, 1.0, u32::MAX as usize).is_ok());
        let o = Olh::new(16, 1.0).unwrap();
        // g = round(e) + 1 = 4.
        assert_eq!(o.hash_range(), 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hash_range_beyond_u32_is_rejected() {
        // A report's hashed value is a u32; larger ranges used to truncate
        // in `randomize` and underflow at g = 2^32.
        for g in [u32::MAX as usize + 1, u32::MAX as usize + 2, usize::MAX] {
            match Olh::with_hash_range(16, 1.0, g) {
                Err(CfoError::InvalidParameter(msg)) => assert!(msg.contains("hash range")),
                other => panic!("g = {g}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for seed in 0..100u64 {
            for v in 0..50usize {
                let h = olh_hash(seed, v, 7);
                assert!(h < 7);
                assert_eq!(h, olh_hash(seed, v, 7));
            }
        }
    }

    #[test]
    fn hash_family_is_roughly_uniform() {
        let g = 4;
        let mut counts = vec![0u64; g];
        for seed in 0..40_000u64 {
            counts[olh_hash(seed, 13, g) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn aggregate_is_unbiased_on_large_domain() {
        let d = 64;
        let o = Olh::new(d, 1.0).unwrap();
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        // 50% value 3, 30% value 40, 20% value 63.
        let values: Vec<usize> = (0..n)
            .map(|i| match i % 10 {
                0..=4 => 3,
                5..=7 => 40,
                _ => 63,
            })
            .collect();
        let est = crate::run(&o, &values, &mut rng);
        assert!((est[3] - 0.5).abs() < 0.03, "est[3]={}", est[3]);
        assert!((est[40] - 0.3).abs() < 0.03, "est[40]={}", est[40]);
        assert!((est[63] - 0.2).abs() < 0.03, "est[63]={}", est[63]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let d = 32;
        let eps = 1.0;
        let n = 2_000;
        let trials = 200;
        let o = Olh::new(d, eps).unwrap();
        let values = vec![1usize; n];
        let mut errs = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = SplitMix64::new(2000 + t as u64);
            let est = crate::run(&o, &values, &mut rng);
            errs.push(est[0]);
        }
        let emp_var = ldp_numeric::stats::variance(&errs);
        let theory = Olh::theoretical_variance(eps, n);
        let ratio = emp_var / theory;
        assert!(
            (0.6..1.4).contains(&ratio),
            "empirical {emp_var} vs theory {theory}"
        );
    }

    #[test]
    fn variance_beats_grr_on_large_domains() {
        let eps = 1.0;
        let n = 1000;
        let olh_var = Olh::theoretical_variance(eps, n);
        let grr_var = crate::grr::Grr::theoretical_variance(256, eps, n);
        assert!(olh_var < grr_var);
    }

    #[test]
    fn randomize_rejects_out_of_domain() {
        let o = Olh::new(8, 1.0).unwrap();
        let mut rng = SplitMix64::new(1);
        assert!(o.randomize(8, &mut rng).is_err());
    }

    #[test]
    fn aggregate_empty_reports_gives_zeros() {
        let o = Olh::new(8, 1.0).unwrap();
        assert_eq!(Mechanism::aggregate(&o, &[]).unwrap(), vec![0.0; 8]);
    }
}
