//! Hierarchy-based distribution estimation under LDP (paper §4.2–4.3).
//!
//! This crate implements the hierarchical baselines the paper compares
//! against and its HH-ADMM improvement:
//!
//! - [`tree`] — index arithmetic for complete β-ary trees over a bucketized
//!   domain, including the canonical range decomposition;
//! - [`hh`] — the Hierarchical Histogram with population division (each user
//!   reports one ancestor through the lower-variance CFO for that level);
//! - [`consistency`] — Hay-style constrained inference generalized to
//!   per-level variances, whose equal-weight special case is the Euclidean
//!   projection `ΠC` used inside ADMM;
//! - [`haar`] — the discrete Haar transform and the HaarHRR estimator of
//!   Kulkarni et al. (PVLDB '19);
//! - [`admm`] — **HH-ADMM** (Algorithm 2): ADMM post-processing enforcing
//!   non-negativity, per-level normalization and tree consistency;
//! - [`range`] — range queries over (possibly signed) hierarchical
//!   estimates.

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod admm;
pub mod consistency;
pub mod error;
pub mod haar;
pub mod hh;
pub mod mechanism;
pub mod range;
pub mod tree;

pub use admm::{hh_admm, hh_admm_histogram, AdmmConfig, AdmmResult};
pub use consistency::{constrained_inference, project_consistent, RootPolicy};
pub use error::HierarchyError;
pub use haar::{haar_forward, haar_inverse, HaarCoefficients, HaarHrr};
pub use hh::{HhRaw, HierarchicalHistogram};
pub use mechanism::{HaarReport, HaarState, HhReport, HhState};
pub use tree::{TreeShape, TreeValues};

/// Test helper: randomizes `values` on one RNG stream, then aggregates.
#[cfg(test)]
fn run<M: ldp_core::Mechanism<Input = usize>>(
    m: &M,
    values: &[usize],
    rng: &mut ldp_numeric::SplitMix64,
) -> Result<M::Output, ldp_core::CoreError> {
    m.aggregate(&ldp_core::Client::new(m).randomize_batch(values, rng)?)
}
