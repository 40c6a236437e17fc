//! Mean and variance estimation mechanisms under LDP (paper §2.2, §6.3).
//!
//! These are the specialized baselines the paper compares SW+EMS against on
//! the mean/variance metrics:
//!
//! - [`sr::Sr`] — Stochastic Rounding (Duchi et al.): every user reports an
//!   extreme value ±1 with value-dependent probabilities;
//! - [`pm::Pm`] — the Piecewise Mechanism (Wang et al.): reports land in a
//!   value-centred high-probability interval of a continuous output domain;
//! - [`variance::MeanVariance`] — the paper's two-phase extension that
//!   spends half the population on the mean and half on the squared
//!   deviations;
//! - [`hybrid::Hybrid`] — Wang et al.'s PM/SR mixture (extension beyond the
//!   paper's separate evaluation of the two).

#![forbid(unsafe_code)]
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, which is exactly what the validators need to reject.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod error;
pub mod hybrid;
pub mod mechanism;
pub mod pm;
pub mod sr;
pub mod variance;

pub use error::MeanError;
pub use hybrid::{Hybrid, HybridReport};
pub use mechanism::MeanState;
pub use pm::Pm;
pub use sr::{from_signed, to_signed, Sr};
pub use variance::{MeanMechanism, MeanVariance, MeanVarianceEstimate};

/// Test helper: randomizes `values` on one RNG stream, then aggregates.
#[cfg(test)]
fn mean_of<M: ldp_core::Mechanism<Input = f64, Output = f64>>(
    m: &M,
    values: &[f64],
    rng: &mut ldp_numeric::SplitMix64,
) -> f64 {
    let reports = ldp_core::Client::new(m)
        .randomize_batch(values, rng)
        .unwrap();
    m.aggregate(&reports).unwrap()
}
