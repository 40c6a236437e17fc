//! Smoothing kernels for the EMS algorithm (paper §5.5).
//!
//! After each M-step, EMS averages every estimate with its neighbours using
//! binomial coefficients — the paper's S-step is the (1, 2, 1)/4 kernel:
//! `x̂ᵢ ← ½x̂ᵢ + ¼(x̂ᵢ₋₁ + x̂ᵢ₊₁)`. At the domain boundary the available
//! weights are renormalized. Wider binomial kernels are provided for the
//! smoothing-strength ablation.

use crate::error::SwError;

/// A symmetric, normalized smoothing kernel of odd width.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoothingKernel {
    weights: Vec<f64>,
}

impl SmoothingKernel {
    /// The paper's kernel: binomial coefficients (1, 2, 1).
    #[must_use]
    pub fn binomial3() -> Self {
        SmoothingKernel {
            weights: vec![1.0, 2.0, 1.0],
        }
    }

    /// A wider binomial kernel (1, 4, 6, 4, 1) for the ablation benches.
    #[must_use]
    pub fn binomial5() -> Self {
        SmoothingKernel {
            weights: vec![1.0, 4.0, 6.0, 4.0, 1.0],
        }
    }

    /// A custom symmetric kernel. Must have odd length, positive entries.
    pub fn custom(weights: Vec<f64>) -> Result<Self, SwError> {
        if weights.is_empty() || weights.len().is_multiple_of(2) {
            return Err(SwError::InvalidParameter(format!(
                "kernel must have odd positive length, got {}",
                weights.len()
            )));
        }
        if weights.iter().any(|&w| !(w > 0.0) || !w.is_finite()) {
            return Err(SwError::InvalidParameter(
                "kernel weights must be positive and finite".into(),
            ));
        }
        let half = weights.len() / 2;
        for k in 0..half {
            if (weights[k] - weights[weights.len() - 1 - k]).abs() > 1e-12 {
                return Err(SwError::InvalidParameter("kernel must be symmetric".into()));
            }
        }
        Ok(SmoothingKernel { weights })
    }

    /// Half-width (number of neighbours on each side).
    #[must_use]
    pub fn radius(&self) -> usize {
        self.weights.len() / 2
    }

    /// The raw (unnormalized) kernel weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Applies the kernel, renormalizing truncated windows at the
    /// boundaries so mass is preserved per-entry before the EM
    /// renormalization.
    #[must_use]
    pub fn smooth(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.smooth_into(x, &mut out);
        out
    }

    /// In-place variant writing into `out` (must have the same length as
    /// `x`); avoids per-iteration allocation in the EMS loop.
    ///
    /// Where the whole kernel fits, every output is the full weighted sum
    /// over the kernel's total weight; only the `radius` entries at each end
    /// take the renormalized truncated window. Each output is summed in the
    /// same order either way, so the result is the same bit for bit.
    pub fn smooth_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), out.len());
        let n = x.len();
        let width = self.weights.len();
        if n < width {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.smooth_at(x, i);
            }
            return;
        }
        let r = self.radius();
        let wsum = self.weights.iter().fold(0.0, |s, &w| s + w);
        for (o, window) in out[r..n - r].iter_mut().zip(x.windows(width)) {
            let mut acc = 0.0;
            for (&w, &v) in self.weights.iter().zip(window) {
                acc += w * v;
            }
            *o = acc / wsum;
        }
        for i in (0..r).chain(n - r..n) {
            out[i] = self.smooth_at(x, i);
        }
    }

    /// Output `i`: the kernel over the entries of `x` it covers, divided by
    /// the weight of those entries.
    fn smooth_at(&self, x: &[f64], i: usize) -> f64 {
        let r = self.radius() as isize;
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for (k, &w) in self.weights.iter().enumerate() {
            let idx = i as isize + k as isize - r;
            if idx >= 0 && (idx as usize) < x.len() {
                acc += w * x[idx as usize];
                wsum += w;
            }
        }
        acc / wsum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial3_matches_paper_formula_in_interior() {
        let k = SmoothingKernel::binomial3();
        let x = [0.1, 0.4, 0.2, 0.3];
        let y = k.smooth(&x);
        // Interior: ½xᵢ + ¼(xᵢ₋₁ + xᵢ₊₁).
        assert!((y[1] - (0.5 * 0.4 + 0.25 * (0.1 + 0.2))).abs() < 1e-12);
        assert!((y[2] - (0.5 * 0.2 + 0.25 * (0.4 + 0.3))).abs() < 1e-12);
        // Boundary: weights renormalize to (2, 1)/3.
        assert!((y[0] - (2.0 * 0.1 + 0.4) / 3.0).abs() < 1e-12);
        assert!((y[3] - (2.0 * 0.3 + 0.2) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_vectors_are_fixed_points() {
        for k in [SmoothingKernel::binomial3(), SmoothingKernel::binomial5()] {
            let x = vec![0.125; 8];
            let y = k.smooth(&x);
            for &v in &y {
                assert!((v - 0.125).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn smoothing_reduces_total_variation() {
        let k = SmoothingKernel::binomial3();
        let x = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let y = k.smooth(&x);
        let tv = |v: &[f64]| -> f64 { v.windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(tv(&y) < tv(&x));
    }

    #[test]
    fn wider_kernel_smooths_more() {
        let x: Vec<f64> = (0..16).map(|i| if i == 8 { 1.0 } else { 0.0 }).collect();
        let y3 = SmoothingKernel::binomial3().smooth(&x);
        let y5 = SmoothingKernel::binomial5().smooth(&x);
        assert!(y5[8] < y3[8], "peak should flatten more under binomial5");
    }

    #[test]
    fn custom_kernel_validation() {
        assert!(SmoothingKernel::custom(vec![]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0, 3.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, -2.0, 1.0]).is_err());
        assert!(SmoothingKernel::custom(vec![1.0, 2.0, 1.0]).is_ok());
        assert_eq!(SmoothingKernel::custom(vec![1.0]).unwrap().radius(), 0);
    }

    #[test]
    fn interior_fast_path_matches_truncated_windows_bit_for_bit() {
        let kernels = [
            SmoothingKernel::binomial3(),
            SmoothingKernel::binomial5(),
            SmoothingKernel::custom(vec![0.3, 1.7, 2.9, 1.7, 0.3]).unwrap(),
            SmoothingKernel::custom(vec![0.5, 1.1, 2.3, 3.7, 2.3, 1.1, 0.5]).unwrap(),
        ];
        let mut rng = ldp_numeric::SplitMix64::new(7);
        for k in &kernels {
            for n in (1..=9).chain([1024]) {
                let mut x = vec![0.0; n];
                rng.fill_f64(&mut x);
                let fast = k.smooth(&x);
                for (i, &y) in fast.iter().enumerate() {
                    assert_eq!(
                        y.to_bits(),
                        k.smooth_at(&x, i).to_bits(),
                        "{:?} n = {n} i = {i}",
                        k.weights()
                    );
                }
            }
        }
    }

    #[test]
    fn single_bucket_vector_is_unchanged() {
        let k = SmoothingKernel::binomial3();
        assert_eq!(k.smooth(&[1.0]), vec![1.0]);
    }

    #[test]
    fn smoothing_preserves_nonnegativity() {
        let k = SmoothingKernel::binomial5();
        let x = [0.0, 0.9, 0.0, 0.0, 0.1, 0.0];
        assert!(k.smooth(&x).iter().all(|&v| v >= 0.0));
    }
}
