//! Deterministic, splittable random number generation.
//!
//! Experiments in this workspace must be exactly reproducible from a single
//! seed even when trials run on different threads. [`SplitMix64`] is a tiny,
//! statistically solid generator (Steele, Lea & Flood, OOPSLA 2014) whose
//! state is a single `u64`, which makes deriving independent per-trial
//! streams trivial via [`SplitMix64::split`].

use rand::{Error, RngCore, SeedableRng};

/// The SplitMix64 state increment (Weyl constant).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The finalizer's two multipliers (shared with the vectorized OLH hash in
/// `kernels`).
pub(crate) const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
pub(crate) const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The 64-bit finalizer alone (no Weyl increment): the output function
/// applied to each advanced state.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    z ^ (z >> 31)
}

/// The 64-bit finalizer from SplitMix64 / MurmurHash3.
///
/// Also used across the workspace as a cheap integer mixer (e.g. the OLH
/// hash family seeds).
#[inline]
pub fn mix64(z: u64) -> u64 {
    finalize(z.wrapping_add(GAMMA))
}

/// A SplitMix64 pseudo-random generator.
///
/// Not cryptographically secure — the workspace uses it for *simulation* of
/// LDP randomizers, where speed and reproducibility matter. A production
/// client deployment would swap in a CSPRNG via the `rand::Rng` bounds used
/// throughout the public APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent generator for a labelled substream.
    ///
    /// `split(a) != split(b)` streams are statistically independent for
    /// `a != b`; used to give each (trial, method) pair its own stream.
    #[must_use]
    pub fn split(&self, stream: u64) -> Self {
        SplitMix64 {
            state: mix64(self.state ^ mix64(stream)),
        }
    }

    /// Returns the next raw 64-bit output.
    // The name mirrors the canonical SplitMix64 reference implementation;
    // this type is not an Iterator.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Fills `out` with raw 64-bit outputs, **draw-order-compatible** with
    /// the serial path: `out[i]` equals the `i`-th sequential
    /// [`SplitMix64::next`] call, and the generator is left in the state
    /// those calls would leave it in. SplitMix64 is counter-based — output
    /// `i` is `finalize(state + (i + 1)·GAMMA)` — so the batch fill runs a
    /// 4-lane independent unroll with no serial dependency between lanes.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let base = self.state;
        let mut blocks = out.chunks_exact_mut(4);
        let mut i: u64 = 0;
        for b in &mut blocks {
            b[0] = finalize(base.wrapping_add((i + 1).wrapping_mul(GAMMA)));
            b[1] = finalize(base.wrapping_add((i + 2).wrapping_mul(GAMMA)));
            b[2] = finalize(base.wrapping_add((i + 3).wrapping_mul(GAMMA)));
            b[3] = finalize(base.wrapping_add((i + 4).wrapping_mul(GAMMA)));
            i += 4;
        }
        for o in blocks.into_remainder() {
            i += 1;
            *o = finalize(base.wrapping_add(i.wrapping_mul(GAMMA)));
        }
        self.state = base.wrapping_add((out.len() as u64).wrapping_mul(GAMMA));
    }

    /// Fills `out` with uniform `f64` draws in `[0, 1)`, draw-order-
    /// compatible with `rng.gen::<f64>()` on this generator: each output
    /// is `(u >> 11) · 2⁻⁵³` of the corresponding raw draw.
    pub fn fill_f64(&mut self, out: &mut [f64]) {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let base = self.state;
        for (i, o) in out.iter_mut().enumerate() {
            let u = finalize(base.wrapping_add((i as u64 + 1).wrapping_mul(GAMMA)));
            *o = (u >> 11) as f64 * SCALE;
        }
        self.state = base.wrapping_add((out.len() as u64).wrapping_mul(GAMMA));
    }

    /// Fills `out` with bounded draws in `[0, bound)`, draw-order-
    /// compatible with `rng.gen_range(0..bound)` on this generator: each
    /// output is `u % bound` of the corresponding raw draw (the vendored
    /// `rand` integer-range reduction).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn fill_bounded(&mut self, bound: u64, out: &mut [u64]) {
        assert!(bound > 0, "fill_bounded requires a positive bound");
        let base = self.state;
        for (i, o) in out.iter_mut().enumerate() {
            let u = finalize(base.wrapping_add((i as u64 + 1).wrapping_mul(GAMMA)));
            *o = u % bound;
        }
        self.state = base.wrapping_add((out.len() as u64).wrapping_mul(GAMMA));
    }
}

impl RngCore for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }

    fn fill_u64_stream(&mut self, dest: &mut [u64]) {
        // The counter-based batch fill replays the serial draw order
        // exactly, so generic `Rng` bulk paths get the unrolled kernel.
        self.fill_u64(dest);
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SplitMix64::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        SplitMix64::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn known_answer_vector() {
        // Reference values from the canonical SplitMix64 implementation
        // seeded with 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next(), 6457827717110365317);
        assert_eq!(rng.next(), 3203168211198807973);
        assert_eq!(rng.next(), 9817491932198370423);
    }

    #[test]
    fn deterministic_from_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn split_streams_differ_from_parent_and_each_other() {
        let root = SplitMix64::new(7);
        let mut s1 = root.split(1);
        let mut s2 = root.split(2);
        let mut s1b = root.split(1);
        assert_ne!(s1.next(), s2.next());
        let mut s1c = root.split(1);
        assert_eq!(s1b.next(), s1c.next());
    }

    #[test]
    fn uniform_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = SplitMix64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Not all bytes should be zero with overwhelming probability.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn batched_fills_match_serial_draw_order() {
        for n in [0usize, 1, 3, 4, 5, 8, 17, 256] {
            let mut serial = SplitMix64::new(4242);
            let mut batched = SplitMix64::new(4242);
            let expect: Vec<u64> = (0..n).map(|_| serial.next()).collect();
            let mut got = vec![0u64; n];
            batched.fill_u64(&mut got);
            assert_eq!(got, expect, "n = {n}");
            assert_eq!(batched, serial, "state after fill, n = {n}");
        }
        // f64 fills replay gen::<f64>() exactly (same raw draws, same
        // mantissa scaling), bounded fills replay gen_range(0..bound).
        let mut serial = SplitMix64::new(77);
        let expect: Vec<f64> = (0..100).map(|_| serial.gen::<f64>()).collect();
        let mut batched = SplitMix64::new(77);
        let mut got = vec![0.0f64; 100];
        batched.fill_f64(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        let mut serial = SplitMix64::new(78);
        let expect: Vec<u64> = (0..100).map(|_| serial.gen_range(0..37u64)).collect();
        let mut batched = SplitMix64::new(78);
        let mut got = vec![0u64; 100];
        batched.fill_bounded(37, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn batched_fill_golden_vector() {
        // Pins the counter-based formulation against the canonical
        // sequential known-answer vector for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        let mut out = [0u64; 3];
        rng.fill_u64(&mut out);
        assert_eq!(
            out,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn bounded_fill_is_roughly_uniform_chi_square() {
        // Chi-square smoke test over 16 cells: with 64k draws the statistic
        // for a uniform source sits near its 15 degrees of freedom; 60 is
        // far beyond any plausible p-value for a healthy generator.
        const CELLS: u64 = 16;
        const N: usize = 1 << 16;
        let mut rng = SplitMix64::new(20_260_808);
        let mut out = vec![0u64; N];
        rng.fill_bounded(CELLS, &mut out);
        let mut counts = [0u64; CELLS as usize];
        for &v in &out {
            counts[v as usize] += 1;
        }
        let expected = N as f64 / CELLS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 60.0, "chi-square statistic {chi2} too large");
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Spot check: distinct inputs give distinct outputs.
        let outs: Vec<u64> = (0u64..1000).map(mix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len());
    }
}
