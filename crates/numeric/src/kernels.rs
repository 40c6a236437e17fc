//! Vectorized absorb/aggregate kernels with runtime dispatch.
//!
//! Every hot absorption loop in the workspace funnels through this module:
//! the SW band-edge dot products ([`dot4`]), the SW report-bucketing pass
//! ([`first_out_of_range`] + [`bucket_histogram`]), the OUE bit-count
//! accumulation ([`bitcount_rows`]), and the OLH support walk
//! ([`hash_support`], reducing `% g` through [`ModReducer`]). Each kernel
//! has
//!
//! - a **scalar reference** implementation — the semantics, always compiled,
//!   always available;
//! - an optional 4–8-lane unrolled / `core::arch` AVX2 variant selected at
//!   runtime behind [`simd_enabled`].
//!
//! The contract, pinned by the workspace `kernel_equivalence` differential
//! suite, is that every variant is **bit-identical** to its scalar
//! reference: integer kernels because `u64`/`i64` addition is exact and
//! commutative, float kernels because the vector lanes replay the exact
//! operation sequence of the blocked scalar loop (IEEE-754 `add`/`mul`/
//! `div` are exactly specified, and Rust performs no float contraction).
//!
//! # Dispatch rules
//!
//! [`simd_enabled`] is computed once per process: it requires `x86_64`,
//! a runtime `is_x86_feature_detected!("avx2")` hit, and the `LDP_NO_SIMD`
//! environment variable to be unset (or `0`/empty). Setting `LDP_NO_SIMD=1`
//! forces every kernel onto its scalar reference — CI runs the whole test
//! suite in both configurations. Non-x86 targets always take the scalar
//! path; there is no compile-time feature gate to misconfigure.
//!
//! This module contains the only `unsafe` code outside `ldp-pool`; every
//! `unsafe` block is a `#[target_feature(enable = "avx2")]` intrinsic
//! routine reached strictly behind the runtime detection check.

use crate::rng::mix64;
use std::sync::OnceLock;

/// Environment variable that forces every kernel onto its scalar
/// reference path when set to anything but `0` or the empty string.
pub const NO_SIMD_ENV: &str = "LDP_NO_SIMD";

/// Whether the SIMD kernel variants are active in this process: `x86_64`
/// with AVX2 detected at runtime and [`NO_SIMD_ENV`] not set. Computed
/// once and cached; the per-call cost is one atomic load.
#[must_use]
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        let forced_off = std::env::var(NO_SIMD_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced_off {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

// ---------------------------------------------------------------------------
// Blocked dot product (SW band edges)
// ---------------------------------------------------------------------------

/// The scalar reference for [`dot4`]: four independent accumulators over
/// 4-element blocks, reduced as `(a0 + a1) + (a2 + a3) + rest`. Public so
/// the differential suite can pin the SIMD variant against it.
#[must_use]
pub fn dot4_scalar(entries: &[f64], window: &[f64]) -> f64 {
    debug_assert_eq!(entries.len(), window.len());
    let mut acc = [0.0f64; 4];
    let mut entry_blocks = entries.chunks_exact(4);
    let mut window_blocks = window.chunks_exact(4);
    for (e, w) in (&mut entry_blocks).zip(&mut window_blocks) {
        acc[0] += e[0] * w[0];
        acc[1] += e[1] * w[1];
        acc[2] += e[2] * w[2];
        acc[3] += e[3] * w[3];
    }
    let mut rest = 0.0;
    for (e, w) in entry_blocks
        .remainder()
        .iter()
        .zip(window_blocks.remainder())
    {
        rest += e * w;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// Dot product of two equal-length slices through four independent
/// accumulators — the kernel behind the SW banded operator's explicit
/// band edges. The AVX2 variant keeps one accumulator per vector lane and
/// reduces in the same order as [`dot4_scalar`], so the two are
/// bit-identical on every input.
#[must_use]
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn dot4(entries: &[f64], window: &[f64]) -> f64 {
    debug_assert_eq!(entries.len(), window.len());
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && entries.len() >= 8 {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        return unsafe { avx2::dot4_avx2(entries, window) };
    }
    dot4_scalar(entries, window)
}

// ---------------------------------------------------------------------------
// Range validation + bucket histogram (SW report absorption)
// ---------------------------------------------------------------------------

/// The scalar reference for [`first_out_of_range`].
#[must_use]
pub fn first_out_of_range_scalar(values: &[f64], lo: f64, hi: f64) -> Option<usize> {
    values.iter().position(|&v| !(v >= lo && v <= hi))
}

/// Index of the first value outside `[lo, hi]`, where NaN (which fails
/// every ordered comparison) and infinities count as outside for finite
/// bounds — exactly the SW aggregator's domain check. The AVX2 variant
/// tests four lanes per step with ordered-quiet compares and rescans the
/// offending block serially, so the reported index matches the scalar
/// reference exactly.
#[must_use]
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn first_out_of_range(values: &[f64], lo: f64, hi: f64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        return unsafe { avx2::first_out_of_range_avx2(values, lo, hi) };
    }
    first_out_of_range_scalar(values, lo, hi)
}

/// The scalar reference for [`bucket_histogram`].
pub fn bucket_histogram_scalar(counts: &mut [u64], values: &[f64], lo: f64, hi: f64) {
    let d = counts.len();
    for &v in values {
        let pos = ((v - lo) / (hi - lo) * d as f64) as isize;
        let idx = pos.clamp(0, d as isize - 1) as usize;
        counts[idx] += 1;
    }
}

/// Buckets each value into `counts` via
/// `clamp(trunc((v - lo) / (hi - lo) * d), 0, d - 1)` — the SW report
/// histogram pass. Callers must validate the slice with
/// [`first_out_of_range`] first (the SW aggregator does); values must be
/// finite. The AVX2 variant performs the identical `sub`/`div`/`mul`
/// sequence per lane and truncates with `cvttpd` (round-toward-zero, the
/// same rounding as `as isize` for in-range values), so the two paths are
/// bit-identical on validated input.
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn bucket_histogram(counts: &mut [u64], values: &[f64], lo: f64, hi: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && !counts.is_empty() && counts.len() <= i32::MAX as usize {
        // SAFETY: simd_enabled() verified AVX2 support at runtime.
        unsafe { avx2::bucket_histogram_avx2(counts, values, lo, hi) };
        return;
    }
    bucket_histogram_scalar(counts, values, lo, hi);
}

// ---------------------------------------------------------------------------
// Bit-count accumulation (OUE absorption)
// ---------------------------------------------------------------------------

/// The scalar reference for [`bitcount_rows`]: one row at a time, a
/// `trailing_zeros` sparse walk over each word, ignoring stray bits at
/// index ≥ `counts.len()` (the legacy OUE `add_counts` semantics).
pub fn bitcount_rows_scalar<'a, I>(counts: &mut [u64], rows: I)
where
    I: IntoIterator<Item = &'a [u64]>,
{
    for row in rows {
        bitcount_row(counts, row);
    }
}

/// One sparse row accumulation — shared tail path of [`bitcount_rows`].
fn bitcount_row(counts: &mut [u64], row: &[u64]) {
    let d = counts.len();
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let idx = w * 64 + bits.trailing_zeros() as usize;
            if idx < d {
                counts[idx] += 1;
            }
            bits &= bits - 1;
        }
    }
}

/// Carry-save full adder over three bit rows: returns `(sum, carry)` with
/// `a + b + c = sum + 2·carry` per bit position.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Accumulates many packed bit rows into per-position counts — the OUE
/// absorption kernel. Rows are processed in blocks of 7 through a
/// carry-save adder tree (7 rows fit a 3-bit per-position counter), so
/// each word of a full block costs ~20 bitwise ops plus one extraction
/// sweep instead of 7 sparse walks; leftover rows take the sparse
/// reference path. Every row must span `counts.len().div_ceil(64)` words;
/// bits at positions ≥ `counts.len()` in the final word are ignored,
/// matching the scalar reference. Counts are exact `u64` additions, so
/// the blocked order is bit-identical to row-at-a-time accumulation.
pub fn bitcount_rows<'a, I>(counts: &mut [u64], rows: I)
where
    I: IntoIterator<Item = &'a [u64]>,
{
    let mut block: [&[u64]; 7] = [&[]; 7];
    let mut fill = 0;
    for row in rows {
        debug_assert_eq!(row.len(), counts.len().div_ceil(64));
        block[fill] = row;
        fill += 1;
        if fill == block.len() {
            bitcount_block7(counts, &block);
            fill = 0;
        }
    }
    for row in &block[..fill] {
        bitcount_row(counts, row);
    }
}

/// One full 7-row carry-save block of [`bitcount_rows`].
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
fn bitcount_block7(counts: &mut [u64], rows: &[&[u64]; 7]) {
    let d = counts.len();
    let words = d.div_ceil(64);
    #[cfg(target_arch = "x86_64")]
    let simd = simd_enabled();
    // Seven parallel rows indexed in lockstep; a 7-way zip would obscure
    // the carry-save structure.
    #[allow(clippy::needless_range_loop)]
    for w in 0..words {
        let (s1, c1) = csa(rows[0][w], rows[1][w], rows[2][w]);
        let (s2, c2) = csa(rows[3][w], rows[4][w], rows[5][w]);
        let (ones, c3) = csa(s1, s2, rows[6][w]);
        let (twos, fours) = csa(c1, c2, c3);
        let base = w * 64;
        let top = 64.min(d - base);
        // Mask stray bits beyond the domain in the final word so hostile
        // payloads count exactly like the scalar reference's idx guard.
        let keep = if top == 64 { !0u64 } else { (1u64 << top) - 1 };
        let (ones, twos, fours) = (ones & keep, twos & keep, fours & keep);
        if ones | twos | fours == 0 {
            continue;
        }
        let dst = &mut counts[base..base + top];
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: simd_enabled() verified AVX2 support at runtime.
            unsafe { avx2::extract_counter_bits_avx2(dst, ones, twos, fours) };
            continue;
        }
        extract_counter_bits(dst, ones, twos, fours);
    }
}

/// Unpacks a 3-bit-per-position carry-save counter into `u64` counts —
/// the extraction sweep of [`bitcount_block7`] (scalar variant).
fn extract_counter_bits(dst: &mut [u64], ones: u64, twos: u64, fours: u64) {
    for (i, c) in dst.iter_mut().enumerate() {
        *c += ((ones >> i) & 1) + (((twos >> i) & 1) << 1) + (((fours >> i) & 1) << 2);
    }
}

// ---------------------------------------------------------------------------
// Exact modular reduction + hash-support walk (OLH absorption)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reduction {
    /// `g` is a power of two: `x & mask`.
    Mask(u64),
    /// Any other `g`: the hardware `x % g`.
    Rem(u64),
}

/// Exact `x % g` for a divisor `g` fixed at construction: a mask when `g`
/// is a power of two (no hardware division), otherwise the hardware `%`.
/// [`ModReducer::reduce`] branches on the variant per call;
/// [`hash_support`] branches once per call and runs a loop specialized to
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModReducer(Reduction);

impl ModReducer {
    /// Precomputes the reduction for divisor `g`.
    ///
    /// # Panics
    /// If `g == 0`.
    #[must_use]
    pub fn new(g: u32) -> Self {
        assert!(g > 0, "modulus must be positive");
        let g = u64::from(g);
        ModReducer(if g.is_power_of_two() {
            Reduction::Mask(g - 1)
        } else {
            Reduction::Rem(g)
        })
    }

    /// `x % g`, exactly.
    #[inline]
    #[must_use]
    pub fn reduce(self, x: u64) -> u64 {
        match self.0 {
            Reduction::Mask(mask) => x & mask,
            Reduction::Rem(g) => x % g,
        }
    }
}

/// The scalar reference for [`hash_support`]: one report at a time, one
/// value at a time, hardware `%`.
pub fn hash_support_scalar<I>(support: &mut [u64], value_mix: &[u64], reports: I, g: u32)
where
    I: IntoIterator<Item = (u64, u32)>,
{
    for (seed, y) in reports {
        for (s, &m) in support.iter_mut().zip(value_mix) {
            if mix64(seed ^ m) % u64::from(g) == u64::from(y) {
                *s += 1;
            }
        }
    }
}

/// The OLH support walk: for every `(seed, y)` report and every domain
/// value `v`, adds one to `support[v]` when
/// `mix64(seed ^ value_mix[v]) % g == y`, where `value_mix[v]` caches the
/// report-independent inner hash `mix64(v)` and `g` is `reducer`'s
/// divisor. The reduction variant is chosen once per call: a power-of-two
/// `g` runs the AVX2 routine when [`simd_enabled`] (4 lanes per step, the
/// 64-bit multiplies built from 32-bit ones), every other case a 4-wide
/// unrolled scalar loop. Counts are exact `u64` additions, so every path
/// equals [`hash_support_scalar`] bit for bit.
#[allow(unsafe_code)] // runtime-dispatched AVX2 call sites
pub fn hash_support<I>(support: &mut [u64], value_mix: &[u64], reports: I, reducer: ModReducer)
where
    I: IntoIterator<Item = (u64, u32)>,
{
    debug_assert_eq!(support.len(), value_mix.len());
    match reducer.0 {
        #[cfg(target_arch = "x86_64")]
        Reduction::Mask(mask) if simd_enabled() => {
            // SAFETY: simd_enabled() verified AVX2 support at runtime.
            unsafe { avx2::hash_support_mask_avx2(support, value_mix, reports, mask) }
        }
        Reduction::Mask(mask) => hash_support_unrolled(support, value_mix, reports, |x| x & mask),
        Reduction::Rem(g) => hash_support_unrolled(support, value_mix, reports, |x| x % g),
    }
}

/// The portable [`hash_support`] loop, specialized to one reduction `rem`.
fn hash_support_unrolled<I, R>(support: &mut [u64], value_mix: &[u64], reports: I, rem: R)
where
    I: IntoIterator<Item = (u64, u32)>,
    R: Fn(u64) -> u64,
{
    for (seed, y) in reports {
        let y = u64::from(y);
        let hit = |m: u64| u64::from(rem(mix64(seed ^ m)) == y);
        let mut counts = support.chunks_exact_mut(4);
        let mut mixes = value_mix.chunks_exact(4);
        for (s4, m4) in (&mut counts).zip(&mut mixes) {
            s4[0] += hit(m4[0]);
            s4[1] += hit(m4[1]);
            s4[2] += hit(m4[2]);
            s4[3] += hit(m4[3]);
        }
        for (s, &m) in counts.into_remainder().iter_mut().zip(mixes.remainder()) {
            *s += hit(m);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 variants (runtime-dispatched; the module's only unsafe code)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 support (via `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4_avx2(entries: &[f64], window: &[f64]) -> f64 {
        let n = entries.len();
        let blocks = n / 4;
        let e = entries.as_ptr();
        let w = window.as_ptr();
        let mut acc = _mm256_setzero_pd();
        for i in 0..blocks {
            // SAFETY: 4*i + 3 < n by the blocks bound; loads are unaligned.
            let ev = unsafe { _mm256_loadu_pd(e.add(4 * i)) };
            let wv = unsafe { _mm256_loadu_pd(w.add(4 * i)) };
            // Lane j replays exactly the scalar acc[j] += e*w sequence.
            acc = _mm256_add_pd(acc, _mm256_mul_pd(ev, wv));
        }
        let mut lanes = [0.0f64; 4];
        // SAFETY: lanes is 4 f64s; storeu has no alignment requirement.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        let mut rest = 0.0;
        for i in blocks * 4..n {
            rest += entries[i] * window[i];
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + rest
    }

    /// # Safety
    /// Caller must have verified AVX2 support (via `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn first_out_of_range_avx2(
        values: &[f64],
        lo: f64,
        hi: f64,
    ) -> Option<usize> {
        let n = values.len();
        let blocks = n / 4;
        let p = values.as_ptr();
        let lo_v = _mm256_set1_pd(lo);
        let hi_v = _mm256_set1_pd(hi);
        for b in 0..blocks {
            // SAFETY: 4*b + 3 < n by the blocks bound.
            let v = unsafe { _mm256_loadu_pd(p.add(4 * b)) };
            // Ordered-quiet compares: NaN lanes fail both, like `!(v >= lo)`.
            let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(v, lo_v);
            let le = _mm256_cmp_pd::<_CMP_LE_OQ>(v, hi_v);
            let ok = _mm256_movemask_pd(_mm256_and_pd(ge, le));
            if ok != 0xF {
                // Serial rescan of the block for the exact first index.
                for (i, &x) in values[4 * b..4 * b + 4].iter().enumerate() {
                    if !(x >= lo && x <= hi) {
                        return Some(4 * b + i);
                    }
                }
            }
        }
        for (i, &x) in values[blocks * 4..].iter().enumerate() {
            if !(x >= lo && x <= hi) {
                return Some(blocks * 4 + i);
            }
        }
        None
    }

    /// # Safety
    /// Caller must have verified AVX2 support; `counts` must be non-empty
    /// with `counts.len() <= i32::MAX`, and `values` pre-validated to lie
    /// in the (tolerated) `[lo, hi]` domain so every scaled position fits
    /// the `i32` truncation.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bucket_histogram_avx2(
        counts: &mut [u64],
        values: &[f64],
        lo: f64,
        hi: f64,
    ) {
        let d = counts.len();
        let n = values.len();
        let blocks = n / 4;
        let p = values.as_ptr();
        let lo_v = _mm256_set1_pd(lo);
        let span_v = _mm256_set1_pd(hi - lo);
        let d_v = _mm256_set1_pd(d as f64);
        let zero = _mm_setzero_si128();
        let max_v = _mm_set1_epi32(d as i32 - 1);
        for b in 0..blocks {
            // SAFETY: 4*b + 3 < n by the blocks bound.
            let v = unsafe { _mm256_loadu_pd(p.add(4 * b)) };
            // Identical op sequence to the scalar reference: sub, div, mul
            // (all IEEE-exact), then round-toward-zero truncation.
            let pos = _mm256_mul_pd(_mm256_div_pd(_mm256_sub_pd(v, lo_v), span_v), d_v);
            let idx = _mm256_cvttpd_epi32(pos);
            let idx = _mm_min_epi32(_mm_max_epi32(idx, zero), max_v);
            let mut out = [0i32; 4];
            // SAFETY: out is 16 bytes; storeu has no alignment requirement.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), idx) };
            counts[out[0] as usize] += 1;
            counts[out[1] as usize] += 1;
            counts[out[2] as usize] += 1;
            counts[out[3] as usize] += 1;
        }
        super::bucket_histogram_scalar(counts, &values[blocks * 4..], lo, hi);
    }

    /// `a · c` modulo 2^64 per lane, from three 32 × 32 → 64-bit
    /// multiplies (AVX2 has no 64-bit multiply); `c` is split into its
    /// low and high 32-bit halves.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul64(a: __m256i, c_lo: __m256i, c_hi: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, c_lo);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), c_lo),
            _mm256_mul_epu32(a, c_hi),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// Walks the first `min(support.len(), value_mix.len())` values.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support (via `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hash_support_mask_avx2<I>(
        support: &mut [u64],
        value_mix: &[u64],
        reports: I,
        mask: u64,
    ) where
        I: IntoIterator<Item = (u64, u32)>,
    {
        use crate::rng::{mix64, GAMMA, MIX1, MIX2};
        let halves = |c: u64| {
            (
                _mm256_set1_epi64x((c & 0xFFFF_FFFF) as i64),
                _mm256_set1_epi64x((c >> 32) as i64),
            )
        };
        let (mix1_lo, mix1_hi) = halves(MIX1);
        let (mix2_lo, mix2_hi) = halves(MIX2);
        let gamma = _mm256_set1_epi64x(GAMMA as i64);
        let mask_v = _mm256_set1_epi64x(mask as i64);
        let n = support.len().min(value_mix.len());
        let blocks = n / 4;
        for (seed, y) in reports {
            let seed_v = _mm256_set1_epi64x(seed as i64);
            let y_v = _mm256_set1_epi64x(i64::from(y));
            for b in 0..blocks {
                // SAFETY: 4*b + 3 < n by the blocks bound; unaligned
                // loads/stores.
                let m = unsafe { _mm256_loadu_si256(value_mix.as_ptr().add(4 * b).cast()) };
                // mix64(seed ^ m), lane by lane, wrapping like the scalar.
                let mut z = _mm256_add_epi64(_mm256_xor_si256(seed_v, m), gamma);
                z = mul64(
                    _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
                    mix1_lo,
                    mix1_hi,
                );
                z = mul64(
                    _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)),
                    mix2_lo,
                    mix2_hi,
                );
                z = _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z));
                // A hit lane compares to all-ones (-1); subtracting adds 1.
                let hit = _mm256_cmpeq_epi64(_mm256_and_si256(z, mask_v), y_v);
                let p = support.as_mut_ptr().wrapping_add(4 * b).cast::<__m256i>();
                // SAFETY: as for the load above.
                unsafe { _mm256_storeu_si256(p, _mm256_sub_epi64(_mm256_loadu_si256(p), hit)) };
            }
            let y = u64::from(y);
            for (s, &m) in support[blocks * 4..n]
                .iter_mut()
                .zip(&value_mix[blocks * 4..n])
            {
                *s += u64::from(mix64(seed ^ m) & mask == y);
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support; `dst.len() <= 64`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn extract_counter_bits_avx2(
        dst: &mut [u64],
        ones: u64,
        twos: u64,
        fours: u64,
    ) {
        let top = dst.len();
        let lane_offsets = _mm256_set_epi64x(3, 2, 1, 0);
        let one = _mm256_set1_epi64x(1);
        let ones_v = _mm256_set1_epi64x(ones as i64);
        let twos_v = _mm256_set1_epi64x(twos as i64);
        let fours_v = _mm256_set1_epi64x(fours as i64);
        let mut i = 0;
        while i + 4 <= top {
            let sh = _mm256_add_epi64(lane_offsets, _mm256_set1_epi64x(i as i64));
            let o = _mm256_and_si256(_mm256_srlv_epi64(ones_v, sh), one);
            let t = _mm256_and_si256(_mm256_srlv_epi64(twos_v, sh), one);
            let f = _mm256_and_si256(_mm256_srlv_epi64(fours_v, sh), one);
            let add = _mm256_add_epi64(
                o,
                _mm256_add_epi64(_mm256_slli_epi64(t, 1), _mm256_slli_epi64(f, 2)),
            );
            let ptr = dst.as_mut_ptr().wrapping_add(i).cast::<__m256i>();
            // SAFETY: i + 3 < top, so the 4-lane load/store stays in dst.
            let cur = unsafe { _mm256_loadu_si256(ptr) };
            unsafe { _mm256_storeu_si256(ptr, _mm256_add_epi64(cur, add)) };
            i += 4;
        }
        for (j, c) in dst.iter_mut().enumerate().skip(i) {
            *c += ((ones >> j) & 1) + (((twos >> j) & 1) << 1) + (((fours >> j) & 1) << 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use rand::Rng;

    #[test]
    fn dot4_matches_scalar_reference() {
        let mut rng = SplitMix64::new(71);
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 64, 257] {
            let a: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 3.0).collect();
            assert_eq!(
                dot4(&a, &b).to_bits(),
                dot4_scalar(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn range_check_matches_scalar_reference_and_rejects_nan() {
        let vals = [0.1, 0.5, f64::NAN, 0.7];
        assert_eq!(first_out_of_range(&vals, 0.0, 1.0), Some(2));
        assert_eq!(first_out_of_range_scalar(&vals, 0.0, 1.0), Some(2));
        let vals = [0.1, -0.5];
        assert_eq!(first_out_of_range(&vals, 0.0, 1.0), Some(1));
        assert_eq!(first_out_of_range(&[0.0, 1.0], 0.0, 1.0), None);
        assert_eq!(first_out_of_range(&[], 0.0, 1.0), None);
    }

    #[test]
    fn bucket_histogram_matches_scalar_reference() {
        let mut rng = SplitMix64::new(72);
        for d in [1usize, 2, 7, 64, 257] {
            let vals: Vec<f64> = (0..501).map(|_| rng.gen::<f64>() * 1.5 - 0.25).collect();
            let mut a = vec![0u64; d];
            let mut b = vec![0u64; d];
            bucket_histogram(&mut a, &vals, -0.25, 1.25);
            bucket_histogram_scalar(&mut b, &vals, -0.25, 1.25);
            assert_eq!(a, b, "d = {d}");
        }
    }

    #[test]
    fn bitcount_matches_scalar_reference_with_stray_tail_bits() {
        let mut rng = SplitMix64::new(73);
        for d in [1usize, 2, 7, 64, 65, 257] {
            let words = d.div_ceil(64);
            for n_rows in [0usize, 1, 6, 7, 8, 20] {
                let rows: Vec<Vec<u64>> = (0..n_rows)
                    .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
                    .collect();
                let mut a = vec![0u64; d];
                let mut b = vec![0u64; d];
                bitcount_rows(&mut a, rows.iter().map(Vec::as_slice));
                bitcount_rows_scalar(&mut b, rows.iter().map(Vec::as_slice));
                assert_eq!(a, b, "d = {d}, rows = {n_rows}");
            }
        }
    }

    #[test]
    fn simd_flag_is_cached_and_consistent() {
        assert_eq!(simd_enabled(), simd_enabled());
    }
}
