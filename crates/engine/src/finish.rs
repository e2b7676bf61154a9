//! The requantizing finish.
//!
//! Every conv, depthwise and dense layer ends by turning its raw `i32`
//! accumulators into the next layer's codes: per output, the channel's
//! bias, one widening multiply, one rounding shift and a clamp — the
//! CMSIS-NN finish the paper runs on Cortex-M, defined by
//! [`OutputQuant::apply_value`]. [`NativeBackend::finish_plane`] is the
//! engine's one entry point to it, and the plan's tier picks how it runs:
//!
//! * **scalar** and **swar** run the reference loop,
//!   [`OutputQuant::apply_plane_in_place`]. SSE2 has no signed 32×32→64
//!   multiply, and a branch-free scalar loop measured slower than the
//!   reference on x86-64.
//! * **avx2** finishes 8 outputs per step. It adds the channel's bias,
//!   forms the exact `i64` products of the even and odd lanes with
//!   `vpmuldq`, rounds each product half away from zero as sign and
//!   magnitude (AVX2 has no 64-bit arithmetic shift, so the magnitude
//!   shifts logically and the sign goes back on after) and clamps to the
//!   code range in `i64` before narrowing: `apply_value`'s steps in its
//!   order. A channel whose plane is not a multiple of 8 finishes its
//!   last 8 outputs from the raw accumulators first and stores them after
//!   the aligned blocks, so the overlap is written twice with the same
//!   codes. Planes shorter than 8 run the reference loop itself.
//!
//! The reference panics at the first `acc + bias` that overflows `i32`.
//! The vector finish ORs a per-lane overflow flag over the plane and
//! panics with the same message once the plane is done, so on every tier
//! an overflowing layer panics `"accumulator overflow"` before any of its
//! outputs is used. A biased accumulator times `mult < 2^31` is below
//! `2^62` in magnitude, so the rounding offset (at most `2^62`) cannot
//! carry it past `i64` for any shift in `0..=63`.

use crate::backend::NativeBackend;
use crate::options::ResolvedBackend;
use wp_kernels::OutputQuant;

impl NativeBackend {
    /// Finishes one layer's raw accumulators in place: `acc` is
    /// `[K, plane]` (one `plane`-long run per output channel) and `bias`
    /// holds one value per channel. Bit-identical on every tier to
    /// [`OutputQuant::apply_plane_in_place`] (see [`crate::finish`]).
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != bias.len() * plane` or if `acc + bias`
    /// overflows `i32`.
    pub fn finish_plane(&self, oq: &OutputQuant, acc: &mut [i32], bias: &[i32], plane: usize) {
        match self.simd() {
            #[cfg(target_arch = "x86_64")]
            ResolvedBackend::Avx2 => {
                assert_eq!(acc.len(), bias.len() * plane, "accumulator/bias plane mismatch");
                // SAFETY: `BackendKind::resolve` yields the avx2 tier only
                // when the CPU reports AVX2 at run time.
                let overflow = unsafe { avx2::finish(oq, acc, bias, plane) };
                assert!(!overflow, "accumulator overflow");
            }
            _ => oq.apply_plane_in_place(acc, bias, plane),
        }
    }
}

/// The avx2 tier's finish.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use wp_kernels::OutputQuant;

    /// One layer's requantization, broadcast into lanes.
    struct Requant {
        /// `mult` in the low half of each 64-bit lane, which `vpmuldq`
        /// reads.
        mult: __m256i,
        /// The rounding offset `2^(shift−1)` (0 at shift 0) per 64-bit
        /// lane.
        offset: __m256i,
        /// The shift count, for `vpsrlq`.
        shift: __m128i,
        lo: __m256i,
        hi: __m256i,
    }

    /// [`super::NativeBackend::finish_plane`] on AVX2 lanes, returning
    /// whether any `acc + bias` overflowed `i32` (the codes are then
    /// meaningless).
    #[target_feature(enable = "avx2")]
    pub(super) fn finish(oq: &OutputQuant, acc: &mut [i32], bias: &[i32], plane: usize) -> bool {
        let (mult, shift) = oq.requant.mult_shift();
        debug_assert!((0..=63).contains(&shift), "shift {shift}");
        let (lo, hi) = oq.code_range();
        let k = Requant {
            mult: _mm256_set1_epi32(mult),
            offset: _mm256_set1_epi64x(if shift == 0 { 0 } else { 1 << (shift - 1) }),
            shift: _mm_cvtsi32_si128(shift),
            lo: _mm256_set1_epi64x(lo),
            hi: _mm256_set1_epi64x(hi),
        };
        let mut flags = _mm256_setzero_si256();
        for (chunk, &b) in acc.chunks_mut(plane).zip(bias) {
            if chunk.len() < 8 {
                oq.apply_plane_in_place(chunk, &[b], chunk.len());
                continue;
            }
            let b = _mm256_set1_epi32(b);
            // A ragged plane finishes its last 8 outputs first, while
            // they are still raw accumulators.
            let last = match chunk.last_chunk::<8>() {
                Some(raw) if chunk.len() % 8 != 0 => Some(finish8(raw, b, &k, &mut flags)),
                _ => None,
            };
            let (blocks, _) = chunk.as_chunks_mut::<8>();
            for block in blocks {
                let codes = finish8(block, b, &k, &mut flags);
                store8(block, codes);
            }
            if let (Some(codes), Some(dst)) = (last, chunk.last_chunk_mut::<8>()) {
                store8(dst, codes);
            }
        }
        _mm256_movemask_ps(_mm256_castsi256_ps(flags)) != 0
    }

    /// Finishes the 8 accumulators of `raw` with bias `b`, returning the
    /// codes and ORing each lane's `i32` overflow into `flags`' sign bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn finish8(raw: &[i32; 8], b: __m256i, k: &Requant, flags: &mut __m256i) -> __m256i {
        // SAFETY: `raw` is 32 bytes, exactly one unaligned 256-bit load.
        let a = unsafe { _mm256_loadu_si256(raw.as_ptr().cast()) };
        let sum = _mm256_add_epi32(a, b);
        // The add overflowed where the sum's sign differs from both
        // operands' signs.
        let overflow = _mm256_and_si256(_mm256_xor_si256(a, sum), _mm256_xor_si256(b, sum));
        *flags = _mm256_or_si256(*flags, overflow);
        let even = round_clamp(_mm256_mul_epi32(sum, k.mult), k);
        let odd = round_clamp(_mm256_mul_epi32(_mm256_srli_epi64::<32>(sum), k.mult), k);
        _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd))
    }

    /// Stores 8 codes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store8(dst: &mut [i32; 8], codes: __m256i) {
        // SAFETY: `dst` is 32 bytes, exactly one unaligned 256-bit store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), codes) };
    }

    /// Rounds four `i64` products half away from zero at the shift and
    /// clamps them to the code range, as `Requantizer::apply_wide` and the
    /// clamp of [`OutputQuant::apply_value`] do; each lane's low half is
    /// its code.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn round_clamp(product: __m256i, k: &Requant) -> __m256i {
        let negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), product);
        let magnitude = _mm256_sub_epi64(_mm256_xor_si256(product, negative), negative);
        let rounded = _mm256_srl_epi64(_mm256_add_epi64(magnitude, k.offset), k.shift);
        let q = _mm256_sub_epi64(_mm256_xor_si256(rounded, negative), negative);
        let q = _mm256_blendv_epi8(q, k.hi, _mm256_cmpgt_epi64(q, k.hi));
        _mm256_blendv_epi8(q, k.lo, _mm256_cmpgt_epi64(k.lo, q))
    }
}
