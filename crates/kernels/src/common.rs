//! Shared output quantization: the per-output requantization every
//! instrumented kernel charges to the [`Mcu`] cost model, and the
//! reference arithmetic the host engine's finish is defined by.
//! `wp_engine`'s scalar and swar tiers finish a layer with
//! [`OutputQuant::apply_plane_in_place`]; its avx2 tier runs a vector
//! finish pinned to [`OutputQuant::apply_value`] element by element.

use wp_mcu::Mcu;
use wp_quant::Requantizer;

/// Output requantization applied by every conv/dense kernel: accumulator →
/// next layer's activation code, with optional fused ReLU.
#[derive(Debug, Clone, Copy)]
pub struct OutputQuant {
    /// Fixed-point multiplier from accumulator scale to output scale.
    pub requant: Requantizer,
    /// Fuse ReLU (clamp at zero) before writing the code.
    pub relu: bool,
    /// Output code bitwidth (unsigned when `relu`, two's complement
    /// otherwise).
    pub out_bits: u8,
}

impl OutputQuant {
    /// An identity requantizer producing `bits`-bit ReLU outputs — handy in
    /// tests where only cycle counts matter.
    pub fn identity(bits: u8) -> Self {
        Self { requant: Requantizer::from_real_multiplier(1.0), relu: true, out_bits: bits }
    }

    /// The pure requantization arithmetic: widening multiply, rounding
    /// shift and clamp, with no cycle accounting. Host-speed backends
    /// (`wp_engine`) call this directly so their outputs are bit-identical
    /// to the instrumented kernels by construction. The clamp to the code
    /// range runs on the unnarrowed product, so an accumulator that a
    /// multiplier above 1 scales past `i32` saturates instead of wrapping.
    #[inline]
    pub fn apply_value(&self, acc: i32) -> i32 {
        let (lo, hi) = self.code_range();
        self.requant.apply_wide(acc).clamp(lo, hi) as i32
    }

    /// The output code range `[lo, hi]` [`OutputQuant::apply_value`]
    /// clamps to: `[0, 2^out_bits − 1]` with ReLU, else the two's
    /// complement range of `out_bits` bits.
    #[inline]
    pub fn code_range(&self) -> (i64, i64) {
        if self.relu {
            (0, (1i64 << self.out_bits) - 1)
        } else {
            let hi = (1i64 << (self.out_bits - 1)) - 1;
            (-hi - 1, hi)
        }
    }

    /// Bias add + requantization over a whole accumulator block, in
    /// place: `acc` is `[K, plane]` raw accumulators (one `plane`-long
    /// chunk per output channel) and becomes the output codes, `bias`
    /// holds one value per channel. This is the reference finish:
    /// `wp_engine`'s scalar and swar tiers run it, and the avx2 tier's
    /// vector finish is pinned to [`OutputQuant::apply_value`] element by
    /// element. The bias add widens to `i64` before the checked narrowing
    /// so a bias pushing an accumulator past `i32` panics instead of
    /// wrapping.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != bias.len() * plane` or if `acc + bias`
    /// overflows `i32`.
    pub fn apply_plane_in_place(&self, acc: &mut [i32], bias: &[i32], plane: usize) {
        assert_eq!(acc.len(), bias.len() * plane, "accumulator/bias plane mismatch");
        for (chunk, &b) in acc.chunks_mut(plane).zip(bias) {
            for a in chunk {
                *a = self.apply_value(
                    i32::try_from(*a as i64 + b as i64).expect("accumulator overflow"),
                );
            }
        }
    }

    /// Applies requantization to one accumulator, charging `mcu` for the
    /// widening multiply, rounding shift and clamp.
    #[inline]
    pub fn apply(&self, mcu: &mut Mcu, acc: i32) -> i32 {
        // SMULL + shift + round on Cortex-M3, then the two-sided clamp.
        mcu.mul();
        mcu.alu_n(2);
        mcu.alu_n(2);
        self.apply_value(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mcu::McuSpec;

    #[test]
    fn identity_passes_values_through_clamped() {
        let q = OutputQuant::identity(8);
        let mut mcu = Mcu::new(McuSpec::mc_large());
        assert_eq!(q.apply(&mut mcu, 100), 100);
        assert_eq!(q.apply(&mut mcu, -5), 0); // relu
        assert_eq!(q.apply(&mut mcu, 400), 255); // saturate
        assert!(mcu.cycles() > 0);
    }

    #[test]
    fn signed_output_clamps_two_sided() {
        let q = OutputQuant {
            requant: Requantizer::from_real_multiplier(1.0),
            relu: false,
            out_bits: 8,
        };
        let mut mcu = Mcu::new(McuSpec::mc_large());
        assert_eq!(q.apply(&mut mcu, -300), -128);
        assert_eq!(q.apply(&mut mcu, 300), 127);
        assert_eq!(q.apply(&mut mcu, -7), -7);
    }

    #[test]
    fn apply_value_matches_instrumented_apply() {
        let q = OutputQuant {
            requant: Requantizer::from_real_multiplier(0.37),
            relu: false,
            out_bits: 8,
        };
        let mut mcu = Mcu::new(McuSpec::mc_large());
        for acc in [-1000, -128, -1, 0, 1, 77, 345, 100_000] {
            assert_eq!(q.apply(&mut mcu, acc), q.apply_value(acc));
        }
    }

    #[test]
    fn apply_plane_matches_per_value_application() {
        let q = OutputQuant {
            requant: Requantizer::from_real_multiplier(0.11),
            relu: true,
            out_bits: 8,
        };
        let acc = [10, -400, 3000, 7, 0, -1];
        let bias = [5, -9];
        let plane = 3;
        let mut got = acc.to_vec();
        q.apply_plane_in_place(&mut got, &bias, plane);
        let expect: Vec<i32> = acc
            .chunks(plane)
            .zip(&bias)
            .flat_map(|(chunk, &b)| chunk.iter().map(move |&a| q.apply_value(a + b)))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "accumulator/bias plane mismatch")]
    fn apply_plane_rejects_size_mismatch() {
        OutputQuant::identity(8).apply_plane_in_place(&mut [1, 2, 3], &[0, 0], 2);
    }

    /// An accumulator that a multiplier above 1 scales past `i32` clamps
    /// to the code range on the side of its sign.
    #[test]
    fn scaling_past_i32_clamps_to_the_code_range() {
        let signed = OutputQuant {
            requant: Requantizer::from_real_multiplier(2.0),
            relu: false,
            out_bits: 8,
        };
        assert_eq!(signed.apply_value(1_500_000_000), 127);
        assert_eq!(signed.apply_value(-1_500_000_000), -128);
        let relu = OutputQuant { relu: true, ..signed };
        assert_eq!(relu.apply_value(1_500_000_000), 255);
        assert_eq!(relu.apply_value(-1_500_000_000), 0);
    }

    #[test]
    fn scaling_requantizer_scales() {
        let q = OutputQuant {
            requant: Requantizer::from_real_multiplier(0.25),
            relu: true,
            out_bits: 8,
        };
        let mut mcu = Mcu::new(McuSpec::mc_large());
        assert_eq!(q.apply(&mut mcu, 100), 25);
    }
}
