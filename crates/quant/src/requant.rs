//! Fixed-point requantization, CMSIS-NN style.
//!
//! Integer kernels accumulate in i32 at scale `in_scale`, and the next layer
//! expects codes at scale `out_scale`. The ratio `in_scale / out_scale` is
//! represented as a Q31-style fixed-point multiplier plus a right shift so
//! the runtime needs only one widening multiply and one shift per output —
//! exactly the structure ARM's CMSIS-NN uses on Cortex-M.

use serde::{Deserialize, Serialize};

/// A real multiplier `m ∈ (0, 2^31)` factored as `mult * 2^(-shift)` with
/// `mult` a positive i32 in `[2^30, 2^31)` (one integer bit of headroom)
/// and `shift` in `0..=63`.
///
/// # Example
///
/// ```
/// use wp_quant::Requantizer;
///
/// let r = Requantizer::from_real_multiplier(0.25);
/// assert_eq!(r.apply(100), 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requantizer {
    mult: i32,
    shift: i32, // total right shift applied after the widening multiply
}

impl Requantizer {
    /// Builds a requantizer computing `round(x * real_multiplier)`.
    ///
    /// The stored shift is capped at 63. A multiplier below `2^-33`
    /// would need more, but every product `x · mult` is below `2^62` in
    /// magnitude, so a shift of 63 rounds it to 0: the exact rounding of
    /// `x · real_multiplier` for every `i32` input. A multiplier within
    /// half a unit of `2^31` keeps shift 0 with `mult = i32::MAX` rather
    /// than rounding up to a negative shift.
    ///
    /// # Panics
    ///
    /// Panics if `real_multiplier` is not finite and positive, or is too
    /// large to represent (≥ 2^31).
    pub fn from_real_multiplier(real_multiplier: f64) -> Self {
        assert!(
            real_multiplier.is_finite() && real_multiplier > 0.0,
            "multiplier must be positive and finite, got {real_multiplier}"
        );
        assert!(real_multiplier < (1u64 << 31) as f64, "multiplier {real_multiplier} too large");
        // Normalize into [0.5, 1.0) * 2^exp.
        let mut exp = 0i32;
        let mut m = real_multiplier;
        while m >= 1.0 {
            m /= 2.0;
            exp += 1;
        }
        while m < 0.5 {
            m *= 2.0;
            exp -= 1;
        }
        // m in [0.5, 1.0): encode as a Q31 value in [2^30, 2^31).
        let mut mult = (m * (1i64 << 31) as f64).round() as i64;
        if mult == 1i64 << 31 {
            if exp < 31 {
                mult /= 2;
                exp += 1;
            } else {
                mult -= 1;
            }
        }
        // apply(x) = x * mult * 2^(-31 + exp) => right shift of (31 - exp).
        Self { mult: mult as i32, shift: (31 - exp).min(63) }
    }

    /// The fixed-point factors `(mult, shift)`: `apply(x)` rounds
    /// `x · mult · 2^-shift`, with `mult` in `[2^30, 2^31)` and `shift`
    /// in `0..=63`.
    pub fn mult_shift(&self) -> (i32, i32) {
        (self.mult, self.shift)
    }

    /// Applies the multiplier with round-to-nearest (ties away from zero),
    /// saturating to the `i32` range: a multiplier above 1 can scale an
    /// accumulator past it, and the result must clamp, not wrap.
    pub fn apply(&self, x: i32) -> i32 {
        self.apply_wide(x).clamp(i32::MIN.into(), i32::MAX.into()) as i32
    }

    /// [`Requantizer::apply`] before it narrows: the rounded product as
    /// an `i64`, which a multiplier above 1 can take past `i32`. A caller
    /// that clamps to a narrower code range anyway clamps this directly,
    /// with one clamp per output instead of two.
    #[inline]
    pub fn apply_wide(&self, x: i32) -> i64 {
        round_shift(x as i64 * self.mult as i64, self.shift)
    }

    /// The exact real multiplier this requantizer implements,
    /// `mult · 2^-shift`. Below `2^-33` that is not the multiplier it was
    /// built from: the capped shift makes it `mult · 2^-63`, in
    /// `[2^-33, 2^-32)`, though `apply` still returns the exact rounding
    /// of the requested product, 0.
    pub fn real_multiplier(&self) -> f64 {
        self.mult as f64 * 2f64.powi(-self.shift)
    }
}

/// Arithmetic right shift with round-to-nearest, ties away from zero.
fn round_shift(value: i64, shift: i32) -> i64 {
    debug_assert!((0..=63).contains(&shift));
    if shift == 0 {
        return value;
    }
    let offset = 1i64 << (shift - 1);
    if value >= 0 {
        (value + offset) >> shift
    } else {
        -((-value + offset) >> shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_powers_of_two() {
        let r = Requantizer::from_real_multiplier(0.5);
        assert_eq!(r.apply(10), 5);
        assert_eq!(r.apply(-10), -5);
        let r2 = Requantizer::from_real_multiplier(2.0);
        assert_eq!(r2.apply(10), 20);
    }

    #[test]
    fn identity_multiplier() {
        let r = Requantizer::from_real_multiplier(1.0);
        for x in [-1000, -1, 0, 1, 12345] {
            assert_eq!(r.apply(x), x);
        }
    }

    #[test]
    fn rounding_is_to_nearest() {
        // 0.125 is exactly representable in Q31, so ties are exact ties.
        let r = Requantizer::from_real_multiplier(0.125);
        assert_eq!(r.apply(12), 2); // 1.5 rounds away from zero
        assert_eq!(r.apply(11), 1); // 1.375 rounds down
        assert_eq!(r.apply(-12), -2); // ties away from zero
    }

    /// A multiplier above 1 can scale an accumulator past `i32`: the
    /// result saturates instead of wrapping to the opposite sign.
    #[test]
    fn scaling_past_i32_saturates() {
        let r = Requantizer::from_real_multiplier(2.0);
        assert_eq!(r.apply(1_500_000_000), i32::MAX);
        assert_eq!(r.apply(-1_500_000_000), i32::MIN);
        assert_eq!(r.apply(i32::MAX), i32::MAX);
        assert_eq!(r.apply(i32::MIN), i32::MIN);
        // Just inside the range the product is still exact.
        assert_eq!(r.apply(1_000_000_000), 2_000_000_000);
        let big = Requantizer::from_real_multiplier((1u64 << 30) as f64);
        assert_eq!(big.apply(3), i32::MAX);
        assert_eq!(big.apply(-3), i32::MIN);
    }

    /// Below `2^-32` every product rounds to 0, and the shift stops at
    /// 63: past it a release build would shift past 64 bits (`1e-10`
    /// would map an input of 1 to `i32::MIN`).
    #[test]
    fn tiny_multipliers_round_every_input_to_zero() {
        let tiny = [2f64.powi(-32) * 0.99, 2f64.powi(-33), 1e-10, 1e-12, 1e-30, f64::MIN_POSITIVE];
        for m in tiny {
            let r = Requantizer::from_real_multiplier(m);
            assert_eq!(r.mult_shift().1, 63, "multiplier {m}");
            for x in [i32::MIN, -1, 0, 1, 12345, i32::MAX] {
                assert_eq!(r.apply(x), 0, "multiplier {m}, input {x}");
            }
            let reported = r.real_multiplier();
            assert!((2f64.powi(-33)..2f64.powi(-32)).contains(&reported), "{m}: {reported}");
        }
        // Just above the cap the answer is still exact: 2^31 · 2^-32 = 0.5
        // rounds away from zero.
        let r = Requantizer::from_real_multiplier(2f64.powi(-32));
        assert_eq!(r.apply(i32::MIN), -1);
        assert_eq!(r.apply(i32::MAX), 0);
    }

    /// A multiplier that rounds to `2^31` keeps a non-negative shift.
    #[test]
    fn multipliers_just_below_2_pow_31_keep_shift_zero() {
        let r = Requantizer::from_real_multiplier(2147483647.7);
        assert_eq!(r.mult_shift(), (i32::MAX, 0));
        assert_eq!(r.apply(1), i32::MAX);
        assert_eq!(r.apply(-1), -i32::MAX);
    }

    #[test]
    fn real_multiplier_round_trips() {
        for &m in &[0.001, 0.37, 1.0, 3.17, 250.0] {
            let r = Requantizer::from_real_multiplier(m);
            let rel = (r.real_multiplier() - m).abs() / m;
            assert!(rel < 1e-8, "multiplier {m} encoded as {}", r.real_multiplier());
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_multiplier_rejected() {
        Requantizer::from_real_multiplier(0.0);
    }

    proptest! {
        #[test]
        fn prop_matches_float_reference(
            x in -1_000_000i32..1_000_000,
            m in 0.0001f64..100.0,
        ) {
            let r = Requantizer::from_real_multiplier(m);
            let expect = (x as f64 * m).round();
            let got = r.apply(x) as f64;
            // One ULP of slack for the Q31 encoding of m.
            prop_assert!((got - expect).abs() <= 1.0, "x={x} m={m} got={got} expect={expect}");
        }
    }
}
