//! Every tier's requant finish is pinned to the reference.
//!
//! `NativeBackend::finish_plane` runs the reference loop on the scalar and
//! swar tiers and a vector finish on the avx2 tier. This seeded sweep
//! compares each tier the host has with `OutputQuant::apply_value`
//! element by element: biased accumulators at and next to `i32::MIN` and
//! `i32::MAX`, both ReLU settings, out_bits 1–8, multipliers from the
//! capped minimum (shift 63) through 1 up to 2^30 and past it (shift 0),
//! and planes shorter than, equal to and not multiples of the vector
//! finish's 8-output block. A bias that overflows must panic
//! `"accumulator overflow"` on every tier, in a vector block and in a
//! short plane alike. Without AVX2 the avx2 arm is skipped, and the test
//! says so.

use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wp_core::reference::ActEncoding;
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{avx2_available, BackendKind, NativeBackend};
use wp_kernels::OutputQuant;
use wp_quant::Requantizer;

/// A backend per tier the host has; the finish does not use the LUT.
fn backends() -> Vec<NativeBackend> {
    let pool = WeightPool::from_vectors(vec![vec![1.0, -1.0]]);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let mut kinds = vec![BackendKind::Scalar, BackendKind::Swar];
    if avx2_available() {
        kinds.push(BackendKind::Avx2);
    } else {
        println!("AVX2 not available: skipping the avx2 arm");
    }
    kinds.into_iter().map(|k| NativeBackend::new_with(&lut, 8, ActEncoding::Unsigned, k)).collect()
}

/// A biased accumulator: an `i32` edge a quarter of the time, a small
/// value a quarter, anything otherwise.
fn sum(rng: &mut impl Rng) -> i32 {
    const EDGES: [i32; 9] =
        [i32::MIN, i32::MIN + 1, -(1 << 16), -1, 0, 1, 1 << 16, i32::MAX - 1, i32::MAX];
    match rng.gen_range(0..4) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => rng.gen_range(-1000..1000),
        _ => rng.gen(),
    }
}

#[test]
fn every_tier_finishes_like_apply_value() {
    let backends = backends();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1_4154);
    let mut multipliers = vec![
        1e-30,
        2f64.powi(-33),
        2f64.powi(-32),
        1e-9,
        2e-4,
        0.37,
        1.0,
        3.17,
        250.0,
        2f64.powi(30),
        2f64.powi(31) - 1.0,
    ];
    multipliers.extend((0..24).map(|_| 2f64.powf(rng.gen_range(-40.0..31.0))));
    let shifts: Vec<i32> =
        multipliers.iter().map(|&m| Requantizer::from_real_multiplier(m).mult_shift().1).collect();
    assert!(shifts.contains(&63) && shifts.contains(&0), "shifts {shifts:?}");
    let mut cases = 0;
    for &m in &multipliers {
        for relu in [false, true] {
            for out_bits in 1..=8 {
                let oq =
                    OutputQuant { requant: Requantizer::from_real_multiplier(m), relu, out_bits };
                let channels = rng.gen_range(1..=4usize);
                let plane = rng.gen_range(1..=40usize);
                // Accumulator and bias pairs whose sum is the drawn one,
                // or saturates toward it: never an overflowing sum.
                let bias: Vec<i32> = (0..channels)
                    .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(-5000..5000) })
                    .collect();
                let acc: Vec<i32> = (0..channels * plane)
                    .map(|i| sum(&mut rng).saturating_sub(bias[i / plane]))
                    .collect();
                let want: Vec<i32> = acc
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| oq.apply_value(a + bias[i / plane]))
                    .collect();
                for backend in &backends {
                    let mut got = acc.clone();
                    backend.finish_plane(&oq, &mut got, &bias, plane);
                    assert_eq!(
                        got,
                        want,
                        "{} tier: multiplier {m}, relu {relu}, out_bits {out_bits}, plane {plane}",
                        backend.simd().name()
                    );
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, multipliers.len() * 16);
}

#[test]
fn an_overflowing_bias_panics_on_every_tier() {
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(0.5), relu: false, out_bits: 8 };
    // (plane, overflowing position): in a full block, in a ragged
    // plane's overlapped tail, and in a plane shorter than a block.
    for (plane, at) in [(16, 3), (13, 12), (5, 4)] {
        for backend in backends() {
            for (edge, bias) in [(i32::MAX, 1), (i32::MIN, -1)] {
                let mut acc = vec![7; 2 * plane];
                acc[plane + at] = edge;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    backend.finish_plane(&oq, &mut acc, &[0, bias], plane)
                }));
                let payload = outcome.expect_err("an overflowing bias must panic");
                let message = match payload.downcast_ref::<&str>() {
                    Some(text) => text.to_string(),
                    None => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
                };
                assert!(
                    message.contains("accumulator overflow"),
                    "{} tier, plane {plane}: panicked with {message:?}",
                    backend.simd().name()
                );
            }
        }
    }
}
