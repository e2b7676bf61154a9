//! The pooled conv's two scatter routes against the reference.
//!
//! [`NativeBackend::prepare_indices`] picks the register-resident route
//! (`vpshufb` table pairs, avx2 tier) when the pool holds at most 16
//! vectors and the plan-time range proof fits partials in `i16` and
//! accumulators in `i32`, and the memory gather otherwise. These tests
//! sweep pool sizes across the 16-vector edge, LUT bitwidths across the
//! `i16` edge, both encodings, every activation bitwidth, filter counts
//! around the 32-filter chunk, strides, padding and batch sizes. Every
//! case asserts the route it expects — so the fallback side is shown to
//! run — and requires solo and batched outputs to equal
//! [`wp_core::reference::bitserial_conv_acc`].

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wp_core::reference::{bitserial_conv_acc, ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder};
use wp_engine::backend::ScatterRoute;
use wp_engine::{avx2_available, BackendKind, NativeBackend};

/// A random LUT whose largest `|code|` is exactly `2^(bits−1)`, so the
/// `i16` range proof sits where the case puts it. Pattern 0 (no bit set)
/// codes 0, as in every table built from a pool: the reference sums a
/// padding tap through it, while the engine skips the tap.
fn extreme_lut(rng: &mut rand::rngs::StdRng, group: usize, pool: usize, bits: u8) -> LookupTable {
    let (lo, hi) = (-(1i32 << (bits - 1)), (1i32 << (bits - 1)) - 1);
    // Input-oriented order: pattern `m`'s block is `codes[m * pool..][..pool]`.
    let mut codes: Vec<i32> = (0..pool << group).map(|_| rng.gen_range(lo..=hi)).collect();
    codes[..pool].fill(0);
    let at = rng.gen_range(pool..codes.len());
    codes[at] = lo;
    LookupTable::from_parts(group, pool, bits, 0.01, LutOrder::InputOriented, codes)
        .expect("valid lut parts")
}

/// The route `prepare_indices` must choose for this case.
fn expected_route(lut: &LookupTable, act_bits: u8, taps: usize) -> ScatterRoute {
    let max_abs = lut.codes().iter().map(|&c| i64::from(c).abs()).max().unwrap_or(0);
    let max_partial = max_abs * ((1i64 << act_bits) - 1);
    if avx2_available()
        && lut.pool_size() <= 16
        && max_partial <= i64::from(i16::MAX)
        && taps as i64 * max_partial <= i64::from(i32::MAX)
    {
        ScatterRoute::Registers
    } else {
        ScatterRoute::Gather
    }
}

/// Runs one case solo and batched, asserting its route and that every
/// output equals the reference.
#[allow(clippy::too_many_arguments)]
fn check_case(
    seed: u64,
    group: usize,
    pool: usize,
    lut_bits: u8,
    encoding: ActEncoding,
    act_bits: u8,
    shape: PooledConvShape,
    batch: usize,
) -> Result<ScatterRoute, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lut = extreme_lut(&mut rng, group, pool, lut_bits);
    let indices: Vec<u8> =
        (0..shape.index_count(group)).map(|_| rng.gen_range(0..pool) as u8).collect();
    let (lo, hi) = encoding.code_range(act_bits);
    let images: Vec<Vec<i32>> = (0..batch)
        .map(|_| {
            (0..shape.in_ch * shape.in_h * shape.in_w).map(|_| rng.gen_range(lo..=hi)).collect()
        })
        .collect();
    let backend = NativeBackend::new_with(&lut, act_bits, encoding, BackendKind::Avx2);
    let prep = backend.prepare_indices(&shape, &indices);
    let taps = shape.groups(group) * shape.kernel * shape.kernel;
    let want_route = expected_route(&lut, act_bits, taps);
    let case =
        format!("{shape:?} pool {pool} lut {lut_bits}b {encoding:?} M={act_bits} batch {batch}");
    if prep.route() != want_route {
        return Err(format!("{case}: route {:?}, expected {want_route:?}", prep.route()));
    }
    let expect: Vec<Vec<i32>> = images
        .iter()
        .map(|img| bitserial_conv_acc(img, &shape, &indices, &lut, act_bits, encoding))
        .collect();
    for (img, want) in images.iter().zip(&expect) {
        if &backend.conv_pooled_prepared(img, &shape, &prep) != want {
            return Err(format!("{case}: solo output differs from the reference"));
        }
    }
    if backend.conv_pooled_prepared_batch(&images, &shape, &prep) != expect {
        return Err(format!("{case}: batched output differs from the reference"));
    }
    Ok(want_route)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn both_routes_match_the_reference(
        seed in 0u64..1_000_000,
        pool in 2usize..=20,
        lut_bits in prop::sample::select(vec![2u8, 4, 8, 9, 12]),
        signed in prop::sample::select(vec![false, true]),
        act_bits in 1u8..=8,
        out_ch in prop::sample::select(vec![1usize, 31, 32, 33, 70]),
        stride in 1usize..=2,
        pad in 0usize..=1,
        batch in prop::sample::select(vec![1usize, 7, 8, 16]),
        group in prop::sample::select(vec![4usize, 8]),
        groups in 1usize..=2,
        hw in 3usize..=5,
    ) {
        let encoding =
            if signed { ActEncoding::SignedTwosComplement } else { ActEncoding::Unsigned };
        let shape = PooledConvShape {
            in_ch: group * groups,
            out_ch,
            kernel: 3,
            stride,
            pad,
            in_h: hw,
            in_w: hw + 1,
        };
        let result = check_case(seed, group, pool, lut_bits, encoding, act_bits, shape, batch);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// Both sides of each plan-time edge — 16 vs 17 pool vectors, an 8-bit
/// vs a 9-bit LUT at 8-bit activations, a 9-bit LUT at 7 vs 8 bits, a
/// 12-bit LUT at 4 vs 5 bits — route as the proof says and match the reference, so the fallback is
/// exercised on every host (and the register route wherever AVX2 is).
#[test]
fn routes_switch_exactly_at_the_plan_time_edges() {
    let shape =
        PooledConvShape { in_ch: 16, out_ch: 70, kernel: 3, stride: 1, pad: 1, in_h: 5, in_w: 4 };
    let cases = [
        // (pool, lut_bits, act_bits, register route expected with AVX2)
        (16, 8, 8, true),
        (17, 8, 8, false),
        (8, 9, 8, false),
        (8, 9, 7, true),
        (16, 12, 4, true),
        (16, 12, 5, false),
        (2, 2, 1, true),
    ];
    let mut seen = Vec::new();
    for (i, &(pool, lut_bits, act_bits, registers)) in cases.iter().enumerate() {
        for encoding in [ActEncoding::Unsigned, ActEncoding::SignedTwosComplement] {
            let route = check_case(i as u64, 8, pool, lut_bits, encoding, act_bits, shape, 9)
                .unwrap_or_else(|e| panic!("{e}"));
            let want = if registers && avx2_available() {
                ScatterRoute::Registers
            } else {
                ScatterRoute::Gather
            };
            assert_eq!(route, want, "pool {pool}, {lut_bits}-bit lut, M={act_bits}");
            seen.push(route);
        }
    }
    assert!(seen.contains(&ScatterRoute::Gather));
    if avx2_available() {
        assert!(seen.contains(&ScatterRoute::Registers));
    }
}
