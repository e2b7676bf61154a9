//! The direct, depthwise and dense kernels' madd route against the
//! reference.
//!
//! On the swar and avx2 tiers a direct, depthwise or dense layer whose
//! plan-time range proof holds (`terms · max|code| · 128 + max|bias| ≤
//! i32::MAX`) multiplies staged `i16` activations with `pmaddwd` into
//! `i32` accumulators; solo and batched calls run the same per-image
//! kernel. Every case runs on the swar tier's SSE2 lanes, the avx2
//! tier's AVX2 lanes (the swar tier again where the CPU lacks AVX2) and
//! the portable lanes other targets build
//! (`NativeBackend::with_portable_lanes`).
//! These tests sweep direct convs over input channels 1..=70 (tap counts
//! on both sides of every multiple of 16), kernels {1, 3, 5}, strides
//! {1, 2} and padding {0, 1, 2}, dense layers over 1..=300 input
//! features and depthwise layers over 1..=40 channels, at every
//! activation bitwidth, both encodings and batches {1, 7, 8, 16}. Every
//! case asserts its route on every build, requires solo and batched
//! accumulators to
//! equal the reference ([`wp_core::reference::direct_conv_acc`]; dense is
//! its 1×1 case and depthwise its per-channel case) and finished planes
//! to equal the scalar tier's.
//!
//! Every plane is in the code range, as every plane a plan stages is:
//! `PreparedNet::run` refuses any other at entry
//! (`tests/batch_parity.rs` pins that check).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wp_core::reference::{direct_conv_acc, ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::kernel::{DenseKernel, DirectConvKernel, DwConvKernel, Kernel, KernelCtx};
use wp_engine::{BackendKind, MacRoute, NativeBackend, Scratch};
use wp_kernels::OutputQuant;
use wp_quant::Requantizer;

/// One layer under test: which op, and its geometry.
#[derive(Debug, Clone, Copy)]
enum Op {
    Direct(PooledConvShape),
    Depthwise(PooledConvShape),
    Dense { in_features: usize, out_features: usize },
}

impl Op {
    /// Input dims `(C, H, W)`.
    fn in_dims(self) -> (usize, usize, usize) {
        match self {
            Op::Direct(s) | Op::Depthwise(s) => (s.in_ch, s.in_h, s.in_w),
            Op::Dense { in_features, .. } => (in_features, 1, 1),
        }
    }

    /// Output channels (one bias each).
    fn out_ch(self) -> usize {
        match self {
            Op::Direct(s) | Op::Depthwise(s) => s.out_ch,
            Op::Dense { out_features, .. } => out_features,
        }
    }

    fn weight_count(self) -> usize {
        match self {
            Op::Direct(s) => s.out_ch * s.in_ch * s.kernel * s.kernel,
            Op::Depthwise(s) => s.in_ch * s.kernel * s.kernel,
            Op::Dense { in_features, out_features } => in_features * out_features,
        }
    }

    /// The op compiled for `backend`'s tier.
    fn kernel(self, weights: &[i8], backend: &NativeBackend, bias: &[i32]) -> Box<dyn Kernel> {
        let w = weights.to_vec();
        match self {
            Op::Direct(s) => Box::new(DirectConvKernel::new(s, w, backend, bias)),
            Op::Depthwise(s) => Box::new(DwConvKernel::new(s, w, backend, bias)),
            Op::Dense { out_features, .. } => {
                Box::new(DenseKernel::new(w, out_features, backend, bias))
            }
        }
    }

    /// Reference accumulators for one plane.
    fn reference(self, codes: &[i32], weights: &[i8]) -> Vec<i32> {
        match self {
            Op::Direct(s) => direct_conv_acc(codes, &s, weights),
            Op::Dense { in_features, out_features } => {
                let s = PooledConvShape {
                    in_ch: in_features,
                    out_ch: out_features,
                    kernel: 1,
                    stride: 1,
                    pad: 0,
                    in_h: 1,
                    in_w: 1,
                };
                direct_conv_acc(codes, &s, weights)
            }
            Op::Depthwise(s) => {
                // One single-channel direct conv per channel.
                let one = PooledConvShape { in_ch: 1, out_ch: 1, ..s };
                let (plane, kk) = (s.in_h * s.in_w, s.kernel * s.kernel);
                (0..s.in_ch)
                    .flat_map(|c| {
                        direct_conv_acc(
                            &codes[c * plane..][..plane],
                            &one,
                            &weights[c * kk..][..kk],
                        )
                    })
                    .collect()
            }
        }
    }
}

/// A backend at `act_bits` on `kind` (its LUT is irrelevant to these ops).
fn backend(kind: BackendKind, act_bits: u8, encoding: ActEncoding) -> NativeBackend {
    let pool = WeightPool::from_vectors(vec![vec![0.5; 8]]);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    NativeBackend::new_with(&lut, act_bits, encoding, kind)
}

/// Every build of the madd kernels: the swar tier's, the avx2 tier's and
/// the portable lanes.
fn madd_backends(act_bits: u8, encoding: ActEncoding) -> [NativeBackend; 3] {
    let swar = backend(BackendKind::Swar, act_bits, encoding);
    let portable = swar.clone().with_portable_lanes();
    [swar, backend(BackendKind::Avx2, act_bits, encoding), portable]
}

/// Finishing with this leaves every test accumulator unchanged (`×1`, no
/// ReLU, a 31-bit clamp far past the sums these shapes reach), so a
/// batched call's finished planes are its accumulators.
fn identity_finish() -> OutputQuant {
    OutputQuant { requant: Requantizer::from_real_multiplier(1.0), relu: false, out_bits: 31 }
}

/// Runs one case: on every build the kernel must take the madd route and
/// reproduce the reference accumulators solo and batched, and its
/// finished planes must equal the scalar tier's, whose kernel takes the
/// exact route.
fn check_case(
    op: Op,
    encoding: ActEncoding,
    act_bits: u8,
    weights: &[i8],
    planes: &[Vec<i32>],
) -> Result<(), String> {
    let scalar_backend = backend(BackendKind::Scalar, act_bits, encoding);
    let bias = vec![0i32; op.out_ch()];
    let scalar = op.kernel(weights, &scalar_backend, &bias);
    if scalar.mac_route() != Some(MacRoute::Exact) {
        return Err(format!("{op:?}: scalar route {:?}", scalar.mac_route()));
    }
    let want: Vec<Vec<i32>> = planes.iter().map(|p| op.reference(p, weights)).collect();
    let identity = identity_finish();
    let ctx = |b, oq| KernelCtx { backend: b, in_dims: op.in_dims(), bias: &bias, oq, act_bits };
    // A requant that spreads the outputs over the whole code range.
    let peak = want.iter().flatten().map(|&a| i64::from(a).abs()).max().unwrap_or(0).max(1);
    let oq = OutputQuant {
        requant: Requantizer::from_real_multiplier(256.0 / peak as f64),
        relu: encoding == ActEncoding::Unsigned,
        out_bits: act_bits,
    };
    let mut scratch = Scratch::new();
    let expect = scalar.run_batch(&ctx(&scalar_backend, &oq), planes.to_vec(), &mut scratch);

    for (build, fast_backend) in madd_backends(act_bits, encoding).iter().enumerate() {
        let case = format!("{op:?} {encoding:?} M={act_bits} batch {} build {build}", planes.len());
        let fast = op.kernel(weights, fast_backend, &bias);
        if fast.mac_route() != Some(MacRoute::Madd) {
            return Err(format!("{case}: route {:?}, expected Madd", fast.mac_route()));
        }
        for (p, w) in planes.iter().zip(&want) {
            let (acc, _) = fast.accumulate(&ctx(fast_backend, &identity), p, &mut scratch).unwrap();
            if &acc != w {
                return Err(format!("{case}: solo accumulators differ from the reference"));
            }
        }
        let batched = fast.run_batch(&ctx(fast_backend, &identity), planes.to_vec(), &mut scratch);
        if batched != want {
            return Err(format!("{case}: batched accumulators differ from the reference"));
        }
        if fast.run_batch(&ctx(fast_backend, &oq), planes.to_vec(), &mut scratch) != expect {
            return Err(format!("{case}: batched planes differ from the scalar tier"));
        }
        for (p, e) in planes.iter().zip(&expect) {
            if &fast.run_solo(&ctx(fast_backend, &oq), p, &mut scratch) != e {
                return Err(format!("{case}: solo planes differ from the scalar tier"));
            }
        }
    }
    Ok(())
}

/// Seeded int8 weights (the full `-128..=127` range) and `batch` planes of
/// in-range codes for `op`.
fn fabricate(
    op: Op,
    encoding: ActEncoding,
    act_bits: u8,
    batch: usize,
    seed: u64,
) -> (Vec<i8>, Vec<Vec<i32>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let weights = (0..op.weight_count()).map(|_| rng.gen_range(-128i32..=127) as i8).collect();
    let (lo, hi) = encoding.code_range(act_bits);
    let (c, h, w) = op.in_dims();
    let planes = (0..batch).map(|_| (0..c * h * w).map(|_| rng.gen_range(lo..=hi)).collect());
    (weights, planes.collect())
}

fn encoding(signed: bool) -> ActEncoding {
    if signed {
        ActEncoding::SignedTwosComplement
    } else {
        ActEncoding::Unsigned
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn direct_conv_madd_matches_the_reference(
        seed in 0u64..1_000_000,
        in_ch in 1usize..=70,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=2,
        pad in 0usize..=2,
        out_ch in prop::sample::select(vec![1usize, 2, 3, 8, 9]),
        extra in 0usize..=3,
        act_bits in 1u8..=8,
        signed in prop::sample::select(vec![false, true]),
        batch in prop::sample::select(vec![1usize, 7, 8, 16]),
    ) {
        // The smallest input the kernel fits in, plus a few pixels.
        let hw = kernel.saturating_sub(2 * pad).max(1) + extra;
        let op = Op::Direct(PooledConvShape {
            in_ch, out_ch, kernel, stride, pad, in_h: hw, in_w: hw + 1,
        });
        let enc = encoding(signed);
        let (weights, planes) = fabricate(op, enc, act_bits, batch, seed);
        let result = check_case(op, enc, act_bits, &weights, &planes);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

/// Every input channel count 1..=70 at kernels {1, 3, 5}: tap counts on
/// both sides of each multiple of 16 (15/16/17, … 63/64/65 at kernel 1),
/// with stride, padding, bitwidth, encoding and batch cycled.
#[test]
fn direct_conv_madd_covers_every_tap_count_edge() {
    let mut case = 0usize;
    for in_ch in 1..=70 {
        for kernel in [1usize, 3, 5] {
            case += 1;
            let (stride, pad) = (1 + case % 2, case % 3);
            let hw = kernel.saturating_sub(2 * pad).max(1) + case % 2;
            let op = Op::Direct(PooledConvShape {
                in_ch,
                out_ch: 1 + case % 3,
                kernel,
                stride,
                pad,
                in_h: hw,
                in_w: hw + 1,
            });
            let act_bits = 1 + (case % 8) as u8;
            let enc = encoding(case % 2 == 1);
            let batch = [1, 7, 8, 16][case % 4];
            let (weights, planes) = fabricate(op, enc, act_bits, batch, case as u64);
            check_case(op, enc, act_bits, &weights, &planes).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Dense layers over 1..=300 input features.
#[test]
fn dense_madd_matches_the_reference() {
    for in_features in 1..=300usize {
        let op = Op::Dense { in_features, out_features: 1 + in_features % 11 };
        let act_bits = 1 + (in_features % 8) as u8;
        let enc = encoding(in_features.is_multiple_of(2));
        let batch = [1, 7, 8, 16][in_features % 4];
        let (weights, planes) = fabricate(op, enc, act_bits, batch, in_features as u64);
        check_case(op, enc, act_bits, &weights, &planes).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Depthwise layers over 1..=40 channels (both sides of the 16-channel
/// blocks), with kernels {1, 3, 5} — odd tap counts leave a tap unpaired.
#[test]
fn depthwise_madd_matches_the_reference() {
    for channels in 1..=40usize {
        for kernel in [1usize, 3, 5] {
            let case = channels * 3 + kernel;
            let (stride, pad) = (1 + case % 2, case % 3);
            let hw = kernel.saturating_sub(2 * pad).max(1) + case % 3;
            let op = Op::Depthwise(PooledConvShape {
                in_ch: channels,
                out_ch: channels,
                kernel,
                stride,
                pad,
                in_h: hw,
                in_w: hw + 2,
            });
            let act_bits = 1 + (case % 8) as u8;
            let enc = encoding(case.is_multiple_of(2));
            let batch = [1, 7, 8, 16][case % 4];
            let (weights, planes) = fabricate(op, enc, act_bits, batch, case as u64);
            check_case(op, enc, act_bits, &weights, &planes).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
