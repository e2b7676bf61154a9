//! Bit-exactness proofs for the native backend.
//!
//! The engine's claim is not "approximately the same" — it is that the
//! restructured host-speed loops compute *the same integers* as the
//! reference semantics in `wp_core::reference` (and therefore as the
//! instrumented MCU kernels, which are themselves pinned to the
//! reference). These tests sweep activation bitwidths 1..=8, both bit
//! encodings, both LUT memory orders and a set of randomized layer shapes,
//! asserting accumulator equality entry by entry.

use rand::{Rng, SeedableRng};
use wp_core::reference::{bitserial_conv_acc, direct_conv_acc, ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::kernel::{AvgPoolKernel, GlobalAvgPoolKernel, Kernel, KernelCtx, MaxPoolKernel};
use wp_engine::{backend, BackendKind, NativeBackend, Scratch};
use wp_kernels::{conv_bitserial, BitSerialOptions, OutputQuant, PrecomputeMode};
use wp_mcu::{Mcu, McuSpec};
use wp_quant::Requantizer;

fn random_pool(rng: &mut rand::rngs::StdRng, pool_size: usize, g: usize) -> WeightPool {
    let vectors: Vec<Vec<f32>> =
        (0..pool_size).map(|_| (0..g).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    WeightPool::from_vectors(vectors)
}

fn random_codes(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    act_bits: u8,
    encoding: ActEncoding,
) -> Vec<i32> {
    let (lo, hi) = encoding.code_range(act_bits);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// The acceptance sweep: randomized shapes × act_bits 1..=8 × both
/// encodings × both LUT orders, native vs reference, entry by entry.
#[test]
fn native_matches_reference_across_bits_encodings_and_orders() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB17);
    // (in_ch, out_ch, kernel, stride, pad, hw, pool_size): chosen to cover
    // 1x1 and 3x3 kernels, strides, padding, filters<pool (memoized path)
    // and filters>pool (precompute-all path).
    let shapes = [
        (8, 4, 1, 1, 0, 5, 16),  // 1x1, filters < pool
        (16, 12, 3, 1, 1, 5, 8), // 3x3 padded, filters > pool
        (8, 6, 3, 2, 1, 7, 4),   // strided, filters > pool
        (24, 5, 3, 1, 0, 4, 32), // unpadded, filters < pool
    ];
    for &(in_ch, out_ch, kernel, stride, pad, hw, pool_size) in &shapes {
        let shape = PooledConvShape { in_ch, out_ch, kernel, stride, pad, in_h: hw, in_w: hw };
        let pool = random_pool(&mut rng, pool_size, 8);
        let indices: Vec<u8> =
            (0..shape.index_count(8)).map(|_| rng.gen_range(0..pool_size) as u8).collect();
        for order in [LutOrder::InputOriented, LutOrder::WeightOriented] {
            let lut = LookupTable::build(&pool, 8, order);
            for encoding in [ActEncoding::Unsigned, ActEncoding::SignedTwosComplement] {
                for act_bits in 1..=8u8 {
                    let codes = random_codes(&mut rng, in_ch * hw * hw, act_bits, encoding);
                    let expect =
                        bitserial_conv_acc(&codes, &shape, &indices, &lut, act_bits, encoding);
                    let backend = NativeBackend::new(&lut, act_bits, encoding);
                    let got = backend.conv_pooled(&codes, &shape, &indices);
                    assert_eq!(
                        got, expect,
                        "shape {shape:?}, order {order:?}, {encoding:?}, {act_bits} bits"
                    );
                }
            }
        }
    }
}

/// Native parity holds at every LUT entry bitwidth the paper uses.
#[test]
fn native_matches_reference_across_lut_bitwidths() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x107);
    let shape =
        PooledConvShape { in_ch: 16, out_ch: 6, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 4 };
    let pool = random_pool(&mut rng, 8, 8);
    let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| rng.gen_range(0..8) as u8).collect();
    for lut_bits in [4u8, 8, 16] {
        let lut = LookupTable::build(&pool, lut_bits, LutOrder::InputOriented);
        let codes = random_codes(&mut rng, 16 * 16, 8, ActEncoding::Unsigned);
        let expect = bitserial_conv_acc(&codes, &shape, &indices, &lut, 8, ActEncoding::Unsigned);
        let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
        assert_eq!(backend.conv_pooled(&codes, &shape, &indices), expect, "{lut_bits}-bit LUT");
    }
}

/// Full-layer parity against the instrumented kernel: bias add +
/// requantization + fused ReLU must come out code-for-code identical.
#[test]
fn full_layer_matches_instrumented_kernel() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA57);
    let shape =
        PooledConvShape { in_ch: 16, out_ch: 10, kernel: 3, stride: 1, pad: 1, in_h: 5, in_w: 5 };
    let pool = random_pool(&mut rng, 8, 8);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| rng.gen_range(0..8) as u8).collect();
    let codes = random_codes(&mut rng, 16 * 25, 8, ActEncoding::Unsigned);
    let bias: Vec<i32> = (0..10).map(|_| rng.gen_range(-500..500)).collect();
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(0.031), relu: true, out_bits: 8 };

    // Instrumented path (charges cycles; we only keep the codes).
    let mut mcu = Mcu::new(McuSpec::mc_large());
    let opts =
        BitSerialOptions { precompute: PrecomputeMode::Auto, ..BitSerialOptions::paper_default(8) };
    let expect = conv_bitserial(&mut mcu, &codes, &shape, &indices, &lut, &bias, &oq, &opts);

    // Native path: raw accumulators + the same OutputQuant arithmetic.
    let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
    let acc = backend.conv_pooled(&codes, &shape, &indices);
    let plane = 25;
    let got: Vec<i32> = acc
        .chunks(plane)
        .zip(&bias)
        .flat_map(|(chunk, &b)| {
            chunk.iter().map(move |&a| oq.apply_value(i32::try_from(a as i64 + b as i64).unwrap()))
        })
        .collect();
    assert_eq!(got, expect);
}

/// Direct int8 conv and dense native paths match the reference / CMSIS
/// kernels.
#[test]
fn direct_and_dense_match_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1);
    let shape =
        PooledConvShape { in_ch: 3, out_ch: 5, kernel: 3, stride: 1, pad: 1, in_h: 6, in_w: 6 };
    let codes: Vec<i32> = (0..3 * 36).map(|_| rng.gen_range(0..256)).collect();
    let weights: Vec<i8> = (0..5 * 3 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    assert_eq!(
        backend::conv_direct(&codes, &shape, &weights),
        direct_conv_acc(&codes, &shape, &weights)
    );

    // Dense vs the CMSIS kernel (which folds bias in before requant).
    let dense_in: Vec<i32> = (0..20).map(|_| rng.gen_range(0..256)).collect();
    let dense_w: Vec<i8> = (0..20 * 4).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let bias: Vec<i32> = (0..4).map(|_| rng.gen_range(-100..100)).collect();
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(0.01), relu: true, out_bits: 8 };
    let mut mcu = Mcu::new(McuSpec::mc_large());
    let expect = wp_kernels::cmsis::dense_cmsis(&mut mcu, &dense_in, &dense_w, &bias, 4, &oq);
    let got: Vec<i32> = backend::dense_acc(&dense_in, &dense_w, 4)
        .iter()
        .zip(&bias)
        .map(|(&a, &b)| oq.apply_value(i32::try_from(a as i64 + b as i64).unwrap()))
        .collect();
    assert_eq!(got, expect);
}

/// One pooling op of the sweep below.
#[derive(Debug, Clone, Copy)]
enum Pool {
    Max(usize),
    Avg(usize),
    Global,
}

impl Pool {
    /// The layer kernel a plan compiles for this op.
    fn kernel(self) -> Box<dyn Kernel> {
        match self {
            Pool::Max(size) => Box::new(MaxPoolKernel { size }),
            Pool::Avg(size) => Box::new(AvgPoolKernel { size }),
            Pool::Global => Box::new(GlobalAvgPoolKernel),
        }
    }

    /// The engine's free function for this op.
    fn native(self, codes: &[i32], (c, h, w): (usize, usize, usize)) -> Vec<i32> {
        match self {
            Pool::Max(size) => backend::maxpool(codes, c, h, w, size),
            Pool::Avg(size) => backend::avgpool(codes, c, h, w, size),
            Pool::Global => backend::global_avgpool(codes, c, h, w),
        }
    }

    /// The CMSIS kernel for this op.
    fn cmsis(self, mcu: &mut Mcu, codes: &[i32], (c, h, w): (usize, usize, usize)) -> Vec<i32> {
        match self {
            Pool::Max(size) => wp_kernels::cmsis::maxpool(mcu, codes, c, h, w, size),
            Pool::Avg(size) => wp_kernels::cmsis::avgpool(mcu, codes, c, h, w, size),
            Pool::Global => wp_kernels::cmsis::global_avgpool(mcu, codes, c, h, w),
        }
    }
}

/// Pooling and residual helpers match the CMSIS kernels value-for-value: a
/// seeded sweep of max, average and global average pooling over channels
/// 1–8, H and W 1–13 (sizes the window does not divide included) and
/// windows 1–4, with unsigned and signed (negative) codes. Each case also
/// runs the layer kernel on every tier, solo and over a batch of nine
/// images (a full tile of eight and a tail of one).
#[test]
fn pooling_ops_match_cmsis() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9001);
    let mut mcu = Mcu::new(McuSpec::mc_large());
    let lut = LookupTable::build(&random_pool(&mut rng, 2, 8), 8, LutOrder::InputOriented);
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(1.0), relu: false, out_bits: 8 };
    let mut case = 0usize;
    for h in 1..=13usize {
        for w in 1..=13usize {
            let windows = 1..=h.min(w).min(4);
            let ops = windows.flat_map(|size| [Pool::Max(size), Pool::Avg(size)]);
            for op in ops.chain([Pool::Global]) {
                case += 1;
                let dims = (1 + case % 8, h, w);
                let encoding = [ActEncoding::Unsigned, ActEncoding::SignedTwosComplement][case % 2];
                let images: Vec<Vec<i32>> =
                    (0..9).map(|_| random_codes(&mut rng, dims.0 * h * w, 8, encoding)).collect();
                let want: Vec<Vec<i32>> =
                    images.iter().map(|x| op.cmsis(&mut mcu, x, dims)).collect();
                let label = format!("{op:?} over {dims:?}, {encoding:?}");
                for (x, want) in images.iter().zip(&want) {
                    assert_eq!(&op.native(x, dims), want, "{label}");
                }
                let kernel = op.kernel();
                for kind in [BackendKind::Scalar, BackendKind::Swar, BackendKind::Avx2] {
                    let tier = NativeBackend::new_with(&lut, 8, encoding, kind);
                    let ctx = KernelCtx {
                        backend: &tier,
                        in_dims: dims,
                        bias: &[],
                        oq: &oq,
                        act_bits: 8,
                    };
                    let mut scratch = Scratch::new();
                    for (x, want) in images.iter().zip(&want) {
                        assert_eq!(&kernel.run_solo(&ctx, x, &mut scratch), want, "{label} {kind}");
                    }
                    let batched = kernel.run_batch(&ctx, images.clone(), &mut scratch);
                    assert_eq!(batched, want, "{label} {kind}: batched");
                }
            }
        }
    }

    let codes: Vec<i32> = (0..4 * 6 * 6).map(|_| rng.gen_range(0..256)).collect();
    let other: Vec<i32> = (0..4 * 6 * 6).map(|_| rng.gen_range(0..256)).collect();
    assert_eq!(
        backend::residual_add(&codes, &other, 8),
        wp_kernels::cmsis::residual_add(&mut mcu, &codes, &other, 8)
    );
}

/// Depthwise native path matches the CMSIS depthwise kernel.
#[test]
fn depthwise_matches_cmsis() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD3);
    let shape =
        PooledConvShape { in_ch: 6, out_ch: 6, kernel: 3, stride: 1, pad: 1, in_h: 5, in_w: 5 };
    let codes: Vec<i32> = (0..6 * 25).map(|_| rng.gen_range(0..256)).collect();
    let weights: Vec<i8> = (0..6 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let bias = vec![0i32; 6];
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(0.005), relu: true, out_bits: 8 };
    let mut mcu = Mcu::new(McuSpec::mc_large());
    let expect = wp_kernels::cmsis::dwconv_cmsis(&mut mcu, &codes, &shape, &weights, &bias, &oq);
    let got: Vec<i32> =
        backend::dwconv_acc(&codes, &shape, &weights).iter().map(|&a| oq.apply_value(a)).collect();
    assert_eq!(got, expect);
}
