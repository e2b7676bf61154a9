//! The bit-plane popcount kernels — solo and batched — are bit-identical
//! to the scalar reference at every bitwidth they route for.
//!
//! Three levels of pinning:
//!
//! * **Kernels** — property tests fuzz dense and direct-conv shapes,
//!   activation bitwidths `1..=4`, both encodings and batch sizes
//!   {1, 2, 7, 16}, and require `swar::dense_acc` / `swar::conv_direct`
//!   (solo) and their `_batch` forms to reproduce the scalar reference
//!   kernels exactly.
//! * **Networks** — a direct-conv + dense network at popcount bitwidths
//!   runs identically across the scalar/swar/avx2 tiers, batched and
//!   solo, with the popcount threshold at its default, disabled
//!   (`with_popcount_max_bits(0)`) and widened — routing must never
//!   change the integers (the threshold routes the swar tier only; the
//!   avx2 tier runs its madd kernels at every setting).
//! * **Blocked dense** — a network whose head is large enough for the
//!   blocked dense tile path (`in × out ≥ 16K` weights) at a batch deep
//!   enough to engage it (≥ 2 full tiles) matches solo execution.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{avx2_available, backend, swar, BackendKind, EngineOptions, PreparedNet, Scratch};

fn codes(rng: &mut impl Rng, n: usize, enc: ActEncoding, bits: u8) -> Vec<i32> {
    let (lo, hi) = enc.code_range(bits);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_popcount_solo_and_batched_match_scalar(
        out_features in 1usize..12,
        in_features in 1usize..48,
        batch_n in prop::sample::select(vec![1usize, 2, 7, 16]),
        bits in 1u8..=swar::POPCOUNT_MAX_BITS,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let enc = if signed { ActEncoding::SignedTwosComplement } else { ActEncoding::Unsigned };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<i8> =
            (0..out_features * in_features).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let packed = swar::PackedWeights::pack(&weights, out_features, in_features);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_features, enc, bits)).collect();
        let scalar: Vec<Vec<i32>> =
            batch.iter().map(|c| backend::dense_acc(c, &weights, out_features)).collect();
        for (c, want) in batch.iter().zip(&scalar) {
            prop_assert_eq!(&swar::dense_acc(c, &packed), want, "solo");
        }
        prop_assert_eq!(&swar::dense_acc_batch(&batch, &packed), &scalar, "batched");
    }

    #[test]
    fn conv_popcount_solo_and_batched_match_scalar(
        in_ch in 1usize..4,
        out_ch in 1usize..5,
        k_idx in 0usize..2,
        stride in 1usize..3,
        pad in 0usize..2,
        in_h in 3usize..8,
        in_w in 3usize..8,
        batch_n in prop::sample::select(vec![1usize, 2, 7, 16]),
        bits in 1u8..=swar::POPCOUNT_MAX_BITS,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let kernel = [1usize, 3][k_idx];
        prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let shape = PooledConvShape { in_ch, out_ch, kernel, stride, pad, in_h, in_w };
        let enc = if signed { ActEncoding::SignedTwosComplement } else { ActEncoding::Unsigned };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<i8> = (0..out_ch * in_ch * kernel * kernel)
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect();
        let packed = swar::PackedWeights::pack(&weights, out_ch, in_ch * kernel * kernel);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_ch * in_h * in_w, enc, bits)).collect();
        let scalar: Vec<Vec<i32>> =
            batch.iter().map(|c| backend::conv_direct(c, &shape, &weights)).collect();
        for (c, want) in batch.iter().zip(&scalar) {
            prop_assert_eq!(&swar::conv_direct(c, &shape, &packed), want, "solo");
        }
        prop_assert_eq!(&swar::conv_direct_batch(&batch, &shape, &packed), &scalar, "batched");
    }
}

/// A network that exercises both popcount-routable kernels (direct conv
/// stem, dense head) plus a pass-through in between.
fn popcount_bundle(head_features: usize) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x90C);
    let vectors: Vec<Vec<f32>> =
        (0..4).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let spec = NetSpec {
        name: "popcount-parity".into(),
        input: (3, 8, 8),
        classes: 5,
        layers: vec![
            LayerSpec::Conv(ConvSpec {
                in_ch: 3,
                out_ch: head_features,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: false,
            }),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense {
                in_features: head_features,
                out_features: head_features,
                compressed: false,
            },
            LayerSpec::Dense { in_features: head_features, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> =
        (0..head_features * 3 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    DeployBundle {
        spec,
        pool,
        lut,
        convs: vec![ConvPayload::Direct { weights: direct, scale: 0.01 }],
        act_bits: 8,
    }
}

/// Popcount routing (on, off, widened) never changes a network's outputs,
/// and every tier agrees with the scalar reference, solo and batched.
#[test]
fn network_agrees_across_tiers_and_popcount_thresholds() {
    let bundle = popcount_bundle(16);
    for bits in [1u8, 2, 4] {
        let opts =
            |backend: BackendKind| EngineOptions::new().with_act_bits(bits).with_backend(backend);
        let scalar = PreparedNet::from_bundle(&bundle, &opts(BackendKind::Scalar));
        let inputs = scalar.fabricate_inputs(16, 0x5EED + bits as u64);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let want: Vec<Vec<i32>> = inputs.iter().map(|x| scalar.run_one(x)).collect();
        let mut kinds = vec![BackendKind::Swar];
        if avx2_available() {
            kinds.push(BackendKind::Avx2);
        }
        for kind in kinds {
            for limit in [None, Some(0u8), Some(swar::POPCOUNT_MAX_BITS), Some(8)] {
                let mut o = opts(kind);
                if let Some(limit) = limit {
                    o = o.with_popcount_max_bits(limit);
                }
                let net = PreparedNet::from_bundle(&bundle, &o);
                for (input, want) in inputs.iter().zip(&want) {
                    assert_eq!(
                        &net.run_one(input),
                        want,
                        "solo bits={bits} kind={kind:?} limit={limit:?}"
                    );
                }
                for batch in [1usize, 2, 7, 16] {
                    assert_eq!(
                        net.run(&refs[..batch], &mut Scratch::new()),
                        want[..batch],
                        "batch={batch} bits={bits} kind={kind:?} limit={limit:?}"
                    );
                }
            }
        }
    }
}

/// A head big enough for the blocked dense tile path (128×128 = 16K
/// weights) at a batch with ≥ 2 full tiles matches solo execution.
#[test]
fn blocked_dense_network_matches_solo() {
    let bundle = popcount_bundle(128);
    for bits in [2u8, 8] {
        let opts = EngineOptions::new().with_act_bits(bits).with_backend(BackendKind::Swar);
        let net = PreparedNet::from_bundle(&bundle, &opts);
        let inputs = net.fabricate_inputs(17, 0xB10C);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let want: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        assert_eq!(net.run(&refs, &mut Scratch::new()), want, "bits={bits}");
    }
}
