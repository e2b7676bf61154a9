//! Cross-backend bit-identity: every kernel tier computes the same
//! integers.
//!
//! The backend-selection API promises that `BackendKind` only changes
//! *how fast* a plan runs, never *what* it computes: the swar tier's
//! bit-matrix fills, batched pooled-gather tiles with fused bias+requant
//! write-out, batched pooling and SSE2 madd kernels — and the avx2 tier's
//! register-resident scatter and AVX2 madd kernels — must reproduce the
//! scalar reference loops exactly. These tests pin that promise end-to-end on whole
//! networks covering every layer kind, across activation bitwidths
//! 1..=8 × both encodings × both LUT memory orders × fuzzed shapes ×
//! batch sizes {1, 2, 7, 16}, solo and batched.
//!
//! `BackendKind::Avx2` is swept unconditionally: on machines without
//! AVX2 it resolves to the swar tier (re-testing it is harmless), on
//! machines with it the `std::arch` path is exercised for real.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::reference::ActEncoding;
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{BackendKind, EngineOptions, PreparedNet, ResolvedBackend, Scratch};

/// Every tier the API exposes explicitly (Auto is resolution, not a
/// distinct arithmetic, and is covered by `auto_resolves_away_from_scalar`).
const TIERS: [BackendKind; 3] = [BackendKind::Scalar, BackendKind::Swar, BackendKind::Avx2];

/// A bundle visiting every kernel: direct conv, pooled conv, max pool,
/// depthwise, residual add, avg pool, global avg pool, dense — with the
/// spatial size and channel width under the caller's control so shapes
/// can be fuzzed.
fn all_kinds_bundle(seed: u64, order: LutOrder, ch: usize, hw: usize) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vectors: Vec<Vec<f32>> =
        (0..16).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, order);
    let conv = |in_ch: usize, out_ch: usize, compressed: bool| {
        LayerSpec::Conv(ConvSpec { in_ch, out_ch, kernel: 3, stride: 1, pad: 1, compressed })
    };
    let spec = NetSpec {
        name: "backend-parity".into(),
        input: (ch, hw, hw),
        classes: 5,
        layers: vec![
            conv(ch, 8, false), // direct conv
            conv(8, 16, true),  // pooled conv
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::DwConv { channels: 16, kernel: 3, stride: 1, pad: 1 },
            LayerSpec::ResidualAdd,
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 16, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> = (0..8 * ch * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let indices: Vec<u8> = (0..16 * 9).map(|_| rng.gen_range(0..16) as u8).collect();
    DeployBundle {
        spec,
        pool,
        lut,
        convs: vec![
            ConvPayload::Direct { weights: direct, scale: 0.01 },
            ConvPayload::Pooled { indices },
        ],
        act_bits: 8,
    }
}

/// Compiles `bundle` per tier and asserts solo and batched outputs are
/// bit-identical to the scalar tier's, across `batches` batch sizes.
fn assert_tiers_agree(bundle: &DeployBundle, opts: &EngineOptions, batches: &[usize], tag: &str) {
    let max_batch = batches.iter().copied().max().unwrap_or(1);
    let scalar = PreparedNet::from_bundle(bundle, &opts.clone().with_backend(BackendKind::Scalar));
    assert_eq!(scalar.backend_kind(), ResolvedBackend::Scalar);
    let inputs = scalar.fabricate_inputs(max_batch, 0xD1FF);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let expect: Vec<Vec<i32>> = inputs.iter().map(|x| scalar.run_one(x)).collect();
    // The scalar tier itself honors the batch == solo contract...
    for &b in batches {
        assert_eq!(
            scalar.run(&refs[..b], &mut Scratch::new()),
            expect[..b],
            "scalar batch={b}, {tag}"
        );
    }
    // ...and every other tier reproduces scalar solo and batched.
    for kind in [BackendKind::Swar, BackendKind::Avx2] {
        let net = PreparedNet::from_bundle(bundle, &opts.clone().with_backend(kind));
        assert_ne!(net.backend_kind(), ResolvedBackend::Scalar);
        for (input, out) in inputs.iter().zip(&expect) {
            assert_eq!(&net.run_one(input), out, "{kind} solo, {tag}");
        }
        for &b in batches {
            assert_eq!(
                net.run(&refs[..b], &mut Scratch::new()),
                expect[..b],
                "{kind} batch={b}, {tag}"
            );
        }
    }
}

/// The acceptance sweep: act_bits 1..=8 × both encodings × both LUT
/// orders, all tiers, solo + batch sizes {1, 2, 7, 16}.
#[test]
fn tiers_agree_across_bits_encodings_and_orders() {
    for order in [LutOrder::InputOriented, LutOrder::WeightOriented] {
        let bundle = all_kinds_bundle(0xBAC0, order, 8, 8);
        for encoding in [ActEncoding::Unsigned, ActEncoding::SignedTwosComplement] {
            for act_bits in 1..=8u8 {
                let opts = EngineOptions::new()
                    .with_act_bits(act_bits)
                    .with_encoding(encoding)
                    .with_requant_multiplier(5e-3);
                let tag = format!("{order:?}, {encoding:?}, {act_bits} bits");
                assert_tiers_agree(&bundle, &opts, &[1, 2, 7, 16], &tag);
            }
        }
    }
}

/// Calibrated per-layer multipliers (the serving configuration) must not
/// disturb cross-tier identity — calibration itself runs on solo
/// accumulators, so every tier derives the same multipliers.
#[test]
fn tiers_agree_under_calibration() {
    let bundle = all_kinds_bundle(0xCAB0, LutOrder::InputOriented, 8, 8);
    let base = EngineOptions::default();
    let multipliers = PreparedNet::calibrate_multipliers(&bundle, &base, 4, 3);
    for kind in TIERS {
        let opts = base.clone().with_backend(kind);
        assert_eq!(
            PreparedNet::calibrate_multipliers(&bundle, &opts, 4, 3),
            multipliers,
            "{kind} must calibrate identically"
        );
    }
    let opts = base.with_layer_multipliers(Some(multipliers));
    assert_tiers_agree(&bundle, &opts, &[1, 2, 7, 16], "calibrated");
}

/// `Auto` never resolves to the scalar tier (scalar is an explicit
/// choice; auto picks the fastest portable-or-better tier), and the
/// resolved tier is observable on the compiled plan.
#[test]
fn auto_resolves_away_from_scalar() {
    if std::env::var_os("WP_BACKEND").is_some() {
        // CI forces tiers through this variable; resolution is then the
        // forced tier and is covered by the forced suite itself.
        return;
    }
    let bundle = all_kinds_bundle(0xA070, LutOrder::InputOriented, 8, 8);
    let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    assert_ne!(net.backend_kind(), ResolvedBackend::Scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed whole-network identity: random seeds, spatial sizes,
    /// channel widths, bitwidths, encodings and batch sizes.
    #[test]
    fn prop_tiers_agree_on_fuzzed_shapes(
        seed in 0u64..1_000_000,
        ch in 1usize..10,
        hw in 4usize..10,
        act_bits in 1u8..=8,
        signed in 0u8..2,
        batch in 1usize..10,
    ) {
        let encoding =
            if signed == 1 { ActEncoding::SignedTwosComplement } else { ActEncoding::Unsigned };
        let bundle = all_kinds_bundle(seed, LutOrder::InputOriented, ch, hw);
        let opts = EngineOptions::new()
            .with_act_bits(act_bits)
            .with_encoding(encoding)
            .with_requant_multiplier(5e-3)
            .with_weight_seed(seed ^ 0x5EED);
        let tag = format!("seed {seed}, ch {ch}, hw {hw}, {encoding:?}, {act_bits} bits");
        assert_tiers_agree(&bundle, &opts, &[batch], &tag);
    }
}
