//! Batched == solo, bit-identical, for every layer kind.
//!
//! The Kernel trait's contract is that [`wp_engine::kernel::Kernel::run_batch`]
//! reproduces `run_solo` exactly; the serving stack (the micro-batcher's
//! tiles, `BatchRunner`) leans on that to coalesce requests invisibly. These
//! tests pin the contract at two levels:
//!
//! * **Op kernels** — property tests fuzz shapes and activations for the
//!   direct-conv, depthwise and dense [`Kernel::run_batch`] entry points
//!   on the default tier against the solo reference loops (the pooled
//!   scatter has its own sweep in the unit tests and `tests/parity.rs`).
//! * **Whole networks** — an all-kinds network (direct conv, pooled conv,
//!   max pool, depthwise, residual add, avg pool, global avg pool, dense)
//!   executes batched across batch sizes {1, 2, 7, 16} × worker threads
//!   {1, 4} and must match per-image `run_one` everywhere.
//! * **One input rule** — every entry point refuses a plane of the wrong
//!   length or with a code outside the range, naming its batch index,
//!   before any layer runs, whatever the network opens with and on every
//!   tier; the server's micro-batcher refuses it with the same text.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::kernel::{DenseKernel, DirectConvKernel, DwConvKernel, Kernel, KernelCtx};
use wp_engine::{
    avx2_available, backend, BackendKind, BatchRunner, EngineOptions, NativeBackend, PreparedNet,
    Scratch,
};
use wp_kernels::OutputQuant;
use wp_quant::Requantizer;

/// A bundle whose walk visits every kernel the engine implements.
fn all_kinds_bundle(seed: u64) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vectors: Vec<Vec<f32>> =
        (0..16).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let conv = |in_ch: usize, out_ch: usize, compressed: bool| {
        LayerSpec::Conv(ConvSpec { in_ch, out_ch, kernel: 3, stride: 1, pad: 1, compressed })
    };
    let spec = NetSpec {
        name: "all-kinds".into(),
        input: (8, 8, 8),
        classes: 5,
        layers: vec![
            conv(8, 8, false),              // direct conv
            conv(8, 16, true),              // pooled conv
            LayerSpec::MaxPool { size: 2 }, // -> (16, 4, 4)
            LayerSpec::DwConv { channels: 16, kernel: 3, stride: 1, pad: 1 },
            LayerSpec::ResidualAdd,
            LayerSpec::AvgPool { size: 2 }, // -> (16, 2, 2)
            LayerSpec::GlobalAvgPool,       // -> (16, 1, 1)
            LayerSpec::Dense { in_features: 16, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> = (0..8 * 8 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
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

/// The acceptance sweep: all layer kinds × batch sizes {1, 2, 7, 16} ×
/// thread counts {1, 4}, outputs bit-identical to solo execution.
#[test]
fn all_kinds_batched_matches_solo_across_batch_sizes_and_threads() {
    let bundle = all_kinds_bundle(0xA11);
    let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    let inputs = net.fabricate_inputs(16, 7);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let solo: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
    for batch in [1usize, 2, 7, 16] {
        // The direct engine-level batched path...
        assert_eq!(
            net.run(&refs[..batch], &mut Scratch::new()),
            solo[..batch],
            "run, batch={batch}"
        );
        // ...and the threaded serving path on top of it.
        for threads in [1usize, 4] {
            assert_eq!(
                BatchRunner::new(threads).run_refs(&net, &refs[..batch]),
                solo[..batch],
                "run_refs, batch={batch}, threads={threads}"
            );
        }
    }
}

/// Per-layer multipliers (the serving configuration) must not disturb
/// batch/solo parity either.
#[test]
fn all_kinds_batched_matches_solo_under_calibration() {
    let bundle = all_kinds_bundle(0xCA1B);
    let opts = EngineOptions::default();
    let multipliers = PreparedNet::calibrate_multipliers(&bundle, &opts, 4, 3);
    let opts = opts.with_layer_multipliers(Some(multipliers));
    let net = PreparedNet::from_bundle(&bundle, &opts);
    let inputs = net.fabricate_inputs(11, 13);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let solo: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
    assert_eq!(net.run(&refs, &mut Scratch::new()), solo);
}

/// A wrong-size input in a batch must be reported by batch index, up
/// front, before any layer executes.
#[test]
#[should_panic(expected = "input 2 has 5 codes")]
fn run_batch_reports_offending_input_index() {
    let bundle = all_kinds_bundle(0xBAD);
    let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    let good = net.fabricate_inputs(2, 1);
    let bad = vec![0i32; 5];
    let refs: Vec<&[i32]> = vec![&good[0], &good[1], &bad];
    net.run(&refs, &mut Scratch::new());
}

/// And the threaded runner reports the same global index (not a
/// chunk-local one from inside a worker).
#[test]
#[should_panic(expected = "input 3 has 2 codes")]
fn batch_runner_reports_offending_input_index() {
    let bundle = all_kinds_bundle(0xBAD);
    let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    let good = net.fabricate_inputs(3, 1);
    let bad = vec![0i32; 2];
    let refs: Vec<&[i32]> = vec![&good[0], &good[1], &good[2], &bad];
    BatchRunner::new(2).run_refs(&net, &refs);
}

/// The panic message of `f`, or `None` if it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

/// A bundle at 4-bit activations over an `(8, 4, 4)` input whose first
/// layer is `first`, followed by a direct conv, global average pooling and
/// a dense head.
fn opening_bundle(first: LayerSpec, seed: u64) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vectors: Vec<Vec<f32>> =
        (0..4).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let direct = ConvSpec { in_ch: 8, out_ch: 8, kernel: 3, stride: 1, pad: 1, compressed: false };
    let mut direct_payload = || {
        let weights = (0..8 * 8 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        ConvPayload::Direct { weights, scale: 0.01 }
    };
    let mut convs = match first {
        LayerSpec::Conv(ConvSpec { compressed: true, .. }) => {
            vec![ConvPayload::Pooled { indices: (0..8 * 9).map(|i| (i % 4) as u8).collect() }]
        }
        LayerSpec::Conv(_) => vec![direct_payload()],
        _ => Vec::new(),
    };
    convs.push(direct_payload());
    let spec = NetSpec {
        name: "opening".into(),
        input: (8, 4, 4),
        classes: 3,
        layers: vec![
            first,
            LayerSpec::Conv(direct),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 8, out_features: 3, compressed: false },
        ],
    };
    DeployBundle { spec, pool, lut, convs, act_bits: 4 }
}

/// One input rule on every net and tier: a net that opens with a direct
/// conv (the madd route's stem), with a pooled conv, or with a max pool
/// refuses a plane holding a code above the range, below it, or past
/// `i16::MAX` — from `run`, `run_one` and `BatchRunner::run_refs`, each
/// panicking with the plane's batch index before any layer runs (the
/// profile records no layer) — and the micro-batcher refuses the same
/// plane at submit with the text of the same check.
#[test]
fn out_of_range_codes_are_refused_by_batch_index_before_any_layer() {
    use wp_server::batcher::{Batcher, BatcherConfig, InferError};
    use wp_server::metrics::ModelMetrics;

    let direct = ConvSpec { in_ch: 8, out_ch: 8, kernel: 3, stride: 1, pad: 1, compressed: false };
    let openings = [
        LayerSpec::Conv(direct),
        LayerSpec::Conv(ConvSpec { compressed: true, ..direct }),
        LayerSpec::MaxPool { size: 2 },
    ];
    let mut kinds = vec![BackendKind::Scalar, BackendKind::Swar];
    if avx2_available() {
        kinds.push(BackendKind::Avx2);
    }
    for (seed, first) in openings.into_iter().enumerate() {
        let bundle = opening_bundle(first, seed as u64);
        for encoding in [ActEncoding::Unsigned, ActEncoding::SignedTwosComplement] {
            let (lo, hi) = encoding.code_range(4);
            for &kind in &kinds {
                let opts = EngineOptions::new().with_encoding(encoding).with_backend(kind);
                let mut net = PreparedNet::from_bundle(&bundle, &opts);
                let profile = Arc::new(net.make_profile());
                net.set_profile(Some(Arc::clone(&profile)));
                let good = net.fabricate_inputs(3, 5);
                for bad_code in [hi + 1, lo - 1, i32::from(i16::MAX) + 1] {
                    let case = format!("{first:?} {encoding:?} {kind}: code {bad_code}");
                    let mut bad = good[0].clone();
                    bad[9] = bad_code;
                    let error = net.check_input(&bad).expect_err("out-of-range plane");
                    assert_eq!(
                        error.to_string(),
                        format!("has activation code {bad_code} outside [{lo}, {hi}]"),
                        "{case}"
                    );
                    let refs: Vec<&[i32]> = vec![&good[0], &good[1], &bad, &good[2]];
                    let want = Some(format!("input 2 {error}"));
                    let run = panic_message(|| drop(net.run(&refs, &mut Scratch::new())));
                    assert_eq!(run, want, "{case}: run");
                    let threaded =
                        panic_message(|| drop(BatchRunner::new(2).run_refs(&net, &refs)));
                    assert_eq!(threaded, want, "{case}: run_refs");
                    let one = panic_message(|| drop(net.run_one(&bad)));
                    assert_eq!(one, Some(format!("input 0 {error}")), "{case}: run_one");

                    let slot = Arc::new(std::sync::RwLock::new(Arc::new(net.clone())));
                    let config = BatcherConfig { threads: 1, ..BatcherConfig::default() };
                    let batcher = Batcher::start(slot, config, Arc::new(ModelMetrics::new()));
                    match batcher.submit(bad) {
                        Err(InferError::BadInput(text)) => {
                            assert_eq!(text, format!("input 0 {error}"), "{case}: submit");
                        }
                        other => panic!("{case}: submit gave {:?}", other.map(|_| ())),
                    }
                    batcher.shutdown();
                }
                let snapshot = profile.snapshot();
                assert_eq!(snapshot.runs, 0, "{first:?} {encoding:?} {kind}");
                assert!(
                    snapshot.layers.iter().all(|l| l.latency.count == 0),
                    "{kind}: a layer ran"
                );
            }
        }
    }
}

/// A backend at 8-bit unsigned activations on the default tier (its LUT
/// is irrelevant to the int8 ops).
fn int8_backend() -> NativeBackend {
    let pool = WeightPool::from_vectors(vec![vec![0.5; 8]]);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    NativeBackend::new(&lut, 8, ActEncoding::Unsigned)
}

/// `kernel.run_batch` over `images` against each image's solo reference
/// accumulators (`reference`), both finished by the same requant.
fn check_batch_against_solo(
    kernel: &dyn Kernel,
    backend: &NativeBackend,
    in_dims: (usize, usize, usize),
    out_ch: usize,
    images: &[Vec<i32>],
    reference: impl Fn(&[i32]) -> Vec<i32>,
) -> Result<(), TestCaseError> {
    let bias: Vec<i32> = (0..out_ch as i32).map(|k| 3 * k - 7).collect();
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(1e-3), relu: false, out_bits: 8 };
    let ctx = KernelCtx { backend, in_dims, bias: &bias, oq: &oq, act_bits: 8 };
    let batched = kernel.run_batch(&ctx, images.to_vec(), &mut Scratch::new());
    prop_assert_eq!(batched.len(), images.len());
    for (img, out) in images.iter().zip(&batched) {
        let mut want = reference(img);
        let plane = want.len() / out_ch;
        oq.apply_plane_in_place(&mut want, &bias, plane);
        prop_assert_eq!(&want, out);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed direct conv: batched outputs equal solo for arbitrary
    /// geometry (including strides and padding).
    #[test]
    fn prop_direct_conv_batch_matches_solo(
        seed in 0u64..1_000_000,
        in_ch in 1usize..6,
        out_ch in 1usize..6,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 3usize..7,
        batch in 1usize..12,
    ) {
        prop_assume!(hw + 2 * pad >= kernel);
        let shape = PooledConvShape { in_ch, out_ch, kernel, stride, pad, in_h: hw, in_w: hw };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<i8> =
            (0..out_ch * in_ch * kernel * kernel).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let images: Vec<Vec<i32>> = (0..batch)
            .map(|_| (0..in_ch * hw * hw).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let backend = int8_backend();
        let op = DirectConvKernel::new(shape, weights.clone(), &backend, &vec![0; out_ch]);
        check_batch_against_solo(&op, &backend, (in_ch, hw, hw), out_ch, &images, |img| {
            backend::conv_direct(img, &shape, &weights)
        })?;
    }

    /// Fuzzed depthwise conv: batched outputs equal solo.
    #[test]
    fn prop_dwconv_batch_matches_solo(
        seed in 0u64..1_000_000,
        ch in 1usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 3usize..8,
        batch in 1usize..12,
    ) {
        prop_assume!(hw + 2 * pad >= kernel);
        let shape =
            PooledConvShape { in_ch: ch, out_ch: ch, kernel, stride, pad, in_h: hw, in_w: hw };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<i8> =
            (0..ch * kernel * kernel).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let images: Vec<Vec<i32>> = (0..batch)
            .map(|_| (0..ch * hw * hw).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let backend = int8_backend();
        let op = DwConvKernel::new(shape, weights.clone(), &backend, &vec![0; ch]);
        check_batch_against_solo(&op, &backend, (ch, hw, hw), ch, &images, |img| {
            backend::dwconv_acc(img, &shape, &weights)
        })?;
    }

    /// Fuzzed dense: batched outputs equal solo.
    #[test]
    fn prop_dense_batch_matches_solo(
        seed in 0u64..1_000_000,
        in_features in 1usize..40,
        out_features in 1usize..10,
        batch in 1usize..12,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights: Vec<i8> =
            (0..in_features * out_features).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let images: Vec<Vec<i32>> = (0..batch)
            .map(|_| (0..in_features).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let backend = int8_backend();
        let op = DenseKernel::new(weights.clone(), out_features, &backend, &vec![0; out_features]);
        check_batch_against_solo(&op, &backend, (in_features, 1, 1), out_features, &images, |img| {
            backend::dense_acc(img, &weights, out_features)
        })?;
    }

    /// Fuzzed whole-network parity: random seeds for the all-kinds net,
    /// random batch sizes, threaded and unthreaded.
    #[test]
    fn prop_all_kinds_net_batch_matches_solo(
        seed in 0u64..1_000_000,
        batch in 1usize..10,
        threads in 1usize..5,
    ) {
        let bundle = all_kinds_bundle(seed);
        let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
        let inputs = net.fabricate_inputs(batch, seed ^ 0xF00D);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let solo: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        prop_assert_eq!(net.run(&refs, &mut Scratch::new()), solo.clone());
        prop_assert_eq!(BatchRunner::new(threads).run_refs(&net, &refs), solo);
    }
}

/// The batched path must still reject the degenerate shapes solo rejects.
#[test]
fn batched_direct_conv_rejects_wrong_activation_size() {
    let shape =
        PooledConvShape { in_ch: 2, out_ch: 1, kernel: 1, stride: 1, pad: 0, in_h: 2, in_w: 2 };
    let backend = int8_backend();
    let op = DirectConvKernel::new(shape, vec![1i8, -1], &backend, &[0]);
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(1.0), relu: false, out_bits: 8 };
    let ctx = KernelCtx { backend: &backend, in_dims: (2, 2, 2), bias: &[0], oq: &oq, act_bits: 8 };
    // A full tile's worth of images, one of them wrong.
    let mut planes = vec![vec![0i32; 8]; NativeBackend::BATCH_TILE];
    planes[3] = vec![0i32; 7];
    let result = std::panic::catch_unwind(|| op.run_batch(&ctx, planes, &mut Scratch::new()));
    assert!(result.is_err(), "a wrong-size image inside a batch must panic");
}
