//! Synthetic deployable bundles for demos, load generation, and tests.
//!
//! Runtime behavior depends only on shapes, so weights, pool vectors and
//! index maps are fabricated deterministically from a seed — the same
//! convention as the engine's fabricated depthwise/dense weights. The
//! serving demo is deliberately **scatter-heavy** (many filters over a
//! small shared pool): that is the regime the paper compresses best, and
//! at 8-bit activations every one of its pooled layers fits the engine's
//! register-resident scatter (16 vectors, 8-bit LUT). Its counterpart,
//! [`DemoSize::Stem`], is **stem-heavy** (direct convs, depthwise, dense
//! — no pooled convs), exercising the engine's `pmaddwd`
//! direct/depthwise/dense kernels end to end instead.
//!
//! Index maps are drawn from a **skewed** distribution (truncated
//! geometric over a per-layer permutation of the pool) rather than a
//! uniform one: K-means pools in trained networks have strongly
//! non-uniform usage histograms, and the uniform draw is the one
//! distribution no entropy coder can touch — a demo fabricated that way
//! would misrepresent both the paper's regime and the WPB codec's
//! behavior on real bundles.

use rand::{Rng, SeedableRng};
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{EngineOptions, PreparedNet};

/// Which demo bundle to fabricate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoSize {
    /// A few-hundred-microsecond model for unit tests.
    Tiny,
    /// The serving demo: a deep pooled-conv stack whose batched execution
    /// visibly outruns solo execution.
    Serve,
    /// The stem-heavy serving demo: dominated by direct convs, a
    /// depthwise layer and a dense head, with **no** pooled convs at all
    /// — the regime the paper leaves uncompressed (stems, depthwise,
    /// heads) and the one the engine's `pmaddwd` direct/depthwise/dense
    /// kernels accelerate. Pairs with
    /// [`DemoSize::Serve`] in the load generator so both batched regimes
    /// are measured.
    Stem,
}

/// Fabricates a deterministic demo bundle.
pub fn demo_bundle(size: DemoSize, seed: u64) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pool_size = 16usize;
    // Each vector is centred on zero mean after it is drawn (the draws
    // themselves are unchanged, so the index maps below are too): the
    // skewed index draw puts about half of a layer's taps on one vector,
    // and one whose coordinates summed negative drove the non-negative
    // post-ReLU inputs below zero, collapsing every output to the same
    // logits.
    let vectors: Vec<Vec<f32>> = (0..pool_size)
        .map(|_| {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
            let mean = v.iter().sum::<f32>() / v.len() as f32;
            v.into_iter().map(|x| x - mean).collect()
        })
        .collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let conv = |in_ch: usize, out_ch: usize, compressed: bool| {
        LayerSpec::Conv(ConvSpec { in_ch, out_ch, kernel: 3, stride: 1, pad: 1, compressed })
    };

    // `direct_dims`/`pooled_dims` mirror the uncompressed/compressed conv
    // layers in walk order; payloads are fabricated from them below.
    type Dims = Vec<(usize, usize)>;
    let (name, input, layers, direct_dims, pooled_dims): (_, _, Vec<LayerSpec>, Dims, Dims) =
        match size {
            DemoSize::Tiny => (
                "demo-tiny",
                (8, 6, 6),
                vec![
                    conv(8, 8, false),
                    conv(8, 16, true),
                    LayerSpec::GlobalAvgPool,
                    LayerSpec::Dense { in_features: 16, out_features: 4, compressed: false },
                ],
                vec![(8, 8)],
                vec![(16, 1)],
            ),
            DemoSize::Serve => (
                "demo-serve",
                (8, 6, 6),
                vec![
                    conv(8, 16, false),
                    conv(16, 128, true),
                    conv(128, 256, true),
                    conv(256, 256, true),
                    LayerSpec::GlobalAvgPool,
                    LayerSpec::Dense { in_features: 256, out_features: 10, compressed: false },
                ],
                vec![(8, 16)],
                vec![(128, 2), (256, 16), (256, 32)],
            ),
            DemoSize::Stem => (
                "demo-stem",
                (8, 10, 10),
                vec![
                    conv(8, 64, false),
                    LayerSpec::DwConv { channels: 64, kernel: 3, stride: 1, pad: 1 },
                    conv(64, 96, false),
                    LayerSpec::MaxPool { size: 2 },
                    conv(96, 96, false),
                    LayerSpec::GlobalAvgPool,
                    LayerSpec::Dense { in_features: 96, out_features: 256, compressed: false },
                    LayerSpec::Dense { in_features: 256, out_features: 10, compressed: false },
                ],
                vec![(8, 64), (64, 96), (96, 96)],
                Vec::new(),
            ),
        };
    let classes = match layers.last() {
        Some(LayerSpec::Dense { out_features, .. }) => *out_features,
        _ => 0,
    };
    let spec = NetSpec { name: name.into(), input, classes, layers };

    let mut convs = Vec::new();
    for (in_ch, out_ch) in direct_dims {
        let weights: Vec<i8> =
            (0..out_ch * in_ch * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        convs.push(ConvPayload::Direct { weights, scale: 0.01 });
    }
    for (out_ch, groups) in pooled_dims {
        // A fresh pool-entry permutation per layer, so the layer's most
        // frequent index is an arbitrary symbol (not always 0) — real
        // usage histograms peak wherever K-means put the popular vector.
        let mut perm: Vec<u8> = (0..pool_size as u8).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        let indices: Vec<u8> = (0..out_ch * groups * 9)
            .map(|_| {
                // Truncated geometric (p = 1/2) over the permuted pool.
                let mut v = 0usize;
                while v + 1 < pool_size && rng.gen_range(0..2) == 0 {
                    v += 1;
                }
                perm[v]
            })
            .collect();
        convs.push(ConvPayload::Pooled { indices });
    }
    DeployBundle { spec, pool, lut, convs, act_bits: 8 }
}

/// Fabricates a demo bundle together with calibrated engine options: the
/// deep serving demo needs per-layer requant multipliers (fan-ins differ
/// by an order of magnitude between the stem and the widest pooled
/// layer), so the options carry a
/// [`PreparedNet::calibrate_multipliers`] result.
pub fn demo_deployment(size: DemoSize, seed: u64) -> (DeployBundle, EngineOptions) {
    let bundle = demo_bundle(size, seed);
    let opts = EngineOptions::default();
    let multipliers = PreparedNet::calibrate_multipliers(&bundle, &opts, 8, seed ^ 0xCA11);
    (bundle, opts.with_layer_multipliers(Some(multipliers)))
}

/// Fabricates and compiles a demo model in one step.
pub fn demo_prepared(size: DemoSize, seed: u64) -> PreparedNet {
    let (bundle, opts) = demo_deployment(size, seed);
    PreparedNet::from_bundle(&bundle, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed the serving tools use (1 for `wp_serve --demo`, the
    /// load generators and the examples) and its neighbours.
    #[test]
    fn demo_bundles_run_and_are_not_degenerate() {
        for seed in (1..=10).chain([42]) {
            for size in [DemoSize::Tiny, DemoSize::Serve, DemoSize::Stem] {
                let net = demo_prepared(size, seed);
                let inputs = net.fabricate_inputs(4, 1);
                let outputs: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
                // Distinct inputs must produce distinct logits (the bundle
                // propagates signal rather than collapsing to a constant).
                for i in 1..outputs.len() {
                    assert_ne!(outputs[0], outputs[i], "{size:?} seed {seed}: collapsed outputs");
                }
                // And the same input twice is deterministic.
                assert_eq!(net.run_one(&inputs[0]), outputs[0]);
            }
        }
    }

    #[test]
    fn stem_demo_is_pooled_free_and_batches_bit_identically() {
        let bundle = demo_bundle(DemoSize::Stem, 5);
        assert!(
            bundle.convs.iter().all(|c| matches!(c, ConvPayload::Direct { .. })),
            "the stem demo must not contain pooled convs"
        );
        let net = demo_prepared(DemoSize::Stem, 5);
        let inputs = net.fabricate_inputs(9, 2);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let solo: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        let batched = net.run(&refs, &mut wp_engine::Scratch::new());
        assert_eq!(batched, solo, "stem batched path must be bit-identical");
    }

    /// A silent fallback to the memory gather would cost the demo most of
    /// its pooled-conv speed, so it fails here rather than only in the
    /// benchmark.
    #[test]
    fn serve_demo_pooled_layers_take_the_register_route() {
        if !wp_engine::avx2_available() {
            return;
        }
        for seed in [1, 2, 3, 42] {
            let bundle = demo_bundle(DemoSize::Serve, seed);
            let opts = EngineOptions::default()
                .with_act_bits(8)
                .with_backend(wp_engine::BackendKind::Avx2);
            let routes = PreparedNet::from_bundle(&bundle, &opts).scatter_routes();
            assert_eq!(routes, [wp_engine::ScatterRoute::Registers; 3], "seed {seed}");
        }
    }

    /// Likewise, a silent fallback off the madd route would cost the stem
    /// demo most of its speed, on either vector tier.
    #[test]
    fn stem_demo_int8_layers_take_the_madd_route() {
        for kind in [wp_engine::BackendKind::Swar, wp_engine::BackendKind::Avx2] {
            for act_bits in [2, 8] {
                let opts = EngineOptions::default().with_act_bits(act_bits).with_backend(kind);
                let routes =
                    PreparedNet::from_bundle(&demo_bundle(DemoSize::Stem, 1), &opts).mac_routes();
                assert_eq!(routes, [wp_engine::MacRoute::Madd; 6], "{kind} act_bits {act_bits}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = demo_prepared(DemoSize::Tiny, 1);
        let b = demo_prepared(DemoSize::Tiny, 2);
        let input = a.fabricate_inputs(1, 9).pop().unwrap();
        assert_ne!(a.run_one(&input), b.run_one(&input));
    }

    #[test]
    fn serve_bundle_round_trips_through_json() {
        let bundle = demo_bundle(DemoSize::Tiny, 3);
        let s = serde_json::to_string(&bundle).unwrap();
        let back: DeployBundle = serde_json::from_str(&s).unwrap();
        assert_eq!(bundle, back);
    }
}
