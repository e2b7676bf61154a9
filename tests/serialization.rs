//! Serde round-trips of every persisted artifact: pools, lookup tables,
//! network specs, deploy bundles and model state dictionaries.

use rand::SeedableRng;
use weight_pools::models::specs;
use weight_pools::pool::netspec::{ConvSpec, LayerSpec};
use weight_pools::prelude::*;

#[test]
fn weight_pool_round_trips_through_json() {
    let pool = WeightPool::from_vectors(vec![
        vec![0.1, -0.2, 0.3, 0.0, 1.5, -1.0, 0.25, 0.125],
        vec![0.0; 8],
    ]);
    let json = serde_json::to_string(&pool).unwrap();
    let back: WeightPool = serde_json::from_str(&json).unwrap();
    assert_eq!(pool, back);
}

#[test]
fn lookup_table_round_trips_through_json() {
    let pool = WeightPool::from_vectors(vec![vec![0.5, -0.25, 0.125, 1.0]]);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let json = serde_json::to_string(&lut).unwrap();
    let back: LookupTable = serde_json::from_str(&json).unwrap();
    assert_eq!(lut, back);
    // Codes must be identical entry by entry.
    for m in 0..lut.num_patterns() {
        assert_eq!(lut.code(0, m), back.code(0, m));
    }
}

#[test]
fn netspec_round_trips_through_json() {
    for net in specs::all_networks() {
        let json = serde_json::to_string(&net).unwrap();
        let back: NetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
        assert_eq!(net.params(), back.params());
    }
}

/// A deployable bundle with both payload kinds: int8 stem + pooled conv +
/// pooling/dense structure.
fn toy_bundle(order: LutOrder) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
    net.push(Relu::new());
    net.push(Conv2d::new(8, 16, 3, 1, 1, &mut rng));
    let cfg = PoolConfig::new(8);
    let pool = compress::build_pool(&mut net, &cfg, &mut rng).unwrap();
    compress::project(&mut net, &pool, &cfg);
    let lut = LookupTable::build(&pool, 8, order);
    let spec = NetSpec {
        name: "serde-toy".into(),
        input: (3, 8, 8),
        classes: 4,
        layers: vec![
            LayerSpec::Conv(ConvSpec {
                in_ch: 3,
                out_ch: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: false,
            }),
            LayerSpec::Conv(ConvSpec {
                in_ch: 8,
                out_ch: 16,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: true,
            }),
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 16, out_features: 4, compressed: false },
        ],
    };
    DeployBundle::from_model(&mut net, spec, &pool, lut, &cfg, 8)
}

#[test]
fn deploy_bundle_round_trips_both_lut_orders() {
    for order in [LutOrder::InputOriented, LutOrder::WeightOriented] {
        let bundle = toy_bundle(order);
        // Both payload kinds must be present and survive the round trip.
        assert!(bundle.convs.iter().any(|c| matches!(c, ConvPayload::Direct { .. })));
        assert!(bundle.convs.iter().any(|c| matches!(c, ConvPayload::Pooled { .. })));
        let json = serde_json::to_string(&bundle).unwrap();
        let back: DeployBundle = serde_json::from_str(&json).unwrap();
        assert_eq!(bundle, back, "{order:?}");
        assert_eq!(bundle.flash_bytes(), back.flash_bytes());
        assert_eq!(bundle.index_histogram(), back.index_histogram());
    }
}

#[test]
fn deploy_bundle_file_round_trip_reruns_identically() {
    for (i, order) in [LutOrder::InputOriented, LutOrder::WeightOriented].iter().enumerate() {
        let bundle = toy_bundle(*order);
        let dir = std::env::temp_dir().join("wp_serde_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bundle_{i}.json"));
        bundle.save(&path).unwrap();
        let back = DeployBundle::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bundle, back);

        // Inference from the deserialized bundle must be code-for-code
        // identical to the original — including through the threaded
        // batch path.
        let opts = EngineOptions::default();
        let a = PreparedNet::from_bundle(&bundle, &opts);
        let b = PreparedNet::from_bundle(&back, &opts);
        let inputs = a.fabricate_inputs(5, 17);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let out_a = BatchRunner::new(1).run_refs(&a, &refs);
        let out_b = BatchRunner::new(3).run_refs(&b, &refs);
        assert_eq!(out_a, out_b, "{order:?}");
    }
}

#[test]
fn model_state_round_trips_through_file() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
    net.push(Dense::new(8 * 4 * 4, 2, &mut rng));
    let dir = std::env::temp_dir().join("wp_integration_save");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    net.save(&path).unwrap();

    let x = Tensor::<f32>::full(&[1, 3, 4, 4], 0.5);
    let before = net.forward(&x, false);
    for p in net.params_mut() {
        p.value.data_mut().fill(0.0);
    }
    net.load(&path).unwrap();
    let after = net.forward(&x, false);
    assert_eq!(before, after);
    std::fs::remove_file(&path).ok();
}

#[test]
fn quant_params_round_trip_through_json() {
    let qp = QuantParams::symmetric_from_max_abs(1.5, 8);
    let uq = UnsignedQuantParams::from_max(4.0, 5);
    let r = Requantizer::from_real_multiplier(0.0173);
    let qp2: QuantParams = serde_json::from_str(&serde_json::to_string(&qp).unwrap()).unwrap();
    let uq2: UnsignedQuantParams =
        serde_json::from_str(&serde_json::to_string(&uq).unwrap()).unwrap();
    let r2: Requantizer = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
    assert_eq!(qp, qp2);
    assert_eq!(uq, uq2);
    assert_eq!(r, r2);
}

#[test]
fn tensor_round_trips_through_json() {
    let t = Tensor::from_vec(vec![1.0f32, -2.5, 3.25], &[3]);
    let back: Tensor<f32> = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(t, back);
}
