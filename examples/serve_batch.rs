//! Batched, multi-threaded serving of a compressed network at host speed.
//!
//! The other examples execute through the cycle-accurate MCU simulator —
//! right for latency studies, far too slow for traffic. This one walks the
//! full deployment path (compress a model onto a pool, pack a
//! `DeployBundle`, reload it) and then serves a batch of inputs through
//! `wp_engine`'s native backend across worker threads, printing
//! images/sec per thread count and cross-checking that every thread count
//! produces identical outputs.
//!
//! ```sh
//! cargo run --release --example serve_batch
//! ```

use rand::SeedableRng;
use std::time::Instant;
use weight_pools::pool::netspec::{ConvSpec, LayerSpec};
use weight_pools::prelude::*;

fn main() {
    // --- Compress a small CNN onto a shared pool -------------------------
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
    net.push(Relu::new());
    net.push(Conv2d::new(8, 16, 3, 1, 1, &mut rng));
    net.push(Relu::new());
    net.push(Conv2d::new(16, 16, 3, 1, 1, &mut rng));

    let cfg = PoolConfig::new(16);
    let pool = compress::build_pool(&mut net, &cfg, &mut rng).expect("pool");
    compress::project(&mut net, &pool, &cfg);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);

    let spec = NetSpec {
        name: "serve-demo".into(),
        input: (3, 16, 16),
        classes: 10,
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
            LayerSpec::Conv(ConvSpec {
                in_ch: 16,
                out_ch: 16,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: true,
            }),
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 16, out_features: 10, compressed: false },
        ],
    };
    let bundle = DeployBundle::from_model(&mut net, spec, &pool, lut, &cfg, 8);
    println!(
        "bundle: {} convs, {} B flash, {:.2} bits/index entropy",
        bundle.convs.len(),
        bundle.flash_bytes(),
        bundle.index_entropy_bits()
    );

    // --- Round-trip through disk, as a real deployment would -------------
    let path = std::env::temp_dir().join("wp_serve_batch_bundle.json");
    bundle.save(&path).expect("save bundle");
    let bundle = DeployBundle::load(&path).expect("load bundle");
    std::fs::remove_file(&path).ok();

    // --- Compile and serve ------------------------------------------------
    let prepared = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    let batch = 64;
    let inputs = prepared.fabricate_inputs(batch, 42);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();

    let reference = BatchRunner::new(1).run_refs(&prepared, &refs);
    println!("\nserving a {batch}-image batch:");
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::new(threads);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let out = runner.run_refs(&prepared, &refs);
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(out, reference, "outputs must not depend on thread count");
        }
        println!("{threads:>2} threads: {:>10.1} images/sec", batch as f64 / best);
    }
    println!(
        "\noutputs identical across all thread counts; machine reports {} core(s)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
}
