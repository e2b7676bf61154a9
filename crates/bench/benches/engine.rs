//! Criterion benchmarks of the native execution engine: single-layer
//! native vs. cycle-simulated execution, and batched whole-network
//! throughput across worker-thread counts. The printable summary version
//! of the same measurements is `cargo run --release --bin
//! engine_throughput -p wp_bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use wp_bench::runtime::synthetic_lut;
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_engine::{BatchRunner, NativeBackend};
use wp_kernels::{conv_bitserial, BitSerialOptions, OutputQuant};
use wp_mcu::{Mcu, McuSpec};
use wp_quant::Requantizer;

fn layer() -> (PooledConvShape, Vec<i32>, Vec<u8>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let shape =
        PooledConvShape { in_ch: 32, out_ch: 32, kernel: 3, stride: 1, pad: 1, in_h: 16, in_w: 16 };
    let codes: Vec<i32> =
        (0..shape.in_ch * shape.in_h * shape.in_w).map(|_| rng.gen_range(0..256)).collect();
    let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| rng.gen_range(0..64) as u8).collect();
    (shape, codes, indices)
}

fn bench_native_vs_simulated(c: &mut Criterion) {
    let (shape, codes, indices) = layer();
    let (_pool, lut) = synthetic_lut(64, 8, 1);
    let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
    let bias = vec![0i32; shape.out_ch];
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(2e-4), relu: true, out_bits: 8 };
    let opts = BitSerialOptions::paper_default(8);

    let mut group = c.benchmark_group("conv_32x16x16_pool64");
    group.sample_size(20);
    group.bench_function("native", |b| b.iter(|| backend.conv_pooled(&codes, &shape, &indices)));
    group.bench_function("simulated", |b| {
        b.iter(|| {
            let mut mcu = Mcu::new(McuSpec::mc_large());
            conv_bitserial(&mut mcu, &codes, &shape, &indices, &lut, &bias, &oq, &opts)
        })
    });
    group.finish();
}

fn bench_batch_threads(c: &mut Criterion) {
    let net = wp_bench::runtime::synthetic_prepared_net(64, 3);
    let inputs = net.fabricate_inputs(32, 11);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let mut group = c.benchmark_group("batch32_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let runner = BatchRunner::new(t);
            b.iter(|| runner.run_refs(&net, &refs))
        });
    }
    group.finish();
}

criterion_group!(
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = bench_native_vs_simulated, bench_batch_threads
);
criterion_main!(engine);
