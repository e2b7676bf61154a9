//! The serving demos' outputs hash to recorded constants.
//!
//! Bit-identity is the engine's contract, and a kernel change must not
//! move a single output code. This test runs both serving demos —
//! demo-serve (pooled convs) and demo-stem (direct, depthwise and dense
//! layers) — at seed 1, calibrated as `wp_server::demo::demo_deployment`
//! calibrates them, at every activation bitwidth 1–8, on every tier the
//! host has, one image per call and as one batch. Each run's output codes
//! are hashed with 64-bit FNV-1a and compared with a constant recorded on
//! the engine before the vector requant finish existed, so a change to
//! any kernel, finish or calibration that alters an output fails here,
//! naming the demo, act_bits, tier and call shape that moved.
//!
//! At demo-serve's act_bits 1 and 2 and demo-stem's act_bits 1 every
//! logit is zero, so those three constants coincide.

use std::sync::atomic::{AtomicUsize, Ordering};
use wp_engine::{avx2_available, BackendKind, EngineOptions, PreparedNet, Scratch};
use wp_server::demo::{demo_bundle, DemoSize};

/// The demo seed of `wp_serve --demo`, the load generators and perfbench.
const SEED: u64 = 1;

/// Fabricated input planes per run.
const INPUTS: usize = 32;

/// Output hashes per demo at act_bits 1..=8.
const EXPECTED: [(DemoSize, [u64; 8]); 2] = [
    (
        DemoSize::Serve,
        [
            0x9635_48a7_b7b2_0725,
            0x9635_48a7_b7b2_0725,
            0xa167_e450_b2b2_c963,
            0x79c7_ba04_3ee7_7318,
            0xf93a_073f_b280_4098,
            0xdfa4_6654_2746_9b72,
            0x187a_e597_efe9_5a01,
            0xd3e4_be0c_8529_eb8c,
        ],
    ),
    (
        DemoSize::Stem,
        [
            0x9635_48a7_b7b2_0725,
            0xeecf_45e1_a856_09a0,
            0xe904_f0f0_41df_ac03,
            0xfe02_75ce_21ce_1b76,
            0x7d38_f094_ee20_8250,
            0xecbe_4479_59d2_1c98,
            0xc43d_1738_5cc3_1acd,
            0x63de_a8c7_b37d_1e61,
        ],
    ),
];

/// 64-bit FNV-1a over every code's little-endian bytes, planes in order.
fn fnv1a(planes: &[Vec<i32>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in planes.iter().flatten().flat_map(|code| code.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Calibrates one demo at `act_bits` as `demo_deployment` does (default
/// options, so the tier `WP_BACKEND` or the CPU picks), then compiles and
/// runs it on each of `tiers`, returning a line per tier and call shape
/// whose hash is not `want`.
fn mismatches(size: DemoSize, act_bits: u8, want: u64, tiers: &[BackendKind]) -> Vec<String> {
    let bundle = demo_bundle(size, SEED);
    let opts = EngineOptions::default().with_act_bits(act_bits);
    let multipliers = PreparedNet::calibrate_multipliers(&bundle, &opts, 8, SEED ^ 0xCA11);
    let opts = opts.with_layer_multipliers(Some(multipliers));
    let mut found = Vec::new();
    for &kind in tiers {
        let net = PreparedNet::from_bundle(&bundle, &opts.clone().with_backend(kind));
        let inputs = net.fabricate_inputs(INPUTS, SEED);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let solo: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        let batched = net.run(&refs, &mut Scratch::new());
        for (shape, outputs) in [("solo", solo), ("batched", batched)] {
            let got = fnv1a(&outputs);
            if got != want {
                found.push(format!(
                    "{size:?} act_bits {act_bits} {kind} {shape}: {got:#018x} (want {want:#018x})"
                ));
            }
        }
    }
    found
}

#[test]
fn demo_outputs_hash_to_the_recorded_constants() {
    let mut tiers = vec![BackendKind::Scalar, BackendKind::Swar];
    if avx2_available() {
        tiers.push(BackendKind::Avx2);
    } else {
        println!("AVX2 not available: hashing the scalar and swar tiers only");
    }
    // One job per demo and act_bits, shared out over the cores, the
    // long ones first: the scalar tier's reference loops make each
    // demo-stem job several times a demo-serve one.
    let jobs: Vec<(DemoSize, u8, u64)> = EXPECTED
        .iter()
        .rev()
        .flat_map(|&(size, hashes)| {
            (1u8..=8).zip(hashes).map(move |(bits, want)| (size, bits, want))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mut found: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    while let Some(&(size, bits, want)) =
                        jobs.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        found.extend(mismatches(size, bits, want, &tiers));
                    }
                    found
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("hash worker")).collect()
    });
    found.sort();
    assert!(found.is_empty(), "output hashes moved:\n{}", found.join("\n"));
}
