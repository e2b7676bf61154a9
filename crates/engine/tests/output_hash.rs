//! The serving demos' outputs and raw accumulators hash to recorded
//! constants.
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
//! logit is zero, so those three constants coincide, and an output hash
//! cannot see a kernel fault there. The second test closes that gap: it
//! hashes every requantizing layer's raw accumulators
//! (`PreparedNet::finish_inputs`, over the same fabricated inputs) per
//! demo, act_bits, tier and layer, against constants recorded on the
//! engine before the direct convs read their receptive fields in place.

use std::sync::atomic::{AtomicUsize, Ordering};
use wp_core::deploy::DeployBundle;
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

/// Per-layer accumulator hashes per demo at act_bits 1..=8: one hash per
/// requantizing layer, in walk order (demo-serve: the direct conv, three
/// pooled convs and the dense head; demo-stem: conv, depthwise, conv,
/// conv, dense, dense). Where the global average pool rounds a 1-bit
/// plane to zero, the dense layers after it sum zeros: demo-serve's head
/// and both of demo-stem's dense layers at act_bits 1 hash all-zero
/// accumulators (`tests/madd_route.rs` covers dense at every bitwidth).
const ACC_EXPECTED: [(DemoSize, [&[u64]; 8]); 2] = [
    (
        DemoSize::Serve,
        [
            &[
                0x372f_3f6c_e528_5c2e,
                0x1b5c_1f3a_cb30_eb5e,
                0x615b_8403_4fe7_792b,
                0xcd6f_8f21_241f_cdcd,
                0x9635_48a7_b7b2_0725,
            ],
            &[
                0x5416_064f_35b4_d079,
                0x815d_3ade_6e98_3151,
                0x40fd_400a_45d6_e798,
                0xbe8f_a814_3da1_6dad,
                0x71af_33e5_9d6a_89a9,
            ],
            &[
                0xff0b_b342_5f56_9ca8,
                0x454a_29c5_ad18_bc61,
                0xe4a2_6ded_0e74_d944,
                0xae6d_cb4f_1ceb_d200,
                0xc150_d59b_d5e1_e37e,
            ],
            &[
                0x465b_ff36_ff89_57a0,
                0x2957_6633_204f_8569,
                0x16a0_bf5e_bc47_f004,
                0xdce5_9c77_8dda_def1,
                0x3333_e940_232f_b11e,
            ],
            &[
                0xb553_2857_7551_50c8,
                0x7bf7_c79f_72fe_4d62,
                0x1c9b_4225_914c_fcd2,
                0x0c58_aa7f_3b3e_c92a,
                0x768e_794f_17ff_d9fe,
            ],
            &[
                0x55f5_28aa_cd01_0d4b,
                0xfe24_b6cf_0ec0_114f,
                0x4cbf_659b_f7d6_a819,
                0xc3a8_41a3_890b_89cb,
                0x9d8a_1191_fabf_cbef,
            ],
            &[
                0xee70_ff46_a1ae_b660,
                0x47f1_2878_4461_01cc,
                0xe446_be15_5de0_51d4,
                0xb652_52de_e7cf_07ca,
                0xd08f_fe23_44d8_31ea,
            ],
            &[
                0x8ae3_193d_36b7_cc64,
                0xbc77_4eb0_ef35_f170,
                0x9688_b60b_2bc9_020c,
                0x15a5_2174_5767_fcbd,
                0xbdf3_d852_251d_03fe,
            ],
        ],
    ),
    (
        DemoSize::Stem,
        [
            &[
                0xeb4c_a757_37c4_6531,
                0xe524_871d_5864_8792,
                0xc835_bb2a_1d43_1a1f,
                0x5040_914d_af7a_935a,
                0x8f69_55bf_94ec_2325,
                0x9635_48a7_b7b2_0725,
            ],
            &[
                0x357a_fa9d_0b10_5d0d,
                0x2b93_9794_0ec5_b80f,
                0x6073_431e_54a2_dbaa,
                0xf016_6c7f_aea9_399b,
                0xcd11_36dc_ef0b_cf01,
                0x155a_6369_4c33_97ef,
            ],
            &[
                0xeaa5_643f_112e_8dd5,
                0x0b1b_4d07_38c3_6fdb,
                0x07a8_0727_9e38_a850,
                0x09d9_bb4f_9d8d_93d6,
                0x4ece_bd8a_9331_d94f,
                0xef75_1986_d755_5f08,
            ],
            &[
                0xce80_a423_31b2_527b,
                0x760a_9d72_45b5_b3cf,
                0xc191_077c_ba39_c69b,
                0x5084_2657_1b02_b311,
                0x4241_8691_cbf1_8b06,
                0xc060_699d_d17d_ad2e,
            ],
            &[
                0x51bd_0ded_7375_1510,
                0x96c9_9dd9_4a78_a526,
                0x6a3f_be0b_cff9_7881,
                0xdf1b_88c6_5235_bdb1,
                0xcd13_8feb_d4da_5f7c,
                0xfc9e_c341_d046_d4df,
            ],
            &[
                0xcd63_b2a7_cadf_cae2,
                0x3cb9_f5ee_f9ae_3c3f,
                0x9cb7_90a8_39ae_5eef,
                0x9606_5542_8427_7fbd,
                0xfdb2_15a0_89a3_baeb,
                0x41a4_b9dd_7388_62b5,
            ],
            &[
                0x3308_6bdb_4b11_dfad,
                0xeab8_dfd1_2a6f_c451,
                0xa4a3_e626_58e6_cafd,
                0x6a17_d796_e42b_2abd,
                0x7e8e_a3bd_be68_3afa,
                0x04bc_7bf8_bee8_057f,
            ],
            &[
                0x4b25_99e1_5613_32d6,
                0xcb8d_73c2_e3b8_7a0f,
                0xe968_e050_c139_21f2,
                0x03df_9f7a_b2ef_c037,
                0x2e3c_9b38_8f29_458d,
                0xc52b_5eea_5a9f_901d,
            ],
        ],
    ),
];

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `hash` extended by 64-bit FNV-1a over every code's little-endian bytes.
fn fnv1a_extend(mut hash: u64, codes: &[i32]) -> u64 {
    for byte in codes.iter().flat_map(|code| code.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// 64-bit FNV-1a over every code's little-endian bytes, planes in order.
fn fnv1a(planes: &[Vec<i32>]) -> u64 {
    planes.iter().fold(FNV_OFFSET, |hash, plane| fnv1a_extend(hash, plane))
}

/// One demo's deployment at `act_bits`, calibrated as `demo_deployment`
/// calibrates it (default options, so the tier `WP_BACKEND` or the CPU
/// picks); compile it per tier with `with_backend`.
fn calibrated(size: DemoSize, act_bits: u8) -> (DeployBundle, EngineOptions) {
    let bundle = demo_bundle(size, SEED);
    let opts = EngineOptions::default().with_act_bits(act_bits);
    let multipliers = PreparedNet::calibrate_multipliers(&bundle, &opts, 8, SEED ^ 0xCA11);
    (bundle, opts.with_layer_multipliers(Some(multipliers)))
}

/// Every tier the host has.
fn host_tiers() -> Vec<BackendKind> {
    let mut tiers = vec![BackendKind::Scalar, BackendKind::Swar];
    if avx2_available() {
        tiers.push(BackendKind::Avx2);
    } else {
        println!("AVX2 not available: hashing the scalar and swar tiers only");
    }
    tiers
}

/// Runs `work` over `jobs`, shared out over the cores in order (so list
/// the long ones first), and returns every line it reports, sorted.
fn run_jobs<J: Sync>(jobs: &[J], work: impl Fn(&J) -> Vec<String> + Sync) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mut found: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        found.extend(work(job));
                    }
                    found
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("hash worker")).collect()
    });
    found.sort();
    found
}

/// Calibrates one demo at `act_bits`, then compiles and runs it on each
/// of `tiers`, returning a line per tier and call shape whose hash is not
/// `want`.
fn mismatches(size: DemoSize, act_bits: u8, want: u64, tiers: &[BackendKind]) -> Vec<String> {
    let (bundle, opts) = calibrated(size, act_bits);
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

/// Calibrates one demo at `act_bits`, then hashes each requantizing
/// layer's raw accumulators over the fabricated inputs on each of
/// `tiers`, returning a line per tier and layer whose hash is not the
/// one `want` holds.
fn acc_mismatches(
    size: DemoSize,
    act_bits: u8,
    want: &[u64],
    tiers: &[BackendKind],
) -> Vec<String> {
    let (bundle, opts) = calibrated(size, act_bits);
    let mut found = Vec::new();
    for &kind in tiers {
        let net = PreparedNet::from_bundle(&bundle, &opts.clone().with_backend(kind));
        let mut hashes = Vec::new();
        for input in net.fabricate_inputs(INPUTS, SEED) {
            let layers = net.finish_inputs(&input);
            hashes.resize(layers.len(), FNV_OFFSET);
            for (hash, layer) in hashes.iter_mut().zip(&layers) {
                *hash = fnv1a_extend(*hash, &layer.acc);
            }
        }
        if hashes.len() != want.len() {
            found.push(format!(
                "{size:?} act_bits {act_bits} {kind}: {} requantizing layers (want {})",
                hashes.len(),
                want.len()
            ));
        }
        for (layer, (&got, &want)) in hashes.iter().zip(want).enumerate() {
            if got != want {
                found.push(format!(
                    "{size:?} act_bits {act_bits} {kind} layer {layer}: {got:#018x} (want {want:#018x})"
                ));
            }
        }
    }
    found
}

#[test]
fn demo_outputs_hash_to_the_recorded_constants() {
    let tiers = host_tiers();
    // One job per demo and act_bits, the long ones first: the scalar
    // tier's reference loops make each demo-stem job several times a
    // demo-serve one.
    let jobs: Vec<(DemoSize, u8, u64)> = EXPECTED
        .iter()
        .rev()
        .flat_map(|&(size, hashes)| {
            (1u8..=8).zip(hashes).map(move |(bits, want)| (size, bits, want))
        })
        .collect();
    let found = run_jobs(&jobs, |&(size, bits, want)| mismatches(size, bits, want, &tiers));
    assert!(found.is_empty(), "output hashes moved:\n{}", found.join("\n"));
}

#[test]
fn demo_accumulators_hash_to_the_recorded_constants() {
    let tiers = host_tiers();
    let jobs: Vec<(DemoSize, u8, &[u64])> = ACC_EXPECTED
        .iter()
        .rev()
        .flat_map(|&(size, hashes)| {
            (1u8..=8).zip(hashes).map(move |(bits, want)| (size, bits, want))
        })
        .collect();
    let found = run_jobs(&jobs, |&(size, bits, want)| acc_mismatches(size, bits, want, &tiers));
    assert!(found.is_empty(), "accumulator hashes moved:\n{}", found.join("\n"));
}
