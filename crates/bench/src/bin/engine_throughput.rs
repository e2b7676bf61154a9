//! Native engine throughput report: the committed benchmark behind the
//! engine's two headline claims.
//!
//! 1. **Native vs. simulated**: the same pooled conv layer executed by
//!    `wp_engine::NativeBackend` and by the cycle-accurate `wp_kernels`
//!    path (both produce identical codes; only wall-clock differs).
//! 2. **Batch scaling**: whole-network images/sec through
//!    `wp_engine::BatchRunner` at increasing worker-thread counts.
//! 3. **Batched vs solo** whole-network execution on one thread.
//! 4. **Backend tiers**: the same serving demos A/B'd across the
//!    `scalar` / `swar` / `avx2` kernel tiers, batched and one image per
//!    call, outputs verified bit-identical. The tiers take turns, in an
//!    order rotated every trial, each on its own kept arena, and every
//!    ratio divides per-tier medians, so host drift lands on every tier
//!    alike. Gated at exit: swar ≥2x scalar batched on both demos, and
//!    ≥10x scalar solo and batched on the stem demo, whose direct,
//!    depthwise and dense layers run the madd kernels on the swar tier's
//!    SSE2 lanes. Where the CPU has AVX2, the register-resident pooled
//!    scatter is gated at ≥2x swar solo and ≥1.5x swar batched on the
//!    pooled demo, and the madd kernels' AVX2 lanes at ≥1.4x the swar
//!    tier's SSE2 lanes, solo and batched, on the stem demo. After the
//!    timed trials each tier's plan runs the batch once more with a
//!    [`wp_engine::NetProfile`] attached, recording µs per image per
//!    layer kind (not gated).
//! 5. **Tracing overhead + profile**: the serving demo with and without
//!    the engine's aggregate [`wp_engine::NetProfile`] attached, timed in
//!    alternation on one kept arena per arm and reported as medians and
//!    quartiles, plus the per-layer share breakdown (`--profile` prints
//!    the full table).
//! 6. **Requant finish**: every requantizing layer's bias + requant
//!    finish over the serving demo's real accumulators
//!    ([`PreparedNet::finish_inputs`]), timed apart from the kernels in
//!    ns per output: the scalar tier's reference loop against the avx2
//!    tier's vector finish, alternating each trial on kept buffers, with
//!    outputs verified identical. Where the CPU has AVX2 it is gated at
//!    ≥3x the scalar finish (ratio of medians).
//!
//! ```sh
//! cargo run --release --bin engine_throughput -p wp_bench \
//!     [-- --fast] [-- --profile] [-- --out BENCH_engine.json]
//! ```

use rand::{Rng, SeedableRng};
use std::time::Instant;
use wp_bench::runtime::{synthetic_lut, synthetic_prepared_net};
use wp_bench::{fingerprint, Effort};
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_engine::{avx2_available, BackendKind, BatchRunner, NativeBackend, PreparedNet, Scratch};
use wp_kernels::{conv_bitserial, BitSerialOptions, OutputQuant};
use wp_mcu::{Mcu, McuSpec};
use wp_quant::Requantizer;

fn main() {
    let effort = Effort::from_env();
    let reps = if effort.fast { 3 } else { 10 };
    let mut out_path: Option<String> = None;
    let mut show_profile = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--out" {
            out_path = Some(argv.next().expect("--out needs a value"));
        } else if flag == "--profile" {
            show_profile = true;
        }
    }

    // --- 1. Single layer: native vs cycle-simulated -----------------------
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let shape =
        PooledConvShape { in_ch: 32, out_ch: 32, kernel: 3, stride: 1, pad: 1, in_h: 16, in_w: 16 };
    let (_pool, lut) = synthetic_lut(64, 8, 1);
    let codes: Vec<i32> =
        (0..shape.in_ch * shape.in_h * shape.in_w).map(|_| rng.gen_range(0..256)).collect();
    let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| rng.gen_range(0..64) as u8).collect();
    let bias = vec![0i32; shape.out_ch];
    let oq =
        OutputQuant { requant: Requantizer::from_real_multiplier(2e-4), relu: true, out_bits: 8 };
    let opts = BitSerialOptions::paper_default(8);
    let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);

    let mut sim_best = f64::INFINITY;
    let mut native_best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let mut mcu = Mcu::new(McuSpec::mc_large());
        let sim = conv_bitserial(&mut mcu, &codes, &shape, &indices, &lut, &bias, &oq, &opts);
        sim_best = sim_best.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let acc = backend.conv_pooled(&codes, &shape, &indices);
        native_best = native_best.min(t.elapsed().as_secs_f64());

        let native: Vec<i32> = acc.iter().map(|&a| oq.apply_value(a)).collect();
        assert_eq!(native, sim, "native and simulated paths must agree bit-for-bit");
    }
    println!("== Single pooled conv (32x16x16, pool 64, 8-bit) ==");
    println!("simulated (Mcu):  {:>9.3} ms", sim_best * 1e3);
    println!("native  (engine): {:>9.3} ms", native_best * 1e3);
    println!("speedup:          {:>9.1}x  (outputs verified identical)", sim_best / native_best);
    println!();

    // --- 2. Whole-network batch throughput vs worker threads --------------
    let net = synthetic_prepared_net(64, 3);
    let batch = if effort.fast { 16 } else { 64 };
    let inputs = net.fabricate_inputs(batch, 9);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    println!("== Batch throughput (3-conv net, {batch}-image batch) ==");
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::new(threads);
        let mut best = f64::INFINITY;
        for _ in 0..reps.min(5) {
            let t = Instant::now();
            let out = runner.run_refs(&net, &refs);
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(out.len(), batch);
        }
        let ips = batch as f64 / best;
        if threads == 1 {
            base = ips;
        }
        println!("{threads:>2} threads: {ips:>10.1} images/sec  ({:.2}x vs 1 thread)", ips / base);
    }
    println!();
    println!(
        "(Thread scaling tracks physical cores; this machine reports {}.)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!();

    // --- 3. Batched vs solo whole-network execution ----------------------
    // The serving path: `PreparedNet::run` executes every layer
    // through its Kernel::run_batch entry point, amortizing each
    // weight/tap decode across the batch, on a single thread — this is
    // what the server's micro-batcher buys over per-request execution,
    // before any thread parallelism. Both serving regimes are measured:
    // the scatter-heavy pooled demo and the stem-heavy direct/dw/dense
    // demo (the batched kernels this harness used to lack).
    for (label, size) in [
        ("scatter-heavy serving demo", wp_server::demo::DemoSize::Serve),
        ("stem-heavy serving demo", wp_server::demo::DemoSize::Stem),
    ] {
        let net = wp_server::demo::demo_prepared(size, 1);
        println!("== Batched vs solo execution ({label}, 1 thread) ==");
        for batch in [1usize, 8, 32] {
            let inputs = net.fabricate_inputs(batch, 5);
            let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
            let solo_out: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
            assert_eq!(
                net.run(&refs, &mut Scratch::new()),
                solo_out,
                "batched must be bit-identical"
            );
            let mut solo = f64::INFINITY;
            let mut batched = f64::INFINITY;
            for _ in 0..reps.min(5) {
                let t = Instant::now();
                for x in &inputs {
                    std::hint::black_box(net.run_one(x));
                }
                solo = solo.min(t.elapsed().as_secs_f64());
                let t = Instant::now();
                std::hint::black_box(net.run(&refs, &mut Scratch::new()));
                batched = batched.min(t.elapsed().as_secs_f64());
            }
            println!(
                "batch {batch:>2}: solo {:>8.1} img/s  batched {:>8.1} img/s  ({:.2}x, outputs identical)",
                batch as f64 / solo,
                batch as f64 / batched,
                solo / batched
            );
        }
        println!();
    }

    // --- 4. Backend tiers: scalar vs swar (vs avx2) -----------------------
    // The backend-selection A/B: the same serving demos compiled per
    // kernel tier via EngineOptions::with_backend, run through the plain
    // PreparedNet::run serving path on one thread. The scalar tier
    // executes the reference per-element loops per image; swar adds the
    // bit-matrix fills, the weight-stationary batched pooled-gather tiles
    // with fused bias+requant write-out, and the pmaddwd kernels for
    // every direct, depthwise and dense layer on SSE2 lanes; avx2 runs
    // the pooled demo's convs on the register-resident scatter and the
    // pmaddwd kernels on AVX2 lanes. Outputs must be bit-identical across
    // every tier. Each trial times every tier once batched and once one
    // image per call, starting from a different tier each time, on one
    // warmed arena per tier kept across trials; the gates divide medians.
    let ab_batch = if effort.fast { 16 } else { 64 };
    let tier_trials = if effort.fast { 7 } else { 11 };
    let mut kinds = vec![BackendKind::Scalar, BackendKind::Swar];
    if avx2_available() {
        kinds.push(BackendKind::Avx2);
    }
    let mut sections = Vec::new();
    for (label, key, size) in [
        ("pooled-conv serving demo", "pooled_conv", wp_server::demo::DemoSize::Serve),
        ("stem demo", "stem", wp_server::demo::DemoSize::Stem),
    ] {
        let (bundle, opts) = wp_server::demo::demo_deployment(size, 1);
        println!(
            "== Backend tiers ({label}, batch {ab_batch}, 1 thread, {tier_trials} rotating \
             trials per tier, kept arenas) =="
        );
        let mut nets: Vec<PreparedNet> = kinds
            .iter()
            .map(|&kind| PreparedNet::from_bundle(&bundle, &opts.clone().with_backend(kind)))
            .collect();
        let inputs = nets[0].fabricate_inputs(ab_batch, 5);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let mut arenas: Vec<Scratch> = nets.iter().map(|_| Scratch::new()).collect();
        let reference = nets[0].run(&refs, &mut arenas[0]);
        for (net, arena) in nets.iter().zip(&mut arenas).skip(1) {
            let out = net.run(&refs, arena);
            assert_eq!(out, reference, "{} outputs must be bit-identical", net.backend_kind());
            arena.put_planes(out);
        }
        // images/sec per tier, batched and one image per call.
        let mut batched = vec![Vec::with_capacity(tier_trials); nets.len()];
        let mut solo = batched.clone();
        for trial in 0..tier_trials {
            for turn in 0..nets.len() {
                let t = (trial + turn) % nets.len();
                let (net, arena) = (&nets[t], &mut arenas[t]);
                let start = Instant::now();
                let out = std::hint::black_box(net.run(&refs, arena));
                batched[t].push(ab_batch as f64 / start.elapsed().as_secs_f64());
                arena.put_planes(out);
                let start = Instant::now();
                for one in refs.chunks(1) {
                    let out = std::hint::black_box(net.run(one, arena));
                    arena.put_planes(out);
                }
                solo[t].push(ab_batch as f64 / start.elapsed().as_secs_f64());
            }
        }
        let tiers: Vec<TierRates> = nets
            .iter()
            .zip(batched.into_iter().zip(solo))
            .map(|(net, (batched, solo))| TierRates {
                name: net.backend_kind().name(),
                batched: quartiles(batched),
                solo: quartiles(solo),
            })
            .collect();
        // One more batched run per tier with a profile attached: where
        // each tier's time goes, layer kind by layer kind.
        let mut layers = Vec::with_capacity(nets.len());
        for (net, arena) in nets.iter_mut().zip(&mut arenas) {
            let profile = std::sync::Arc::new(net.make_profile());
            net.set_profile(Some(std::sync::Arc::clone(&profile)));
            let out = net.run(&refs, arena);
            arena.put_planes(out);
            net.set_profile(None);
            let mut kinds: Vec<(String, f64)> = Vec::new();
            for layer in profile.snapshot().layers {
                let us = layer.latency.sum as f64 / 1e3 / ab_batch as f64;
                match kinds.iter_mut().find(|(kind, _)| *kind == layer.kind) {
                    Some((_, total)) => *total += us,
                    None => kinds.push((layer.kind, us)),
                }
            }
            layers.push(kinds);
        }
        for tier in &tiers {
            let ([b25, b50, b75], [s25, s50, s75]) = (tier.batched, tier.solo);
            println!(
                "{:>7}: {b50:>10.1} images/sec batched ({b25:.1} .. {b75:.1})  \
                 {s50:>10.1} solo ({s25:.1} .. {s75:.1})",
                tier.name
            );
        }
        println!("us per image by layer kind (one profiled batched run per tier):");
        for (tier, kinds) in tiers.iter().zip(&layers) {
            let row: Vec<String> =
                kinds.iter().map(|(kind, us)| format!("{kind} {us:.1}")).collect();
            println!("{:>7}: {}", tier.name, row.join("  "));
        }
        let section = TierSection { key, model: bundle.spec.name.clone(), tiers, layers };
        println!(
            "swar vs scalar: {:.2}x batched, {:.2}x solo  (medians; outputs verified identical)",
            section.ratio(1, 0, false),
            section.ratio(1, 0, true)
        );
        if section.tiers.len() > 2 {
            println!(
                "avx2 vs swar:   {:.2}x solo, {:.2}x batched",
                section.ratio(2, 1, true),
                section.ratio(2, 1, false)
            );
        }
        println!();
        sections.push(section);
    }

    // --- 5. Tracing overhead + per-layer profile --------------------------
    // The observability cost: the aggregate profile is a handful of
    // relaxed atomic adds per layer span when attached and a single
    // Option check per run when not. Profile-off and profile-on runs
    // alternate, each arm on its own warmed arena kept across its runs,
    // so host drift lands on both arms alike and neither times page
    // faults; each arm reports its median and quartiles. The resulting
    // per-layer shares are the committed breakdown of where engine time
    // goes.
    let trials = if effort.fast { 11 } else { 21 };
    let (bundle, opts) = wp_server::demo::demo_deployment(wp_server::demo::DemoSize::Serve, 1);
    let plain = PreparedNet::from_bundle(&bundle, &opts);
    let mut profiled = PreparedNet::from_bundle(&bundle, &opts);
    let profile = std::sync::Arc::new(profiled.make_profile());
    profiled.set_profile(Some(std::sync::Arc::clone(&profile)));
    let inputs = plain.fabricate_inputs(ab_batch, 5);
    let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
    let mut arenas = [Scratch::new(), Scratch::new()];
    let expected = plain.run(&refs, &mut arenas[0]);
    assert_eq!(profiled.run(&refs, &mut arenas[1]), expected, "profiled run must be bit-identical");
    // images/sec of each arm (profile off, on), the arms taking turns to
    // run first.
    let mut rates = [Vec::with_capacity(trials), Vec::with_capacity(trials)];
    for trial in 0..trials + 2 {
        for arm in [trial % 2, 1 - trial % 2] {
            let net = [&plain, &profiled][arm];
            let t = Instant::now();
            let out = std::hint::black_box(net.run(&refs, &mut arenas[arm]));
            let secs = t.elapsed().as_secs_f64();
            arenas[arm].put_planes(out);
            // The first two runs of each arm fill its arena.
            if trial >= 2 {
                rates[arm].push(ab_batch as f64 / secs);
            }
        }
    }
    let [off, on] = rates.map(quartiles);
    let overhead_pct = (off[1] / on[1] - 1.0) * 100.0;
    let tier = plain.backend_kind().name();
    println!(
        "== Tracing overhead (scatter-heavy serving demo, batch {ab_batch}, 1 thread, \
         {trials} alternating runs per arm, kept arenas) =="
    );
    for (label, [p25, median, p75]) in [("profile off", off), ("profile on ", on)] {
        println!("{label}: median {median:>10.1} images/sec  (quartiles {p25:.1} .. {p75:.1})");
    }
    println!("profile on costs {overhead_pct:+.2}% wall time at the median");
    let prof = profile.snapshot();
    let share_sum: f64 = prof.layers.iter().map(|l| l.share).sum();
    println!("layer shares cover {:.1}% of recorded engine time", share_sum * 100.0);
    if show_profile {
        println!(
            "  {:<3} {:<16} {:>7} {:>10} {:>10} {:>10}",
            "L", "kind", "share", "p50 us", "p99 us", "mean us"
        );
        for l in &prof.layers {
            println!(
                "  {:<3} {:<16} {:>6.1}% {:>10.1} {:>10.1} {:>10.1}",
                l.index,
                l.kind,
                l.share * 100.0,
                l.latency.p50 as f64 / 1e3,
                l.latency.p99 as f64 / 1e3,
                l.latency.mean / 1e3
            );
        }
    }
    println!();

    // --- 6. Requant finish: scalar loop vs AVX2 ---------------------------
    // The finish pass alone, over the accumulators demo-serve's
    // requantizing layers really produce (fabricated inputs, calibrated
    // multipliers). Each arm refills its own kept buffers from the raw
    // accumulators, untimed, then times one finish pass over all of them;
    // the arms alternate which goes first, and the first pass of each arm
    // is a warmup.
    let (bundle, opts) = wp_server::demo::demo_deployment(wp_server::demo::DemoSize::Serve, 1);
    let mut finish_arms = vec![BackendKind::Scalar];
    if avx2_available() {
        finish_arms.push(BackendKind::Avx2);
    }
    let finish_nets: Vec<PreparedNet> = finish_arms
        .iter()
        .map(|&kind| PreparedNet::from_bundle(&bundle, &opts.clone().with_backend(kind)))
        .collect();
    let finish_images = 8;
    let raw: Vec<wp_engine::FinishInput> = finish_nets[0]
        .fabricate_inputs(finish_images, 5)
        .iter()
        .flat_map(|x| finish_nets[0].finish_inputs(x))
        .collect();
    let finish_outputs: usize = raw.iter().map(|f| f.acc.len()).sum();
    let outputs_per_image = finish_outputs / finish_images;
    let finish_trials = if effort.fast { 15 } else { 41 };
    let mut finished: Vec<Vec<Vec<i32>>> =
        finish_nets.iter().map(|_| raw.iter().map(|f| f.acc.clone()).collect()).collect();
    let mut finish_ns = vec![Vec::with_capacity(finish_trials); finish_nets.len()];
    for trial in 0..=finish_trials {
        for turn in 0..finish_nets.len() {
            let arm = (trial + turn) % finish_nets.len();
            let (backend, bufs) = (finish_nets[arm].backend(), &mut finished[arm]);
            for (buf, f) in bufs.iter_mut().zip(&raw) {
                buf.copy_from_slice(&f.acc);
            }
            let start = Instant::now();
            for (buf, f) in bufs.iter_mut().zip(&raw) {
                backend.finish_plane(&f.oq, buf, &f.bias, f.plane);
            }
            let secs = start.elapsed().as_secs_f64();
            if trial > 0 {
                finish_ns[arm].push(secs * 1e9 / finish_outputs as f64);
            }
        }
    }
    for (net, bufs) in finish_nets.iter().zip(&finished).skip(1) {
        assert!(bufs == &finished[0], "{} finish must be bit-identical", net.backend_kind());
    }
    let finish_q: Vec<[f64; 3]> = finish_ns.into_iter().map(quartiles).collect();
    println!(
        "== Requant finish (scatter-heavy serving demo, {outputs_per_image} outputs per image, \
         {finish_images} images, {finish_trials} alternating trials per arm, kept buffers) =="
    );
    for (net, [p25, median, p75]) in finish_nets.iter().zip(&finish_q) {
        println!(
            "{:>7}: {median:>7.3} ns/output  ({p25:.3} .. {p75:.3})",
            net.backend_kind().name()
        );
    }
    let finish_ratio = (finish_q.len() > 1).then(|| finish_q[0][1] / finish_q[1][1]);
    if let Some(ratio) = finish_ratio {
        println!("avx2 vs scalar: {ratio:.2}x  (medians; outputs verified identical)");
    } else {
        println!("AVX2 not available: the vector finish is not timed");
    }
    println!();

    if let Some(path) = &out_path {
        let body: Vec<String> =
            sections.iter().map(|section| section.json(ab_batch, tier_trials)).collect();
        let layers: Vec<String> = sections.iter().map(TierSection::layers_json).collect();
        let layer_rows: Vec<String> = prof
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{{\"layer\":{},\"kind\":\"{}\",\"share\":{:.4},\"p50_ns\":{},\"p99_ns\":{},\"mean_ns\":{:.0}}}",
                    l.index, l.kind, l.share, l.latency.p50, l.latency.p99, l.latency.mean
                )
            })
            .collect();
        let finish_rows: Vec<String> = finish_nets
            .iter()
            .zip(&finish_q)
            .map(|(net, [p25, median, p75])| {
                format!(
                    "\"{}\":{{\"p25\":{p25:.3},\"median\":{median:.3},\"p75\":{p75:.3}}}",
                    net.backend_kind().name()
                )
            })
            .collect();
        let finish_ratio_json =
            finish_ratio.map(|r| format!(",\"avx2_over_scalar\":{r:.2}")).unwrap_or_default();
        let report = format!(
            "{{\"bench\":\"engine_backends\",{},{},\"layers\":{{{}}},\
             \"trace_overhead\":{{\"batch\":{ab_batch},\"backend\":\"{tier}\",\"trials\":{trials},\
             \"images_per_sec\":{{\"disabled\":{},\"profiled\":{}}},\
             \"profiled_overhead_pct\":{overhead_pct:.2}}},\
             \"profile\":{{\"model\":\"demo-serve\",\"share_sum\":{share_sum:.4},\"layers\":[{}]}},\
             \"finish\":{{\"model\":\"demo-serve\",\"outputs_per_image\":{outputs_per_image},\
             \"images\":{finish_images},\"trials\":{finish_trials},\
             \"ns_per_output\":{{{}}}{finish_ratio_json}}}}}\n",
            fingerprint(),
            body.join(","),
            layers.join(","),
            quartiles_json(off),
            quartiles_json(on),
            layer_rows.join(","),
            finish_rows.join(",")
        );
        std::fs::write(path, &report).expect("write bench JSON");
        println!("wrote {path}");
    }

    // Acceptance gates, on ratios of medians: the swar tier must hold >=2x
    // over scalar on both serving regimes (floor well under the typical
    // measured margin, so shared-runner scheduler noise cannot flake CI).
    for section in &sections {
        let ratio = section.ratio(1, 0, false);
        assert!(
            ratio >= 2.0,
            "swar backend only {ratio:.2}x over scalar on the {} section (gate: >=2x)",
            section.key
        );
    }
    // On the stem demo the swar tier's SSE2 madd kernels must hold >=10x
    // over the scalar reference loops, solo and batched.
    for (arm, solo) in [("solo", true), ("batched", false)] {
        let ratio = sections[1].ratio(1, 0, solo);
        assert!(
            ratio >= 10.0,
            "swar only {ratio:.2}x over scalar {arm} on the stem demo (gate: >=10x)"
        );
    }
    // Where the CPU has AVX2, the register-resident pooled scatter must
    // hold >=2x over the swar tier's gather on solo calls and >=1.5x on
    // batched ones (the batched gather already amortizes its index
    // decode across the tile).
    if sections[0].tiers.len() > 2 {
        let (solo, batched) = (sections[0].ratio(2, 1, true), sections[0].ratio(2, 1, false));
        assert!(solo >= 2.0, "avx2 only {solo:.2}x over swar solo on the pooled demo (gate: >=2x)");
        assert!(
            batched >= 1.5,
            "avx2 only {batched:.2}x over swar batched on the pooled demo (gate: >=1.5x)"
        );
    }
    // Where the CPU has AVX2, the stem demo's madd kernels must hold
    // >=1.4x on the AVX2 lanes over the swar tier's SSE2 lanes, solo and
    // batched: the same kernel body at twice the register width.
    if sections[1].tiers.len() > 2 {
        for (arm, solo) in [("solo", true), ("batched", false)] {
            let ratio = sections[1].ratio(2, 1, solo);
            assert!(
                ratio >= 1.4,
                "avx2 only {ratio:.2}x over swar {arm} on the stem demo (gate: >=1.4x)"
            );
        }
    }
    // The avx2 tier's vector finish is a second path beside the reference
    // loop, so it must hold >=3x over the scalar finish per output.
    if let Some(ratio) = finish_ratio {
        assert!(ratio >= 3.0, "avx2 finish only {ratio:.2}x over the scalar finish (gate: >=3x)");
    }
}

/// The 25th, 50th and 75th percentiles of `samples`.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// `{"p25":..,"median":..,"p75":..}` for [`quartiles`] output.
fn quartiles_json([p25, median, p75]: [f64; 3]) -> String {
    format!("{{\"p25\":{p25:.1},\"median\":{median:.1},\"p75\":{p75:.1}}}")
}

/// One tier's images/sec quartiles in section 4, batched and one image
/// per call.
struct TierRates {
    name: &'static str,
    batched: [f64; 3],
    solo: [f64; 3],
}

/// Section 4's result for one demo: its tiers in `scalar`, `swar`,
/// (`avx2`) order.
struct TierSection {
    key: &'static str,
    /// The demo's model name.
    model: String,
    tiers: Vec<TierRates>,
    /// Per tier, µs per image by layer kind, kinds in walk order.
    layers: Vec<Vec<(String, f64)>>,
}

impl TierSection {
    /// Tier `a`'s median over tier `b`'s, one image per call or batched.
    fn ratio(&self, a: usize, b: usize, solo: bool) -> f64 {
        let median = |t: &TierRates| if solo { t.solo[1] } else { t.batched[1] };
        median(&self.tiers[a]) / median(&self.tiers[b])
    }

    /// `"model":{"tier":{"kind":us,..},..}` for the report's `layers` key.
    fn layers_json(&self) -> String {
        let tiers: Vec<String> = self
            .tiers
            .iter()
            .zip(&self.layers)
            .map(|(tier, kinds)| {
                let kinds: Vec<String> =
                    kinds.iter().map(|(kind, us)| format!("\"{kind}\":{us:.1}")).collect();
                format!("\"{}\":{{{}}}", tier.name, kinds.join(","))
            })
            .collect();
        format!("\"{}\":{{{}}}", self.model, tiers.join(","))
    }

    /// The section's JSON entry: per-tier medians (the keys earlier
    /// reports carried), ratios of medians, and every tier's quartiles.
    fn json(&self, batch: usize, trials: usize) -> String {
        let tiers = |arm: fn(&TierRates) -> String| {
            self.tiers
                .iter()
                .map(|t| format!("\"{}\":{}", t.name, arm(t)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut extra = String::new();
        if self.tiers.len() > 2 {
            extra = format!(
                ",\"avx2_over_swar\":{{\"solo\":{:.2},\"batched\":{:.2}}}",
                self.ratio(2, 1, true),
                self.ratio(2, 1, false)
            );
        }
        format!(
            "\"{}\":{{\"batch\":{batch},\"trials\":{trials},\"images_per_sec\":{{{}}},\
             \"swar_over_scalar\":{:.2},\"solo_images_per_sec\":{{{}}},\
             \"swar_over_scalar_solo\":{:.2}{extra},\
             \"quartiles\":{{\"batched\":{{{}}},\"solo\":{{{}}}}}}}",
            self.key,
            tiers(|t| format!("{:.1}", t.batched[1])),
            self.ratio(1, 0, false),
            tiers(|t| format!("{:.1}", t.solo[1])),
            self.ratio(1, 0, true),
            tiers(|t| quartiles_json(t.batched)),
            tiers(|t| quartiles_json(t.solo)),
        )
    }
}
