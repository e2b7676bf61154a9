//! Bundle-format benchmark: JSON vs entropy-coded WPB vs the entropy
//! bound, on the serving demo model, with the streaming decode path
//! differentially checked against the buffer path.
//!
//! ```sh
//! cargo run --release --bin bundle_size -p wp_bench [-- --out BENCH_bundle.json]
//! ```
//!
//! Writes `BENCH_bundle.json` and **fails (exit 1)** unless
//!
//! * WPB is at least 5x smaller than JSON,
//! * the coded index stream sits within 15% of the measured index
//!   entropy,
//! * WPB decodes at least 1.8x faster than JSON (hot-swap latency term;
//!   measured ~2.4x on an idle host, gated with CI-noise headroom),
//! * the streaming `from_reader` decode reconstructs the buffer decode
//!   exactly with peak transient buffering bounded by the largest
//!   section, and
//! * a bundle decoded from WPB produces engine outputs bit-identical to
//!   one decoded from JSON.
//!
//! These are the acceptance gates of the WPB format; CI runs this binary
//! so a regression in the codec's compression, speed, or fidelity fails
//! the build, not just a dashboard.

use std::time::Instant;
use wp_core::deploy::codec::{index_stream_stats, Format};
use wp_core::deploy::DeployBundle;
use wp_engine::{EngineOptions, PreparedNet};
use wp_server::demo::{demo_bundle, DemoSize};

fn main() {
    let mut out = "BENCH_bundle.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            other => {
                eprintln!("bundle_size: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let bundle = demo_bundle(DemoSize::Serve, 1);
    let json = bundle.to_bytes(Format::Json).expect("json encode");
    let wpb = bundle.to_bytes(Format::Wpb).expect("wpb encode");
    let ratio = json.len() as f64 / wpb.len() as f64;

    // Decode wall time (best of 15, after warmup): the hot-swap reload
    // latency term. Best-of damps scheduler noise on shared CI runners.
    let best_decode = |bytes: &[u8]| {
        let _ = DeployBundle::from_bytes(bytes).expect("decode");
        (0..15)
            .map(|_| {
                let t = Instant::now();
                let decoded = DeployBundle::from_bytes(bytes).expect("decode");
                assert_eq!(decoded.spec.name, bundle.spec.name);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let json_decode_ms = best_decode(&json) * 1e3;
    let wpb_decode_ms = best_decode(&wpb) * 1e3;
    let decode_speedup = json_decode_ms / wpb_decode_ms;

    // Streaming differential: `from_reader` must reconstruct exactly what
    // the buffer decode does while never transiently buffering more than
    // the largest section (the "no whole-file intermediate buffer"
    // property the registry cold-start relies on).
    let buffered = DeployBundle::from_bytes(&wpb).expect("buffer decode");
    let (streamed, decode_stats) =
        DeployBundle::from_reader_with_stats(wpb.as_slice()).expect("streaming decode");
    let streaming_identical = buffered == streamed;
    let peak_transient_bytes = decode_stats.peak_transient_bytes;
    let largest_section_bytes = decode_stats.largest_section_bytes;
    assert!(
        peak_transient_bytes <= largest_section_bytes,
        "peak transient {peak_transient_bytes} exceeds largest section {largest_section_bytes}"
    );

    // Index-stream accounting: fixed width vs WPB coding vs entropy.
    let stats = index_stream_stats(&bundle);
    let total_indices: usize = stats.iter().map(|s| s.count).sum();
    let coded_bits_per_idx: f64 =
        stats.iter().map(|s| s.coded_bits * s.count as f64).sum::<f64>() / total_indices as f64;
    let entropy_bits_per_idx = bundle.index_entropy_bits();
    // Per-layer entropies weighted by stream length: the bound a
    // per-layer coder is actually held to (the global histogram blurs
    // layers with different popular vectors into something flatter).
    let layer_entropy_bits_per_idx: f64 =
        stats.iter().map(|s| s.entropy_bits * s.count as f64).sum::<f64>() / total_indices as f64;
    let entropy_bound_index_bytes = (entropy_bits_per_idx * total_indices as f64 / 8.0).ceil();
    let coded_vs_entropy = coded_bits_per_idx / entropy_bits_per_idx;
    let coded_vs_layer_entropy = coded_bits_per_idx / layer_entropy_bits_per_idx;

    // Fidelity: both decodes must compile to bit-identical engines.
    let opts = EngineOptions::default();
    let from_json =
        PreparedNet::from_bundle(&DeployBundle::from_bytes(&json).expect("json decode"), &opts);
    let from_wpb =
        PreparedNet::from_bundle(&DeployBundle::from_bytes(&wpb).expect("wpb decode"), &opts);
    let inputs = from_json.fabricate_inputs(8, 0x517E);
    let outputs_identical = inputs.iter().all(|x| from_json.run_one(x) == from_wpb.run_one(x));

    println!("== Bundle format: demo-serve ==");
    println!("json:          {:>9} bytes  (decode {:.2} ms)", json.len(), json_decode_ms);
    println!(
        "wpb:           {:>9} bytes  (decode {:.2} ms, {decode_speedup:.2}x faster than json)",
        wpb.len(),
        wpb_decode_ms
    );
    println!("ratio:         {ratio:>9.2}x smaller than json");
    println!(
        "streaming:     peak transient {peak_transient_bytes} bytes <= largest section \
         {largest_section_bytes} bytes (identical: {streaming_identical})"
    );
    println!("index streams: {total_indices} indices");
    println!("  entropy:     {entropy_bits_per_idx:>9.3} bits/idx global, {layer_entropy_bits_per_idx:.3} per-layer  (bound {entropy_bound_index_bytes:.0} bytes)");
    println!("  wpb coded:   {coded_bits_per_idx:>9.3} bits/idx  ({coded_vs_entropy:.3}x global, {coded_vs_layer_entropy:.3}x per-layer entropy)");
    for s in &stats {
        println!(
            "  conv {:>2}: {:>7} idx, entropy {:.3}, coded {:.3} b/idx, {}",
            s.conv, s.count, s.entropy_bits, s.coded_bits, s.coding
        );
    }
    println!("outputs bit-identical across formats: {outputs_identical}");

    let layers: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "{{\"conv\":{},\"indices\":{},\"entropy_bits\":{:.4},\"coded_bits\":{:.4},\"coding\":\"{}\"}}",
                s.conv, s.count, s.entropy_bits, s.coded_bits, s.coding
            )
        })
        .collect();
    let json_report = format!(
        "{{\"bench\":\"bundle\",{},\"model\":\"demo-serve\",\"json_bytes\":{},\"wpb_bytes\":{},\"json_over_wpb\":{:.2},\"json_decode_ms\":{:.3},\"wpb_decode_ms\":{:.3},\"decode_speedup\":{:.2},\"peak_transient_bytes\":{},\"largest_section_bytes\":{},\"total_indices\":{},\"index_entropy_bits\":{:.4},\"layer_entropy_bits\":{:.4},\"coded_index_bits\":{:.4},\"coded_over_entropy\":{:.4},\"coded_over_layer_entropy\":{:.4},\"entropy_bound_index_bytes\":{:.0},\"outputs_identical\":{},\"streaming_identical\":{},\"layers\":[{}]}}\n",
        wp_bench::fingerprint(),
        json.len(),
        wpb.len(),
        ratio,
        json_decode_ms,
        wpb_decode_ms,
        decode_speedup,
        peak_transient_bytes,
        largest_section_bytes,
        total_indices,
        entropy_bits_per_idx,
        layer_entropy_bits_per_idx,
        coded_bits_per_idx,
        coded_vs_entropy,
        coded_vs_layer_entropy,
        entropy_bound_index_bytes,
        outputs_identical,
        streaming_identical,
        layers.join(",")
    );
    std::fs::write(&out, &json_report).expect("write BENCH_bundle.json");
    println!("wrote {out}");

    // Acceptance gates.
    assert!(outputs_identical, "WPB-decoded engine outputs must equal JSON-decoded outputs");
    assert!(streaming_identical, "from_reader must reconstruct the buffer decode exactly");
    assert!(ratio >= 5.0, "WPB must be >=5x smaller than JSON (got {ratio:.2}x)");
    assert!(
        decode_speedup >= 1.8,
        "WPB must decode >=1.8x faster than JSON (got {decode_speedup:.2}x; \
         measured ~2.4x on an idle host, gated with shared-runner headroom)"
    );
    assert!(
        coded_vs_entropy <= 1.15,
        "coded index bits must be within 15% of entropy (got {coded_vs_entropy:.3}x)"
    );
    assert!(
        coded_vs_layer_entropy <= 1.15,
        "coded index bits must be within 15% of the per-layer entropy bound \
         (got {coded_vs_layer_entropy:.3}x)"
    );
}
