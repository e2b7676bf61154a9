//! Bundle tooling: inspect, convert and verify deployable bundles in
//! either format (JSON or entropy-coded binary WPB).
//!
//! ```sh
//! # Fabricate a demo bundle (format picked by extension):
//! cargo run --release --bin wp_bundle -p wp_bench -- demo /tmp/demo.json --size serve
//!
//! # Convert it to WPB and back:
//! cargo run --release --bin wp_bundle -p wp_bench -- convert /tmp/demo.json /tmp/demo.wpb
//!
//! # Per-layer coded-vs-entropy report:
//! cargo run --release --bin wp_bundle -p wp_bench -- inspect /tmp/demo.wpb
//!
//! # Verify: one path re-encodes and round-trips; two paths must decode
//! # to bundles with identical engine outputs.
//! cargo run --release --bin wp_bundle -p wp_bench -- verify /tmp/demo.wpb
//! cargo run --release --bin wp_bundle -p wp_bench -- verify /tmp/demo.json /tmp/demo.wpb
//! ```
//!
//! Every failure exits nonzero, so the subcommands compose into CI smoke
//! checks (`demo` → `convert` → `verify`).

use std::path::Path;
use std::process::exit;
use wp_core::deploy::codec::{index_stream_stats, Format};
use wp_core::deploy::DeployBundle;
use wp_engine::{EngineOptions, PreparedNet};
use wp_server::demo::{demo_bundle, DemoSize};

const HELP: &str = "wp_bundle — deploy-bundle tooling (JSON and WPB formats)
    demo OUT [--size tiny|serve] [--seed N]   fabricate a demo bundle
    inspect PATH                              summary + per-layer coding (raw|ans) and coded-vs-entropy bits
    convert IN OUT                            re-encode (input sniffed, output format from extension)
    verify PATH [PATH2]                       round-trip check; 2 paths: bit-identical outputs";

fn fail(msg: &str) -> ! {
    eprintln!("wp_bundle: {msg}");
    exit(1);
}

fn load(path: &str) -> DeployBundle {
    DeployBundle::load(path).unwrap_or_else(|e| fail(&format!("loading {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["demo", out, rest @ ..] => demo(out, rest),
        ["inspect", path] => inspect(path),
        ["convert", from, to] => convert(from, to),
        ["verify", path] => verify_one(path),
        ["verify", a, b] => verify_pair(a, b),
        ["--help"] | ["-h"] | [] => println!("{HELP}"),
        other => fail(&format!("bad arguments {other:?}\n{HELP}")),
    }
}

/// `demo OUT [--size tiny|serve] [--seed N]`.
fn demo(out: &str, rest: &[&str]) {
    let mut size = DemoSize::Serve;
    let mut seed = 1u64;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |name: &str| {
            it.clone().next().copied().unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match *flag {
            "--size" => {
                size = match value("--size") {
                    "tiny" => DemoSize::Tiny,
                    "serve" => DemoSize::Serve,
                    other => fail(&format!("unknown --size {other:?} (tiny|serve)")),
                };
                it.next();
            }
            "--seed" => {
                seed =
                    value("--seed").parse().unwrap_or_else(|e| fail(&format!("bad --seed: {e}")));
                it.next();
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let bundle = demo_bundle(size, seed);
    bundle.save(out).unwrap_or_else(|e| fail(&format!("saving {out}: {e}")));
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out} ({bytes} bytes, {:?} format, model {:?})",
        Format::for_path(Path::new(out)),
        bundle.spec.name
    );
}

/// `inspect PATH`: bundle summary plus the per-layer index-stream report.
fn inspect(path: &str) {
    let raw = std::fs::read(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    let format = Format::sniff(&raw);
    let bundle =
        DeployBundle::from_bytes(&raw).unwrap_or_else(|e| fail(&format!("decoding {path}: {e}")));
    println!("{path}: {format:?} bundle, {} bytes on disk", raw.len());
    println!(
        "model {:?}: input {:?}, {} classes, {} layers, act_bits {}",
        bundle.spec.name,
        bundle.spec.input,
        bundle.spec.classes,
        bundle.spec.layers.len(),
        bundle.act_bits
    );
    println!(
        "pool: {} vectors x {} | lut: {} entries at {} bits ({} bytes)",
        bundle.pool.len(),
        bundle.pool.group_size(),
        bundle.lut.num_patterns() * bundle.lut.pool_size(),
        bundle.lut.bits(),
        bundle.lut.storage_bytes()
    );
    println!("flash payload (fixed-width accounting): {} bytes", bundle.flash_bytes());

    let stats = index_stream_stats(&bundle);
    if stats.is_empty() {
        println!("no pooled layers (nothing to entropy-code)");
    } else {
        println!("pooled index streams (WPB coding, coded vs entropy bound):");
        println!("  conv   indices   entropy b/idx   coded b/idx   coding");
        for s in &stats {
            println!(
                "  {:>4}   {:>7}   {:>13.3}   {:>11.3}   {}",
                s.conv, s.count, s.entropy_bits, s.coded_bits, s.coding
            );
        }
        let total: usize = stats.iter().map(|s| s.count).sum();
        let entropy: f64 = stats.iter().map(|s| s.entropy_bits * s.count as f64).sum();
        let coded: f64 = stats.iter().map(|s| s.coded_bits * s.count as f64).sum();
        println!(
            "  all    {:>7}   {:>13.3}   {:>11.3}   (coded/entropy {:.3}x)",
            total,
            entropy / total.max(1) as f64,
            coded / total.max(1) as f64,
            if entropy > 0.0 { coded / entropy } else { 1.0 }
        );
    }
    let json = bundle.to_bytes(Format::Json).map(|b| b.len()).unwrap_or(0);
    let wpb = bundle.to_bytes(Format::Wpb).map(|b| b.len()).unwrap_or(0);
    println!(
        "re-encoded sizes: json {json} bytes, wpb {wpb} bytes ({:.2}x smaller)",
        json as f64 / wpb.max(1) as f64
    );
}

/// `convert IN OUT`: decode (format sniffed) and re-encode (format by
/// extension).
fn convert(from: &str, to: &str) {
    let bundle = load(from);
    bundle.save(to).unwrap_or_else(|e| fail(&format!("saving {to}: {e}")));
    // Paranoia worth having in a storage tool: what we wrote must load
    // back equal before we report success.
    let back = load(to);
    if back != bundle {
        fail(&format!("round-trip mismatch converting {from} -> {to}"));
    }
    let from_bytes = std::fs::metadata(from).map(|m| m.len()).unwrap_or(0);
    let to_bytes = std::fs::metadata(to).map(|m| m.len()).unwrap_or(0);
    println!(
        "{from} ({from_bytes} bytes) -> {to} ({to_bytes} bytes, {:.2}x)",
        from_bytes as f64 / to_bytes.max(1) as f64
    );
}

/// `verify PATH`: the bundle re-encodes and round-trips in both formats.
fn verify_one(path: &str) {
    let bundle = load(path);
    for format in [Format::Json, Format::Wpb] {
        let bytes =
            bundle.to_bytes(format).unwrap_or_else(|e| fail(&format!("encoding {format:?}: {e}")));
        let back = DeployBundle::from_bytes(&bytes)
            .unwrap_or_else(|e| fail(&format!("decoding re-encoded {format:?}: {e}")));
        if back != bundle {
            fail(&format!("{format:?} round trip is not equal for {path}"));
        }
    }
    println!("{path}: OK (decodes, and round-trips bit-equal through JSON and WPB)");
}

/// `verify A B`: both decode, bundles are equal, and the compiled engines
/// produce bit-identical outputs.
fn verify_pair(a: &str, b: &str) {
    let ba = load(a);
    let bb = load(b);
    if ba != bb {
        fail(&format!("{a} and {b} decode to different bundles"));
    }
    let opts = EngineOptions::default();
    let na = PreparedNet::from_bundle(&ba, &opts);
    let nb = PreparedNet::from_bundle(&bb, &opts);
    let inputs = na.fabricate_inputs(8, 0xB17);
    for input in &inputs {
        if na.run_one(input) != nb.run_one(input) {
            fail(&format!("engine outputs differ between {a} and {b}"));
        }
    }
    println!("{a} == {b}: bundles equal, engine outputs bit-identical on {} inputs", inputs.len());
}
