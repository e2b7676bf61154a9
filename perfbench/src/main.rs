//! Serving benchmark: one workload, one seed, end to end or per layer.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pooled-batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! An in-process `wp_server` at its defaults serves a seeded WPB bundle;
//! closed-loop connections in the same process drive it over real
//! sockets. Every response body is compared byte for byte with the
//! output of `PreparedNet::run_one` on the same calibrated plan.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, records spans, and writes a Chrome trace and the
//! per-layer table under `--out` (default `perfbench/out`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any wrong output makes the exit status non-zero.

mod client;
mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod workload;

use client::{reply_ok, ConnResult, HttpConn, Traffic, WireRequest};
use report::{metric, Metric};
use spans::{Clock, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Workload, MODEL};
use wp_engine::{EngineOptions, PreparedNet};
use wp_server::batcher::BatcherConfig;
use wp_server::metrics::Metrics;
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig, ServerHandle};

/// Unmeasured traffic before the window opens (caches, allocator pools,
/// per-worker arenas and CPU frequency settle).
const WARMUP: Duration = Duration::from_secs(1);
/// Deploys timed per run; `setup_s` is their median.
const SETUP_DEPLOYS: usize = 40;
/// Back-to-back HTTP reloads timed in traced runs;
/// `registry.reload_p50_ms` is their median. Host speed drifts over
/// seconds, so the phase spans several seconds.
const RELOADS: usize = 121;

const USAGE: &str = "usage: perfbench --workload <pooled-batch|pooled-solo|stem-lowbit> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: wrong outputs (see `failed`)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A deployed model behind a listening server. Field order is drop
/// order: the server stops before its registry's last handle goes.
struct Served {
    handle: ServerHandle,
    registry: Arc<ModelRegistry>,
}

impl Served {
    /// Starts a server at its defaults in front of `registry`.
    fn start(registry: Arc<ModelRegistry>) -> Result<Self, String> {
        let handle =
            serve(ServerConfig::default(), Arc::clone(&registry)).map_err(|e| e.to_string())?;
        Ok(Self { handle, registry })
    }

    /// Sends one request on a fresh connection.
    fn request(&self, request: &WireRequest) -> Result<client::Response, String> {
        HttpConn::connect(self.handle.addr())
            .and_then(|mut c| c.roundtrip(request.bytes()))
            .map_err(|e| format!("request to {}: {e}", self.handle.addr()))
    }
}

/// An empty registry with the batcher at its defaults.
fn registry() -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new(BatcherConfig::default(), Arc::new(Metrics::new())))
}

/// One timed deploy, torn down afterwards: decode the WPB file once,
/// calibrate as the registry's own reload does, compile into a fresh
/// registry, start the server, and wait for the first response. Returns
/// the seconds it took and whether the response was correct.
fn timed_deploy(
    turn: usize,
    path: &Path,
    base: &EngineOptions,
    probe: &WireRequest,
) -> Result<(f64, bool), String> {
    let start = Instant::now();
    let (bundle, opts) = host::on_cpu(turn, || {
        let (bundle, _) = layers::decode(path)?;
        let opts = Workload::calibrated(&bundle, base);
        Ok::<_, String>((bundle, opts))
    })?;
    let registry = registry();
    registry.insert_bundle(MODEL, &bundle, opts);
    let served = Served::start(registry)?;
    let reply = served.request(probe)?;
    Ok((start.elapsed().as_secs_f64(), reply_ok(&reply, &probe.expected)))
}

/// Counts of checked outputs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One slice of the measured window.
struct Slice {
    start_ns: u64,
    end_ns: u64,
    /// Client spans were recorded during this slice.
    traced: bool,
}

/// Runs the measured window as `seconds` one-second slices. Traced runs
/// record client spans in every other slice, so traced and untraced
/// traffic share the host's conditions.
fn run_window(traffic: &Traffic, clock: Clock, seconds: f64, trace: bool) -> Vec<Slice> {
    let n = seconds.round().max(1.0) as u64;
    let slice_ns = (seconds * 1e9 / n as f64) as u64;
    let t0 = clock.now_ns();
    let mut mark = t0;
    (1..=n)
        .map(|i| {
            let traced = trace && i % 2 == 0;
            traffic.set_tracing(traced);
            let due = t0 + i * slice_ns;
            std::thread::sleep(Duration::from_nanos(due.saturating_sub(clock.now_ns())));
            let now = clock.now_ns();
            let slice = Slice { start_ns: mark, end_ns: now, traced };
            mark = now;
            slice
        })
        .collect()
}

/// Client-side results of the measured window.
struct Measured {
    /// Requests whose last byte arrived in the window, and how many of
    /// them were answered correctly.
    attempted: u64,
    ok: u64,
    /// Latency of every correct request, ms.
    latencies_ms: Vec<f64>,
    /// Correct planes per second over the window.
    throughput_ips: f64,
    /// Correct planes per second in traced and in untraced slices.
    traced_ips: f64,
    untraced_ips: f64,
}

/// Attributes each request to the slice its last byte arrived in.
fn measure(results: &[ConnResult], slices: &[Slice]) -> Measured {
    let secs = |s: &Slice| (s.end_ns - s.start_ns) as f64 / 1e9;
    let mut m = Measured {
        attempted: 0,
        ok: 0,
        latencies_ms: Vec::new(),
        throughput_ips: 0.0,
        traced_ips: 0.0,
        untraced_ips: 0.0,
    };
    let (mut traced, mut untraced) = ((0u64, 0.0), (0u64, 0.0));
    for s in slices {
        let t = if s.traced { &mut traced } else { &mut untraced };
        t.1 += secs(s);
    }
    for s in results.iter().flat_map(|r| &r.samples) {
        let i = slices.partition_point(|sl| sl.end_ns <= s.end_ns);
        if i == slices.len() || s.end_ns < slices[i].start_ns {
            continue;
        }
        m.attempted += 1;
        if !s.ok {
            continue;
        }
        m.ok += 1;
        m.latencies_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
        let t = if slices[i].traced { &mut traced } else { &mut untraced };
        t.0 += u64::from(s.planes);
    }
    let rate = |(planes, secs): (u64, f64)| if secs > 0.0 { planes as f64 / secs } else { 0.0 };
    m.throughput_ips = rate((traced.0 + untraced.0, traced.1 + untraced.1));
    m.traced_ips = rate(traced);
    m.untraced_ips = rate(untraced);
    m
}

/// Times `RELOADS` back-to-back `POST /v1/models/{name}/reload` calls on
/// an otherwise idle server and returns their median, in ms.
fn reload_p50_ms(served: &Served) -> Result<f64, String> {
    let mut conn = HttpConn::connect(served.handle.addr()).map_err(|e| e.to_string())?;
    let reload = WireRequest::new("POST", &format!("/v1/models/{MODEL}/reload"), b"", 0);
    let mut times = Vec::with_capacity(RELOADS);
    for _ in 0..RELOADS {
        let start = Instant::now();
        let reply = conn.roundtrip(reload.bytes()).map_err(|e| format!("reload: {e}"))?;
        if reply.status != 200 {
            return Err(format!("reload answered {}", reply.status));
        }
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&times))
}

/// Writes `<prefix>.trace.json` (Chrome trace of `spans`) and
/// `<prefix>.layers.tsv` (the per-layer table).
fn write_trace(
    prefix: &Path,
    process: &str,
    spans: &[spans::Span],
    metrics: &[Metric],
) -> Result<(), String> {
    let trace_path = prefix.with_extension("trace.json");
    let table_path = prefix.with_extension("layers.tsv");
    let table: String =
        metrics.iter().map(|m| format!("{}\t{}\t{}\n", m.name, m.value, m.unit)).collect();
    std::fs::write(&trace_path, spans::chrome_trace_json(spans, process))
        .and_then(|()| std::fs::write(&table_path, format!("metric\tvalue\tunit\n{table}")))
        .map_err(|e| format!("writing trace: {e}"))?;
    println!("wrote {} ({} spans) and {}", trace_path.display(), spans.len(), table_path.display());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let clock = Clock::new();
    let cpu_start = host::CpuTimes::now();
    let w = args.workload;
    let nproc = host::nproc();
    let defaults = BatcherConfig::default();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Inputs: the WPB file the server is handed, and every request with
    // its expected response, built before anything is timed.
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", w.name(), args.seed);
    let path = args.out.join(format!("{stem}.wpb"));
    let bundle = w.bundle(args.seed);
    bundle.save(&path).map_err(|e| format!("save {}: {e}", path.display()))?;
    let model_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let base = Workload::base_options(args.seed);
    let opts = Workload::calibrated(&bundle, &base);
    let net = PreparedNet::from_bundle(&bundle, &opts);
    let conns = w.connections(nproc);
    let requests = w.requests(&net, conns, args.seed);
    let probe = requests[0][0].clone();
    let mut checks = Checks::default();

    let mut setup_s = Vec::with_capacity(SETUP_DEPLOYS);
    for turn in 0..SETUP_DEPLOYS {
        let (secs, ok) = timed_deploy(turn, &path, &base, &probe)?;
        checks.record(ok);
        setup_s.push(secs);
    }

    // The server under traffic, deployed untimed from the file so that
    // reloads re-read it.
    let served = {
        let registry = registry();
        registry.insert_file(MODEL, &path, opts.clone()).map_err(|e| e.to_string())?;
        Served::start(registry)?
    };
    checks.record(reply_ok(&served.request(&probe)?, &probe.expected));
    let entry = served.registry.get(MODEL).map_err(|e| e.to_string())?;

    let traffic = Traffic::start(served.handle.addr(), requests, clock);
    std::thread::sleep(WARMUP);
    let (m0, p0) = (served.registry.metrics_snapshot(), entry.profile_snapshot());
    let t0 = clock.now_ns();
    let slices = run_window(&traffic, clock, args.seconds, args.trace);
    let results = traffic.stop();
    let drained = clock.now_ns();
    let (m1, p1) = (served.registry.metrics_snapshot(), entry.profile_snapshot());

    let measured = measure(&results, &slices);
    for s in results.iter().flat_map(|r| &r.samples) {
        checks.record(s.ok);
    }
    let lat = &measured.latencies_ms;
    let client_mean_ms = stats::mean(lat);
    let window = layers::Window {
        metrics: (&m0, &m1),
        profile: (&p0, &p1),
        wall_s: (drained - t0) as f64 / 1e9,
        client_mean_ms,
        threads: defaults.threads,
        max_batch: defaults.max_batch,
    };
    let sizes = window.batch_sizes();
    println!(
        "traffic: closed loop, {conns} connection(s) x {} plane(s)/request; {} requests \
         ({} latency samples) in {} one-second slices; batch sizes {sizes:?}",
        w.planes_per_request(),
        measured.attempted,
        lat.len(),
        slices.len(),
    );
    if sizes.keys().any(|&s| s != w.planes_per_request()) {
        println!(
            "warning: batches other than the promised {} planes formed",
            w.planes_per_request()
        );
    }

    let mut metrics: Vec<Metric>;
    if args.trace {
        let mut rec = Recorder::new(clock);
        metrics = window.metrics(&workload::ops_per_image(&bundle));
        let direct = layers::Direct {
            bundle: &bundle,
            base: &base,
            opts: &opts,
            net: &net,
            path: &path,
            registry: &served.registry,
            request: &probe,
            threads: defaults.threads,
        };
        let (direct_metrics, attempted, failed) = layers::direct(&direct, &mut rec)?;
        checks.attempted += attempted;
        checks.failed += failed;
        metrics.extend(direct_metrics);
        let reload_ms = reload_p50_ms(&served)?;
        metrics.push(metric("registry.reload_p50_ms", reload_ms, "ms"));

        let (traced, untraced) = (measured.traced_ips, measured.untraced_ips);
        println!(
            "tracing overhead: {:+.2}% throughput (traced {traced:.1} vs untraced {untraced:.1} planes/s)",
            (traced / untraced - 1.0) * 100.0
        );
        let closure =
            window.queue_wait_ms() + window.engine_batch_ms() + window.front_overhead_ms();
        println!(
            "latency closure: queue wait {:.3} + engine/batch {:.3} + front overhead {:.3} = \
             {closure:.3} ms vs client mean {client_mean_ms:.3} ms ({:+.1}%)",
            window.queue_wait_ms(),
            window.engine_batch_ms(),
            window.front_overhead_ms(),
            (closure / client_mean_ms - 1.0) * 100.0
        );

        let mut all_spans = rec.spans;
        all_spans.extend(results.into_iter().flat_map(|r| r.spans));
        all_spans.sort_by_key(|s| s.start_ns);
        write_trace(&args.out.join(&stem), w.name(), &all_spans, &metrics)?;
    } else {
        println!(
            "set-up: median of {SETUP_DEPLOYS} deploys; quartiles {:.1} and {:.1} ms",
            stats::quantile(&setup_s, 0.25).unwrap_or(0.0) * 1e3,
            stats::quantile(&setup_s, 0.75).unwrap_or(0.0) * 1e3,
        );
        println!(
            "tail: p90 {:.6} ms over {} samples (printed, not gated: it follows host steal)",
            stats::quantile(lat, 0.9).unwrap_or(0.0),
            lat.len(),
        );
        metrics = vec![
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("throughput_ips", measured.throughput_ips, "1/s"),
            metric("p50_ms", stats::quantile(lat, 0.5).unwrap_or(0.0), "ms"),
            metric("ok_frac", measured.ok as f64 / measured.attempted.max(1) as f64, "fraction"),
            metric("model_bytes", model_bytes as f64, "bytes"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ];
    }
    // After any reloads the served plan must still answer as deployed.
    checks.record(reply_ok(&served.request(&probe)?, &probe.expected));

    let steal = match (cpu_start, host::CpuTimes::now()) {
        (Some(a), Some(b)) => {
            let (jiffies, share) = b.steal_since(&a);
            format!("{jiffies} jiffies ({:.2}%)", share * 100.0)
        }
        _ => "unavailable".into(),
    };
    println!(
        "fingerprint: git {} | cpu {} | avx2 {} | nproc {nproc} | steal {steal}",
        host::git_sha(),
        host::cpu_model(),
        wp_engine::avx2_available(),
    );
    print!("{}", report::table(&metrics));
    println!("{}", report::result_json(checks.attempted, checks.failed, &metrics));
    Ok(checks.failed == 0)
}
