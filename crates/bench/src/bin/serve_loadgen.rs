//! Load generator for `wp_server`: drives a server over real sockets at
//! configurable concurrency, verifies every response bit-for-bit against
//! direct engine execution, and reports throughput and latency.
//!
//! Two ways to run:
//!
//! * **Self-contained benchmark** (default): spawns in-process servers on
//!   ephemeral ports and measures the `max_batch = 1` configuration
//!   against the batched configuration for **both** serving regimes — the
//!   scatter-heavy pooled demo (`demo-serve`) and the stem-heavy
//!   direct/depthwise/dense demo (`demo-stem`) — asserting every response
//!   is bit-identical to `PreparedNet::run_one`, and writes a sectioned
//!   `BENCH_serve.json`. Each section gates its batched arm on
//!   coalescing (see `run_ab_section`) and records its throughput over
//!   `max_batch = 1` ungated.
//!
//!   ```sh
//!   cargo run --release --bin serve_loadgen -p wp_bench [-- --smoke]
//!   ```
//!
//! * **External target**: `--url http://HOST:PORT` drives an already
//!   running `wp_serve` (same demo model seeds, so bit-identity is still
//!   checked); `--model demo|demo-stem` picks which deployed demo to
//!   drive (`wp_serve --demo` serves `demo`, `--demo-stem` adds
//!   `demo-stem`); `--shutdown` sends `POST /v1/shutdown` afterwards and
//!   verifies the server acknowledges (requires `--allow-shutdown` on the
//!   server).
//!
//! Flags: `--concurrency N` (default 16), `--requests N` (default 384),
//! `--smoke` (quick pass: fewer requests),
//! `--out PATH` (default `BENCH_serve.json`), `--trace PATH` (export the
//! driven server's span ring as Chrome `trace_event` JSON after the run —
//! self-contained mode enables tracing on the batched server; `--url`
//! mode asks the external server, which must have been started with
//! `--trace-events`).
//!
//! The **mostly-idle herd** (self-contained mode): the event front's
//! reason to exist is thousands of open-but-quiet keep-alive connections
//! costing a handful of event threads nothing. `--connections N`
//! (default 2000) opens that many keep-alive connections (each proves
//! itself live with one request, then sits) on one of two identical
//! servers, drives the batched workload through that herd server and
//! the herd-free one in turn (5 trials each, alternating which goes
//! first, each at least 1,024 requests and about 0.5 s long), and gates:
//! every connection served, `connections / event-threads >= 500`, and
//! the herd server's median throughput within 10% of the herd-free
//! one's. `--mostly-idle` runs only this scenario (the CI smoke hook); by
//! default it runs after the A/B sections. Results land in the
//! `event_front` section of the JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wp_engine::NativeBackend;
use wp_server::batcher::BatcherConfig;
use wp_server::demo::{demo_deployment, DemoSize};
use wp_server::metrics::Metrics;
use wp_server::protocol::{InferRequest, InferResponse};
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig};

/// The demo seed shared with `wp_serve --demo` (bit-identity across
/// processes relies on both fabricating the same model).
const DEMO_SEED: u64 = 1;

struct Args {
    url: Option<String>,
    model: String,
    concurrency: usize,
    requests: usize,
    smoke: bool,
    shutdown: bool,
    out: String,
    trace: Option<String>,
    connections: usize,
    mostly_idle: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        url: None,
        model: "demo".into(),
        concurrency: 16,
        requests: 384,
        smoke: false,
        shutdown: false,
        out: "BENCH_serve.json".into(),
        trace: None,
        connections: 2000,
        mostly_idle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--url" => args.url = Some(value("--url")),
            "--model" => args.model = value("--model"),
            "--concurrency" => args.concurrency = value("--concurrency").parse().expect("number"),
            "--requests" => args.requests = value("--requests").parse().expect("number"),
            "--smoke" => args.smoke = true,
            "--shutdown" => args.shutdown = true,
            "--out" => args.out = value("--out"),
            "--trace" => args.trace = Some(value("--trace")),
            "--connections" => args.connections = value("--connections").parse().expect("number"),
            "--mostly-idle" => args.mostly_idle = true,
            other => panic!("unknown flag {other:?}"),
        }
    }
    if args.smoke {
        args.requests = args.requests.min(96);
    }
    assert!(args.concurrency >= 1, "concurrency must be positive");
    assert!(args.connections >= 1, "connections must be positive");
    assert!(
        !(args.mostly_idle && args.url.is_some()),
        "--mostly-idle is self-contained (it needs to know the server's event-thread count); \
         it cannot drive --url"
    );
    args
}

/// One measured configuration.
struct RunResult {
    label: String,
    requests: usize,
    errors: usize,
    elapsed: Duration,
    latencies_us: Vec<u64>,
}

impl RunResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// Sends `POST /v1/infer` over an existing connection, returns
/// `(status, body, wall time)`.
fn infer_once(
    stream: &mut BufReader<TcpStream>,
    host: &str,
    body: &str,
) -> (u16, String, Duration) {
    let started = Instant::now();
    write!(
        stream.get_mut(),
        "POST /v1/infer HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    stream.get_mut().flush().expect("flush");
    let (status, body) = read_response(stream);
    (status, body, started.elapsed())
}

fn read_response(stream: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    stream.read_line(&mut line).expect("status line");
    let status: u16 =
        line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        stream.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("length");
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.trim().eq_ignore_ascii_case("chunked");
            }
        }
    }
    let body = if chunked {
        // Large responses (multi-plane outputs past the server's chunk
        // threshold) arrive chunk-framed; reassemble them.
        let mut body = Vec::new();
        loop {
            let mut size_line = String::new();
            stream.read_line(&mut size_line).expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size hex");
            if size == 0 {
                let mut epilogue = String::new();
                stream.read_line(&mut epilogue).expect("chunk epilogue");
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            stream.read_exact(&mut body[start..]).expect("chunk data");
            let mut crlf = [0u8; 2];
            stream.read_exact(&mut crlf).expect("chunk terminator");
            assert_eq!(&crlf, b"\r\n", "chunk not CRLF-terminated");
        }
        body
    } else {
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).expect("body");
        body
    };
    (status, String::from_utf8(body).expect("utf-8"))
}

/// Drives `requests` inferences at `concurrency` over `addr`, verifying
/// each response against `expected`.
fn drive(
    label: &str,
    addr: &str,
    model: &str,
    inputs: &[Vec<i32>],
    expected: &[Vec<i32>],
    requests: usize,
    concurrency: usize,
) -> RunResult {
    let cursor = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    // Every client connects before any sends, so the first requests
    // arrive together instead of staggered by thread start-up.
    let connected = std::sync::Barrier::new(concurrency);
    let started = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let cursor = &cursor;
                let errors = &errors;
                let connected = &connected;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                    let mut stream = BufReader::new(stream);
                    connected.wait();
                    let mut lat = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            break;
                        }
                        let slot = i % inputs.len();
                        let body = serde_json::to_string(&InferRequest {
                            model: Some(model.to_string()),
                            inputs: vec![inputs[slot].clone()],
                        })
                        .unwrap();
                        let (status, body, elapsed) = infer_once(&mut stream, addr, &body);
                        lat.push(elapsed.as_micros() as u64);
                        if status != 200 {
                            errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let resp: InferResponse = serde_json::from_str(&body).expect("json");
                        if resp.outputs.len() != 1 || resp.outputs[0] != expected[slot] {
                            panic!(
                                "response for input {slot} differs from direct execution \
                                 (batching must be bit-invisible)"
                            );
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    RunResult {
        label: label.to_string(),
        requests,
        errors: errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
        latencies_us: latencies.into_iter().flatten().collect(),
    }
}

/// Starts an in-process server deploying one demo model under `name`
/// with the given flush size; `trace_events > 0` attaches a span ring of
/// that many events.
fn local_server(
    max_batch: usize,
    size: DemoSize,
    name: &str,
    trace_events: usize,
) -> wp_server::ServerHandle {
    let batcher =
        BatcherConfig { max_batch, max_wait: Duration::from_millis(2), ..BatcherConfig::default() };
    let registry = Arc::new(
        ModelRegistry::new(batcher, Arc::new(Metrics::new())).with_trace_capacity(trace_events),
    );
    let (bundle, opts) = demo_deployment(size, DEMO_SEED);
    registry.insert_bundle(name, &bundle, opts);
    serve(ServerConfig { allow_remote_shutdown: true, ..ServerConfig::default() }, registry)
        .expect("bind server")
}

/// One plain GET over a fresh connection.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut stream = BufReader::new(stream);
    write!(stream.get_mut(), "GET {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n")
        .expect("write");
    stream.get_mut().flush().expect("flush");
    read_response(&mut stream)
}

/// Exports the server's span ring for `model` to `path` (Chrome
/// `trace_event` JSON, loadable in chrome://tracing or Perfetto).
fn export_trace(addr: &str, model: &str, path: &str) {
    let (status, body) = http_get(addr, &format!("/v1/models/{model}/trace"));
    assert_eq!(
        status, 200,
        "trace export failed ({status}); external servers need --trace-events: {body}"
    );
    assert!(body.contains("\"traceEvents\""), "not a Chrome trace: {body}");
    std::fs::write(path, &body).expect("write trace file");
    println!("wrote {path} ({} bytes of Chrome trace)", body.len());
}

fn report(result: &RunResult) {
    println!(
        "{:<18} {:>7} req  {:>9.1} req/s  p50 {:>7} us  p99 {:>7} us  errors {}",
        result.label,
        result.requests,
        result.rps(),
        result.percentile(0.50),
        result.percentile(0.99),
        result.errors
    );
}

fn json_entry(result: &RunResult, max_batch: usize) -> String {
    format!(
        "{{\"label\":\"{}\",\"max_batch\":{},\"requests\":{},\"errors\":{},\"rps\":{:.1},\"p50_us\":{},\"p99_us\":{}}}",
        result.label,
        max_batch,
        result.requests,
        result.errors,
        result.rps(),
        result.percentile(0.50),
        result.percentile(0.99)
    )
}

/// The demo a deployed model name refers to — bit-identity checks only
/// make sense against the demo fabrication, so anything else is a hard
/// error, not a silent fallback to the wrong oracle.
fn demo_size_for(model: &str) -> DemoSize {
    match model {
        "demo" | "demo-serve" => DemoSize::Serve,
        "demo-stem" => DemoSize::Stem,
        other => panic!(
            "--model {other:?} is not a fabricated demo model; this load generator verifies \
             responses bit-for-bit against the demo oracle, so only 'demo', 'demo-serve' and \
             'demo-stem' are supported"
        ),
    }
}

/// The expected-output oracle for a deployed demo model name.
fn oracle(model: &str) -> (Vec<Vec<i32>>, Vec<Vec<i32>>) {
    let net = wp_server::demo::demo_prepared(demo_size_for(model), DEMO_SEED);
    let inputs = net.fabricate_inputs(64, 777);
    let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
    (inputs, expected)
}

/// One self-contained A/B section: unbatched vs batched server over one
/// demo model, returning the section's JSON.
///
/// The gate is that concurrent requests coalesce: with at least two
/// engine tiles of clients in flight, the batched server's mean batch is
/// at least one tile ([`NativeBackend::BATCH_TILE`] planes). It is
/// checked on smoke runs too. Throughput over `max_batch = 1` is
/// reported but not gated: on the avx2 tier every layer kind runs one
/// per-image kernel as fast solo as batched (the register-resident
/// pooled scatter; the madd direct, depthwise and dense kernels), so
/// batching buys neither demo engine throughput.
fn run_ab_section(model: &str, args: &Args) -> String {
    let batched_size = 32;
    let size = demo_size_for(model);
    let (inputs, expected) = oracle(model);

    println!("-- model {model} --");
    // Trace export (when asked) comes from the batched server of the
    // first section, the configuration the trace is most useful for.
    let trace_out = args.trace.as_deref().filter(|_| model == "demo-serve");
    let mut unbatched_server = local_server(1, size, model, 0);
    let unbatched = drive(
        "max_batch=1",
        &unbatched_server.addr().to_string(),
        model,
        &inputs,
        &expected,
        args.requests,
        args.concurrency,
    );
    unbatched_server.shutdown();
    report(&unbatched);

    let mut batched_server =
        local_server(batched_size, size, model, if trace_out.is_some() { 1 << 16 } else { 0 });
    let batched = drive(
        &format!("max_batch={batched_size}"),
        &batched_server.addr().to_string(),
        model,
        &inputs,
        &expected,
        args.requests,
        args.concurrency,
    );
    let snapshot = batched_server.registry().metrics_snapshot();
    if let Some(path) = trace_out {
        export_trace(&batched_server.addr().to_string(), model, path);
    }
    batched_server.shutdown();
    report(&batched);

    assert_eq!(unbatched.errors + batched.errors, 0, "every request must return 200");
    let speedup = batched.rps() / unbatched.rps();
    let mean_batch = snapshot.inferences as f64 / snapshot.batches.max(1) as f64;
    println!(
        "batched/unbatched throughput ({model}): {speedup:.2}x  (batches: {}, mean planes/batch {mean_batch:.1})",
        snapshot.batches
    );
    if args.concurrency >= 2 * NativeBackend::BATCH_TILE {
        assert!(
            mean_batch >= NativeBackend::BATCH_TILE as f64,
            "{} concurrent clients on {model} must coalesce into batches of >= {} planes on \
             average (got {mean_batch:.1})",
            args.concurrency,
            NativeBackend::BATCH_TILE
        );
    }
    format!(
        "{{\"model\":\"{model}\",\"configs\":[{},{}],\"batched_speedup\":{speedup:.2},\"mean_batch\":{mean_batch:.1}}}",
        json_entry(&unbatched, 1),
        json_entry(&batched, batched_size)
    )
}

/// Reads an integer counter out of a `/metrics` JSON snapshot without a
/// full JSON parser (the vendored shim deserializes into structs, not a
/// generic value tree, and the load generator only needs two gauges).
fn snapshot_counter(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} missing from /metrics: {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// One `GET /healthz` over an already-open keep-alive connection.
fn poke(stream: &mut BufReader<TcpStream>, host: &str) -> u16 {
    write!(stream.get_mut(), "GET /healthz HTTP/1.1\r\nHost: {host}\r\nContent-Length: 0\r\n\r\n")
        .expect("write poke");
    stream.get_mut().flush().expect("flush poke");
    read_response(stream).0
}

/// Measured passes per arm of the mostly-idle herd scenario.
const HERD_TRIALS: usize = 5;

/// Shortest herd-scenario pass, in seconds at the warmed rate, and its
/// fewest requests. Passes of 256 requests (0.1–0.2 s) swung more than
/// the 10% the gate must resolve.
const HERD_PASS_SECS: f64 = 0.5;
const HERD_PASS_REQUESTS: usize = 1024;

/// The mostly-idle herd scenario: `connections` keep-alive connections
/// parked on a small pool of event threads while the batched workload
/// runs through them. Gates the event front's acceptance criteria and
/// returns the `event_front` JSON section.
fn run_event_front_section(args: &Args) -> String {
    let model = "demo-serve";
    let event_threads = 2usize;
    let (inputs, expected) = oracle(model);
    // Two identical servers; the herd parks on the second. The herd must
    // outlive the measurement, so the idle reaper gets a horizon far
    // beyond the run; batching config matches the A/B batched arm so
    // throughput numbers are comparable.
    let batcher = BatcherConfig {
        max_batch: 32,
        max_wait: Duration::from_millis(2),
        ..BatcherConfig::default()
    };
    let start_server = || {
        let registry = Arc::new(ModelRegistry::new(batcher, Arc::new(Metrics::new())));
        let (bundle, opts) = demo_deployment(DemoSize::Serve, DEMO_SEED);
        registry.insert_bundle(model, &bundle, opts);
        let config = ServerConfig {
            event_threads,
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        };
        serve(config, registry).expect("bind event-front server")
    };
    let mut servers = [start_server(), start_server()];
    let addrs = servers.each_ref().map(|server| server.addr().to_string());
    let addr = &addrs[1];

    println!("-- event front: {} mostly-idle connections --", args.connections);
    // A measurement this scenario gates at +/-10% needs passes long
    // enough to settle, independent of the smoke cap: warm both servers up
    // (so neither arm pays first-touch costs), then size every pass to
    // last at least `HERD_PASS_SECS` at the faster warmed rate.
    let warmed = addrs
        .each_ref()
        .map(|addr| drive("warmup", addr, model, &inputs, &expected, 256, args.concurrency).rps());
    let requests = args
        .requests
        .max(HERD_PASS_REQUESTS)
        .max((warmed[0].max(warmed[1]) * HERD_PASS_SECS).ceil() as usize);

    // Open the herd. Every connection proves itself live with one
    // request, then sits in keep-alive.
    let herd_started = Instant::now();
    let mut herd = Vec::with_capacity(args.connections);
    for i in 0..args.connections {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!("herd connect {i}/{} failed: {e} (check ulimit -n)", args.connections)
        });
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut stream = BufReader::new(stream);
        assert_eq!(poke(&mut stream, addr), 200, "herd connection {i} refused");
        herd.push(stream);
    }
    println!("herd up: {} connections in {:.2}s", herd.len(), herd_started.elapsed().as_secs_f64());
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200, "metrics probe failed");
    let open = snapshot_counter(&body, "connections_open");
    assert!(
        open >= args.connections as u64,
        "server reports only {open} open connections with a {} herd parked",
        args.connections
    );

    // "Mostly idle", not comatose: while the batched workload runs
    // through the herd, a sampling of parked connections keeps trickling
    // the occasional health check.
    let pokers: Vec<_> = {
        let step = (herd.len() / 40).max(1);
        let mut sampled = Vec::new();
        let mut i = 0;
        while i < herd.len() {
            sampled.push(herd.swap_remove(i));
            i += step;
        }
        sampled
    };
    // The arms take turns, the herd parked throughout, so host drift
    // lands on both alike; the pokers trickle only while the herd arm
    // runs.
    let poking = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let poke_errors = AtomicUsize::new(0);
    let runs = std::thread::scope(|scope| {
        let (poking, done, poke_errors) = (&poking, &done, &poke_errors);
        let poker = scope.spawn(move || {
            let mut pokers = pokers;
            while !done.load(Ordering::Relaxed) {
                if poking.load(Ordering::Relaxed) {
                    for stream in &mut pokers {
                        if poke(stream, addr) != 200 {
                            poke_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            pokers
        });
        let mut runs: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for trial in 0..HERD_TRIALS {
            for arm in [trial % 2, 1 - trial % 2] {
                poking.store(arm == 1, Ordering::Relaxed);
                let label = ["no idle herd", "with idle herd"][arm];
                let run = drive(
                    label,
                    &addrs[arm],
                    model,
                    &inputs,
                    &expected,
                    requests,
                    args.concurrency,
                );
                report(&run);
                runs[arm].push(run);
            }
        }
        done.store(true, Ordering::Relaxed);
        herd.extend(poker.join().expect("poker thread"));
        runs
    });
    drop(herd);
    for server in &mut servers {
        server.shutdown();
    }

    let errors = runs.iter().flatten().map(|run| run.errors).sum::<usize>()
        + poke_errors.load(Ordering::Relaxed);
    assert_eq!(errors, 0, "the event front must serve every request with zero errors");
    let conns_per_thread = args.connections as f64 / event_threads as f64;
    assert!(
        conns_per_thread >= 500.0,
        "event front must carry >= 500 connections per event thread (got {conns_per_thread:.0} \
         from {} connections on {event_threads} threads)",
        args.connections
    );
    // Per arm: req/s quartiles, and the median of the runs' p99 latencies.
    let [unloaded, loaded] = runs.map(|runs| {
        let mut rps: Vec<f64> = runs.iter().map(RunResult::rps).collect();
        let mut p99: Vec<u64> = runs.iter().map(|run| run.percentile(0.99)).collect();
        rps.sort_by(f64::total_cmp);
        p99.sort_unstable();
        let at = |q: f64| rps[((rps.len() - 1) as f64 * q).round() as usize];
        ([at(0.25), at(0.5), at(0.75)], p99[p99.len() / 2])
    });
    let ratio = loaded.0[1] / unloaded.0[1];
    println!(
        "idle-herd throughput ratio: {ratio:.3} (medians of {HERD_TRIALS} alternating runs: \
         {:.1} -> {:.1} req/s, {:.0} conns/event-thread)",
        unloaded.0[1], loaded.0[1], conns_per_thread
    );
    assert!(
        ratio >= 0.9,
        "{} parked connections must not cost more than 10% batched throughput \
         (medians {:.1} -> {:.1} req/s, ratio {ratio:.3})",
        args.connections,
        unloaded.0[1],
        loaded.0[1]
    );
    let quartiles = |[p25, median, p75]: [f64; 3]| {
        format!("{{\"p25\":{p25:.1},\"median\":{median:.1},\"p75\":{p75:.1}}}")
    };
    format!(
        "{{\"connections\":{},\"event_threads\":{event_threads},\
         \"connections_per_event_thread\":{conns_per_thread:.0},\"trials\":{HERD_TRIALS},\
         \"rps_unloaded\":{:.1},\"rps_mostly_idle\":{:.1},\"idle_load_ratio\":{ratio:.3},\
         \"rps_quartiles\":{{\"unloaded\":{},\"mostly_idle\":{}}},\
         \"p99_us_unloaded\":{},\"p99_us_mostly_idle\":{},\"errors\":{errors}}}",
        args.connections,
        unloaded.0[1],
        loaded.0[1],
        quartiles(unloaded.0),
        quartiles(loaded.0),
        unloaded.1,
        loaded.1
    )
}

fn main() {
    let args = parse_args();
    println!(
        "serve_loadgen: {} requests, concurrency {}{}",
        args.requests,
        args.concurrency,
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut sections = Vec::new();
    let mut event_front = None;
    if let Some(url) = &args.url {
        // External server: one configuration, whatever the server runs.
        let (inputs, expected) = oracle(&args.model);
        let addr = url.strip_prefix("http://").unwrap_or(url).trim_end_matches('/').to_string();
        let result = drive(
            "external",
            &addr,
            &args.model,
            &inputs,
            &expected,
            args.requests,
            args.concurrency,
        );
        report(&result);
        assert_eq!(result.errors, 0, "every request must return 200");
        sections.push(format!(
            "{{\"model\":\"{}\",\"configs\":[{}],\"batched_speedup\":1.0}}",
            args.model,
            json_entry(&result, 0)
        ));
        if let Some(path) = &args.trace {
            export_trace(&addr, &args.model, path);
        }
        if args.shutdown {
            let stream = TcpStream::connect(&addr).expect("connect for shutdown");
            let mut stream = BufReader::new(stream);
            write!(
                stream.get_mut(),
                "POST /v1/shutdown HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n"
            )
            .expect("write shutdown");
            stream.get_mut().flush().unwrap();
            let (status, body) = read_response(&mut stream);
            assert_eq!(status, 200, "clean shutdown refused: {body}");
            println!("server acknowledged shutdown");
        }
    } else {
        // Self-contained A/B over both serving regimes: the scatter-heavy
        // pooled demo and the stem-heavy direct/depthwise/dense demo.
        // `--mostly-idle` skips the A/B arms and runs only the herd
        // scenario (the CI smoke hook).
        if !args.mostly_idle {
            for model in ["demo-serve", "demo-stem"] {
                sections.push(run_ab_section(model, &args));
            }
        }
        event_front = Some(run_event_front_section(&args));
    }

    let json = format!(
        "{{\"bench\":\"serve\",{},\"concurrency\":{},\"sections\":[{}]{}}}\n",
        wp_bench::fingerprint(),
        args.concurrency,
        sections.join(","),
        event_front.map(|e| format!(",\"event_front\":{e}")).unwrap_or_default()
    );
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    println!("wrote {}", args.out);
    println!("all responses bit-identical to direct PreparedNet execution");
}
