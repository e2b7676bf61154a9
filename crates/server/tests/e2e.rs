//! End-to-end tests: a real server on a real loopback socket, driven by a
//! hand-rolled HTTP client, checked bit-for-bit against direct engine
//! execution.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use wp_engine::trace::{TraceEvent, TraceSink};
use wp_engine::PreparedNet;
use wp_server::batcher::BatcherConfig;
use wp_server::demo::{demo_deployment, demo_prepared, DemoSize};
use wp_server::metrics::Metrics;
use wp_server::protocol::{InferRequest, InferResponse};
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig, ServerHandle};
use wp_server::MetricsSnapshot;

/// A minimal blocking HTTP client for the tests.
struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Self { stream: BufReader::new(stream) }
    }

    /// Sends one request, returns `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let (status, _, body) = self.request_full(method, path, &[], body);
        (status, body)
    }

    /// Sends one request with extra headers, returns
    /// `(status, response headers, body)`.
    fn request_full(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> (u16, Vec<(String, String)>, String) {
        let body = body.unwrap_or("");
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
        for (k, v) in extra_headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        write!(self.stream.get_mut(), "{head}{body}").expect("write request");
        self.stream.get_mut().flush().unwrap();

        let mut line = String::new();
        self.stream.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.stream.read_line(&mut header).expect("header line");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().expect("content-length");
                }
                headers.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body).expect("body");
        (status, headers, String::from_utf8(body).expect("utf-8 body"))
    }
}

fn start_server(max_batch: usize) -> ServerHandle {
    let batcher =
        BatcherConfig { max_batch, max_wait: Duration::from_millis(2), ..BatcherConfig::default() };
    let registry = Arc::new(ModelRegistry::new(batcher, Arc::new(Metrics::new())));
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 3);
    registry.insert_bundle("demo", &bundle, opts);
    serve(ServerConfig { allow_remote_shutdown: true, ..ServerConfig::default() }, registry)
        .expect("bind")
}

#[test]
fn healthz_models_and_metrics_respond() {
    let mut handle = start_server(8);
    let mut client = Client::connect(&handle);

    let (status, body) = client.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\"") && body.contains("demo"), "{body}");

    let (status, body) = client.request("GET", "/v1/models", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"demo\"") && body.contains("\"input_len\":288"), "{body}");

    let (status, body) = client.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let snap: MetricsSnapshot = serde_json::from_str(&body).expect("metrics json");
    assert!(snap.http_requests >= 2, "own requests counted: {snap:?}");

    handle.shutdown();
}

#[test]
fn infer_is_bit_identical_to_direct_execution_under_concurrency() {
    let mut handle = start_server(8);
    let net = handle.registry().get("demo").unwrap().net();
    let inputs = net.fabricate_inputs(32, 1234);
    let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();

    // 16 concurrent keep-alive connections, two requests each.
    let outputs: Vec<Vec<i32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(2)
            .map(|pair| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    let mut outs = Vec::new();
                    for input in pair {
                        let req = InferRequest {
                            model: Some("demo".into()),
                            inputs: vec![input.clone()],
                        };
                        let (status, body) = client.request(
                            "POST",
                            "/v1/infer",
                            Some(&serde_json::to_string(&req).unwrap()),
                        );
                        assert_eq!(status, 200, "{body}");
                        let resp: InferResponse = serde_json::from_str(&body).unwrap();
                        assert_eq!(resp.model, "demo");
                        outs.extend(resp.outputs);
                    }
                    outs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(outputs, expected, "served responses must equal direct engine outputs");

    // The micro-batcher must actually have coalesced something: with 16
    // concurrent connections and max_batch 8, fewer batches than planes.
    let snap = handle.registry().metrics_snapshot();
    assert_eq!(snap.inferences, 32);
    assert!(snap.batches <= snap.inferences, "{snap:?}");
    // The totals are assembled from the per-model rows.
    assert_eq!(snap.models.len(), 1);
    assert_eq!(snap.models[0].name, "demo");
    assert_eq!(snap.models[0].inferences, 32);
    assert_eq!(snap.models[0].request_latency.count, 32, "per-model request latency recorded");
    handle.shutdown();
}

/// The stem-heavy demo (direct convs + depthwise + dense, no pooled
/// convs) served over real sockets: coalesced responses must be
/// bit-identical to direct execution — this is the end-to-end pin on the
/// weight-stationary batched direct/depthwise/dense kernels.
#[test]
fn stem_heavy_model_serves_bit_identically_under_concurrency() {
    let batcher = BatcherConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        ..BatcherConfig::default()
    };
    let registry = Arc::new(ModelRegistry::new(batcher, Arc::new(Metrics::new())));
    let (bundle, opts) = demo_deployment(DemoSize::Stem, 3);
    registry.insert_bundle("demo-stem", &bundle, opts);
    let mut handle =
        serve(ServerConfig { allow_remote_shutdown: true, ..ServerConfig::default() }, registry)
            .expect("bind");

    let net = handle.registry().get("demo-stem").unwrap().net();
    let inputs = net.fabricate_inputs(12, 555);
    let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();

    let outputs: Vec<Vec<i32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(2)
            .map(|pair| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    let mut outs = Vec::new();
                    for input in pair {
                        let req = InferRequest {
                            model: Some("demo-stem".into()),
                            inputs: vec![input.clone()],
                        };
                        let (status, body) = client.request(
                            "POST",
                            "/v1/infer",
                            Some(&serde_json::to_string(&req).unwrap()),
                        );
                        assert_eq!(status, 200, "{body}");
                        let resp: InferResponse = serde_json::from_str(&body).unwrap();
                        assert_eq!(resp.model, "demo-stem");
                        outs.extend(resp.outputs);
                    }
                    outs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(outputs, expected, "stem-heavy batched serving must equal direct execution");
    handle.shutdown();
}

#[test]
fn multi_plane_requests_and_default_model() {
    let mut handle = start_server(4);
    let net = handle.registry().get("demo").unwrap().net();
    let inputs = net.fabricate_inputs(3, 9);
    let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();

    // No model name: the lone registered model serves it. Three planes in
    // one request come back in order.
    let req = InferRequest { model: None, inputs: inputs.clone() };
    let mut client = Client::connect(&handle);
    let (status, body) =
        client.request("POST", "/v1/infer", Some(&serde_json::to_string(&req).unwrap()));
    assert_eq!(status, 200, "{body}");
    let resp: InferResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.outputs, expected);
    handle.shutdown();
}

#[test]
fn error_paths_speak_json() {
    let mut handle = start_server(4);
    let mut client = Client::connect(&handle);

    let (status, body) = client.request("GET", "/nope", None);
    assert_eq!(status, 404);
    assert!(body.contains("error"), "{body}");

    let (status, body) = client.request("POST", "/v1/infer", Some("{ not json"));
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");

    let (status, body) = client.request("POST", "/v1/infer", Some("{\"inputs\":[]}"));
    assert_eq!(status, 400);
    assert!(body.contains("empty"), "{body}");

    let (status, body) =
        client.request("POST", "/v1/infer", Some("{\"model\":\"ghost\",\"inputs\":[[1,2,3]]}"));
    assert_eq!(status, 404);
    assert!(body.contains("ghost"), "{body}");

    let (status, body) = client.request("POST", "/v1/infer", Some("{\"inputs\":[[1,2,3]]}"));
    assert_eq!(status, 400, "wrong input size: {body}");
    assert!(body.contains("288"), "mentions expected size: {body}");

    // One wrong-size plane refuses the whole request: the valid planes
    // around it never reach the engine.
    let mut planes = handle.registry().get("demo").unwrap().net().fabricate_inputs(2, 5);
    planes.insert(1, vec![0; 7]);
    let req = serde_json::to_string(&InferRequest { model: None, inputs: planes }).unwrap();
    let (status, body) = client.request("POST", "/v1/infer", Some(&req));
    assert_eq!(status, 400, "wrong middle plane: {body}");
    assert!(body.contains("288"), "mentions expected size: {body}");
    let (_, body) = client.request("GET", "/metrics", None);
    let snap: MetricsSnapshot = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(snap.inferences, 0, "refused requests ran planes: {snap:?}");

    let (status, _) = client.request("POST", "/v1/models/ghost/reload", None);
    assert_eq!(status, 404);

    let (status, _) = client.request("POST", "/v1/models/demo/reload", None);
    assert_eq!(status, 409, "in-memory model is not file-backed");

    handle.shutdown();
}

#[test]
fn file_backed_reload_over_http() {
    let dir = std::env::temp_dir().join("wp_e2e_reload");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 21);
    bundle.save(&path).unwrap();

    let registry = Arc::new(ModelRegistry::new(
        BatcherConfig { max_batch: 4, ..BatcherConfig::default() },
        Arc::new(Metrics::new()),
    ));
    registry.insert_file("m", &path, opts).unwrap();
    let mut handle = serve(ServerConfig::default(), Arc::clone(&registry)).expect("bind");

    let net = registry.get("m").unwrap().net();
    let input = net.fabricate_inputs(1, 2).pop().unwrap();
    let req =
        serde_json::to_string(&InferRequest { model: None, inputs: vec![input.clone()] }).unwrap();

    let mut client = Client::connect(&handle);
    let (status, before) = client.request("POST", "/v1/infer", Some(&req));
    assert_eq!(status, 200);

    // File-backed models surface their bundle decode accounting.
    let (status, body) = client.request("GET", "/v1/models", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"decode\":{\"sections\":"), "decode stats missing: {body}");

    // Swap the file, reload over HTTP, observe different outputs.
    demo_deployment(DemoSize::Tiny, 22).0.save(&path).unwrap();
    let (status, body) = client.request("POST", "/v1/models/m/reload", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"reloads\":1"), "{body}");
    assert!(body.contains("\"total_bytes\":"), "reload refreshes decode stats: {body}");
    let (status, after) = client.request("POST", "/v1/infer", Some(&req));
    assert_eq!(status, 200);
    assert_ne!(before, after, "hot swap must change responses");

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

#[test]
fn file_backed_reload_over_http_accepts_wpb() {
    // Same hot-swap flow as the JSON test, but the bundle on disk is the
    // entropy-coded binary format.
    let dir = std::env::temp_dir().join("wp_e2e_reload_wpb");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.wpb");
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 31);
    bundle.save(&path).unwrap();
    assert!(std::fs::read(&path).unwrap().starts_with(b"WPB1"), "must be binary on disk");

    let registry = Arc::new(ModelRegistry::new(
        BatcherConfig { max_batch: 4, ..BatcherConfig::default() },
        Arc::new(Metrics::new()),
    ));
    registry.insert_file("m", &path, opts).unwrap();
    let mut handle = serve(ServerConfig::default(), Arc::clone(&registry)).expect("bind");

    let net = registry.get("m").unwrap().net();
    let input = net.fabricate_inputs(1, 6).pop().unwrap();
    let req =
        serde_json::to_string(&InferRequest { model: None, inputs: vec![input.clone()] }).unwrap();

    let mut client = Client::connect(&handle);
    let (status, before) = client.request("POST", "/v1/infer", Some(&req));
    assert_eq!(status, 200);

    demo_deployment(DemoSize::Tiny, 32).0.save(&path).unwrap();
    let (status, body) = client.request("POST", "/v1/models/m/reload", None);
    assert_eq!(status, 200, "{body}");
    let (status, after) = client.request("POST", "/v1/infer", Some(&req));
    assert_eq!(status, 200);
    assert_ne!(before, after, "wpb hot swap must change responses");

    std::fs::remove_file(&path).ok();
    handle.shutdown();
}

/// A trace sink that parks whichever thread records the first span:
/// it reports `parked`, then blocks until `release` fires.
#[derive(Debug)]
struct ParkOnFirstSpan {
    parked: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl TraceSink for ParkOnFirstSpan {
    fn record_span(&self, _: &TraceEvent) {
        let Some(parked) = self.parked.lock().unwrap().take() else { return };
        // A failed test drops its channel ends; the executor then carries
        // on instead of wedging shutdown.
        let _ = parked.send(());
        let _ = self.release.lock().unwrap().recv();
    }
}

/// A reload between the two batches of one request must not split its
/// answer: a 40-plane request under `max_batch` 32 is parked in its first
/// batch while the slot swaps to another plan, and all 40 outputs must
/// still come from the plan the request was admitted against.
#[test]
fn hot_swap_between_batches_never_splits_a_request() {
    let mut handle = start_server(32);
    let entry = handle.registry().get("demo").unwrap();
    let slot = entry.batcher().slot();
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 3);
    let first = PreparedNet::from_bundle(&bundle, &opts);
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let mut parking = PreparedNet::from_bundle(&bundle, &opts);
    parking.set_trace_sink(Some(Arc::new(ParkOnFirstSpan {
        parked: Mutex::new(Some(parked_tx)),
        release: Mutex::new(release_rx),
    })));
    *slot.write().unwrap() = Arc::new(parking);

    let inputs = first.fabricate_inputs(40, 17);
    let expected: Vec<Vec<i32>> = inputs.iter().map(|x| first.run_one(x)).collect();
    let second = Arc::new(demo_prepared(DemoSize::Tiny, 4));
    assert!(
        inputs[32..].iter().zip(&expected[32..]).any(|(x, e)| &second.run_one(x) != e),
        "the swapped-in plan must answer the second batch differently"
    );

    let req = serde_json::to_string(&InferRequest { model: None, inputs }).unwrap();
    let (status, body) = std::thread::scope(|scope| {
        let client =
            scope.spawn(|| Client::connect(&handle).request("POST", "/v1/infer", Some(&req)));
        parked_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("executor parked in its first batch");
        *slot.write().unwrap() = second;
        release_tx.send(()).unwrap();
        client.join().unwrap()
    });
    assert_eq!(status, 200, "{body}");
    let resp: InferResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(resp.outputs, expected, "every output must come from the admitting plan");
    handle.shutdown();
}

/// Sends raw (possibly broken) bytes, optionally half-closing the write
/// side, and returns the response status line — or `None` if the server
/// closed (or reset) the connection without one. A read timeout bounds
/// the wait, so a hanging server fails the test instead of wedging it.
fn raw_request(handle: &ServerHandle, bytes: &[u8], shutdown_write: bool) -> Option<String> {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server may reject and close mid-write (e.g. an oversized head);
    // a failed tail write is part of the scenario, not a test error.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    if shutdown_write {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("server hung: no response within the client timeout")
            }
            // A reset after the server closed with our bytes still
            // unread; keep whatever arrived before it.
            Err(_) => break,
        }
    }
    if response.is_empty() {
        return None;
    }
    let text = String::from_utf8_lossy(&response);
    Some(text.lines().next().unwrap_or_default().to_string())
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let mut handle = start_server(4);

    // Oversized Content-Length: rejected up front with 413, body unread.
    let status = raw_request(
        &handle,
        format!("POST /v1/infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1_usize << 40).as_bytes(),
        false,
    );
    assert_eq!(status.as_deref(), Some("HTTP/1.1 413 Payload Too Large"));

    // Bad Content-Length value: 400.
    let status =
        raw_request(&handle, b"POST /v1/infer HTTP/1.1\r\nContent-Length: banana\r\n\r\n", false);
    assert_eq!(status.as_deref(), Some("HTTP/1.1 400 Bad Request"));

    // Missing header terminator: the head just stops mid-headers and the
    // peer half-closes. The server must answer 400, not block on more
    // bytes that never come.
    let status = raw_request(&handle, b"POST /v1/infer HTTP/1.1\r\nHost: x", true);
    assert_eq!(status.as_deref(), Some("HTTP/1.1 400 Bad Request"));

    // Garbage method: parses as an unknown method and routes to 404.
    let status =
        raw_request(&handle, b"%%GARBAGE%% /v1/infer HTTP/1.1\r\nConnection: close\r\n\r\n", false);
    assert_eq!(status.as_deref(), Some("HTTP/1.1 404 Not Found"));

    // Non-UTF-8 binary noise in the request line: 400. (Half-close after
    // the line so no unread bytes linger to race the response with RST.)
    let status = raw_request(&handle, b"\xFF\xFE\x00\x01 / HTTP/1.1\r\n", true);
    assert_eq!(status.as_deref(), Some("HTTP/1.1 400 Bad Request"));

    // Unsupported HTTP version: 400.
    let status = raw_request(&handle, b"GET / HTTP/2\r\n", true);
    assert_eq!(status.as_deref(), Some("HTTP/1.1 400 Bad Request"));

    // An oversized head (endless header line) is cut off at the limit
    // and answered 413 — though the answer can be lost to a TCP reset
    // when the server closes with our surplus bytes unread, so a silent
    // close is also acceptable. Either way: no hang.
    let mut huge = Vec::from(&b"GET / HTTP/1.1\r\nX-Pad: "[..]);
    huge.extend(std::iter::repeat_n(b'a', 64 * 1024));
    huge.extend_from_slice(b"\r\n\r\n");
    let status = raw_request(&handle, &huge, false);
    assert!(
        status.is_none() || status.as_deref() == Some("HTTP/1.1 413 Payload Too Large"),
        "unexpected response to oversized head: {status:?}"
    );

    // The server is still healthy afterwards.
    let mut client = Client::connect(&handle);
    let (status, _) = client.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    handle.shutdown();
}

/// The whole observability surface over real sockets: request-id echo,
/// Prometheus and JSON metrics views, per-layer profile + reset, and the
/// Chrome trace export carrying this request's span id.
#[test]
fn observability_endpoints_end_to_end() {
    use wp_server::protocol::ModelProfileResponse;

    let batcher = BatcherConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        ..BatcherConfig::default()
    };
    let registry =
        Arc::new(ModelRegistry::new(batcher, Arc::new(Metrics::new())).with_trace_capacity(4096));
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 3);
    registry.insert_bundle("demo", &bundle, opts);
    let mut handle = serve(ServerConfig::default(), registry).expect("bind");
    let net = handle.registry().get("demo").unwrap().net();
    let inputs = net.fabricate_inputs(6, 77);
    let mut client = Client::connect(&handle);

    // Infer with a caller-chosen request id: it must be echoed back.
    let req = serde_json::to_string(&InferRequest { model: None, inputs: inputs.clone() }).unwrap();
    let (status, headers, _) =
        client.request_full("POST", "/v1/infer", &[("X-Request-Id", "trace-me-42")], Some(&req));
    assert_eq!(status, 200);
    let echoed = headers.iter().find(|(k, _)| k.eq_ignore_ascii_case("x-request-id"));
    assert_eq!(echoed.map(|(_, v)| v.as_str()), Some("trace-me-42"));

    // Without a caller id the server generates one and still echoes it.
    let (_, headers, _) = client.request_full("GET", "/healthz", &[], None);
    let generated = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-request-id"))
        .map(|(_, v)| v.clone())
        .expect("generated request id");
    assert!(generated.starts_with("req-"), "{generated}");

    // JSON metrics: per-model rows carry the inference counts.
    let (status, body) = client.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let snap: MetricsSnapshot = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(snap.models.len(), 1);
    assert_eq!(snap.models[0].inferences, 6);
    assert_eq!(snap.inferences, 6, "global total is the per-model sum");

    // Prometheus via query param and via Accept header.
    let (status, headers, text) =
        client.request_full("GET", "/metrics?format=prometheus", &[], None);
    assert_eq!(status, 200);
    let ct = headers.iter().find(|(k, _)| k.eq_ignore_ascii_case("content-type")).unwrap();
    assert!(ct.1.starts_with("text/plain"), "{ct:?}");
    assert!(text.contains("wp_model_inferences_total{model=\"demo\"} 6\n"), "{text}");
    assert!(text.contains("wp_model_queue_seconds_bucket{model=\"demo\",le=\"+Inf\"} 6"), "{text}");
    let (_, _, via_accept) =
        client.request_full("GET", "/metrics", &[("Accept", "text/plain")], None);
    assert!(via_accept.contains("wp_http_requests_total"), "{via_accept}");

    // Per-layer profile: layers record once per engine run (a batch
    // chunk is one run), so every layer's count equals the run count.
    let (status, body) = client.request("GET", "/v1/models/demo/profile", None);
    assert_eq!(status, 200, "{body}");
    let prof: ModelProfileResponse = serde_json::from_str(&body).expect("profile json");
    assert_eq!(prof.model, "demo");
    assert!(!prof.profile.layers.is_empty());
    assert!(prof.profile.runs > 0, "{body}");
    for layer in &prof.profile.layers {
        assert_eq!(layer.latency.count, prof.profile.runs, "layer {} miscounted", layer.index);
    }
    let share_sum: f64 = prof.profile.layers.iter().map(|l| l.share).sum();
    assert!(share_sum > 0.4 && share_sum <= 1.0 + 1e-9, "share sum {share_sum}");

    // Chrome trace export: valid JSON, has layer spans, and the queue
    // wait span carries our request id's hash.
    let (status, body) = client.request("GET", "/v1/models/demo/trace", None);
    assert_eq!(status, 200, "{body}");
    let trace = serde_json::value_from_str(&body).expect("trace json");
    fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
        v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let events = match field(&trace, "traceEvents") {
        Some(serde::Value::Array(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    let name_of = |e: &serde::Value| field(e, "name").and_then(|n| n.as_str()).map(str::to_string);
    assert!(
        events.iter().any(|e| name_of(e).is_some_and(|n| n.starts_with("L0 "))),
        "per-layer span missing:\n{body}"
    );
    let expected_span = wp_engine::trace::span_id_from("trace-me-42");
    let hex = format!("{expected_span:016x}");
    assert!(
        events.iter().any(|e| {
            name_of(e).as_deref() == Some("queue-wait")
                && field(e, "args").and_then(|a| field(a, "span_id")).and_then(|s| s.as_str())
                    == Some(hex.as_str())
        }),
        "queue-wait span with id {hex} missing:\n{body}"
    );

    // Reset zeroes the profile.
    let (status, body) = client.request("POST", "/v1/models/demo/profile/reset", None);
    assert_eq!(status, 200, "{body}");
    let prof: ModelProfileResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(prof.profile.runs, 0);
    assert!(prof.profile.layers.iter().all(|l| l.latency.count == 0));

    // Errors carry the request id in the body.
    let (status, _, body) =
        client.request_full("GET", "/v1/models/ghost/profile", &[("X-Request-Id", "oops-1")], None);
    assert_eq!(status, 404);
    assert!(body.contains("\"request_id\":\"oops-1\""), "{body}");

    handle.shutdown();
}

/// With tracing off (the default), the trace endpoint refuses with 409
/// while the always-on profile keeps working.
#[test]
fn trace_endpoint_requires_tracing_enabled() {
    let mut handle = start_server(4);
    let mut client = Client::connect(&handle);
    let (status, body) = client.request("GET", "/v1/models/demo/trace", None);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("tracing"), "{body}");
    let (status, _) = client.request("GET", "/v1/models/demo/profile", None);
    assert_eq!(status, 200, "profile is always on");
    handle.shutdown();
}

#[test]
fn remote_shutdown_drains_cleanly() {
    let mut handle = start_server(4);
    let mut client = Client::connect(&handle);
    let (status, body) = client.request("POST", "/v1/shutdown", None);
    assert_eq!(status, 200, "{body}");
    assert!(handle.is_shutting_down());
    handle.shutdown();

    // And a server without the opt-in refuses.
    let registry = Arc::new(ModelRegistry::new(BatcherConfig::default(), Arc::new(Metrics::new())));
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
    registry.insert_bundle("demo", &bundle, opts);
    let mut handle = serve(ServerConfig::default(), registry).expect("bind");
    let mut client = Client::connect(&handle);
    let (status, _) = client.request("POST", "/v1/shutdown", None);
    assert_eq!(status, 403, "disabled endpoint is forbidden, not method-not-allowed");
    handle.shutdown();
}
