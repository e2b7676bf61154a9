//! Per-layer metrics, measured from outside the server: counters the
//! server already exposes, read over the measured window, and timed
//! direct calls into each layer's public functions on the workload's own
//! inputs.

use crate::client::WireRequest;
use crate::report::{metric, Metric};
use crate::spans::Recorder;
use crate::workload::{full_tile_planes, CALIBRATION_SAMPLES, CALIBRATION_SEED, KINDS, MODEL};
use std::collections::BTreeMap;
use std::path::Path;
use wp_core::deploy::{DecodeStats, DeployBundle};
use wp_engine::{BatchRunner, EngineOptions, NetProfileSnapshot, PreparedNet};
use wp_server::http::RequestParser;
use wp_server::metrics::{LatencySnapshot, MetricsSnapshot, ModelMetricsSnapshot};
use wp_server::protocol::{InferRequest, InferResponse};
use wp_server::registry::ModelRegistry;

/// Bytes the event front reads from a socket at a time.
const SOCKET_READ: usize = 16 * 1024;

/// Server counters at both ends of the measured window.
pub struct Window<'a> {
    /// Registry metrics when measuring began and after traffic drained.
    pub metrics: (&'a MetricsSnapshot, &'a MetricsSnapshot),
    /// The served plan's profile at the same two points.
    pub profile: (&'a NetProfileSnapshot, &'a NetProfileSnapshot),
    /// Wall time between the two reads, seconds.
    pub wall_s: f64,
    /// Mean request latency the client saw over the window, ms.
    pub client_mean_ms: f64,
    /// Engine worker threads per batch.
    pub threads: usize,
    /// The batcher's flush size.
    pub max_batch: usize,
}

fn model(m: &MetricsSnapshot) -> &ModelMetricsSnapshot {
    m.models.iter().find(|r| r.name == MODEL).expect("benchmark model is registered")
}

/// Mean of the samples recorded between two snapshots of one histogram.
fn delta_mean(a: &LatencySnapshot, b: &LatencySnapshot) -> f64 {
    let n = b.count.saturating_sub(a.count);
    if n == 0 {
        0.0
    } else {
        b.sum.saturating_sub(a.sum) as f64 / n as f64
    }
}

impl Window<'_> {
    /// Mean engine time of one batch in place (one runner chunk), ms.
    pub fn engine_batch_ms(&self) -> f64 {
        delta_mean(&self.profile.0.total, &self.profile.1.total) / 1e6
    }

    /// Mean queue wait per plane, ms (exact: histogram sum over count).
    pub fn queue_wait_ms(&self) -> f64 {
        let (a, b) = (model(self.metrics.0), model(self.metrics.1));
        delta_mean(&a.queue_latency, &b.queue_latency) / 1e3
    }

    /// Client-seen latency the server's own request timer does not cover
    /// (sockets, HTTP framing, event-loop handoff), ms.
    pub fn front_overhead_ms(&self) -> f64 {
        let server_ms =
            delta_mean(&self.metrics.0.request_latency, &self.metrics.1.request_latency);
        self.client_mean_ms - server_ms / 1e3
    }

    /// Batch sizes flushed inside the window, `size -> count`.
    pub fn batch_sizes(&self) -> BTreeMap<usize, u64> {
        let before: BTreeMap<usize, u64> =
            model(self.metrics.0).batch_size_hist.iter().copied().collect();
        model(self.metrics.1)
            .batch_size_hist
            .iter()
            .map(|&(size, n)| (size, n - before.get(&size).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Engine, batcher and event-front metrics from server counters.
    pub fn metrics(&self, ops: &BTreeMap<&'static str, u64>) -> Vec<Metric> {
        let mut out = Vec::new();
        let (m0, m1) = self.metrics;
        let (p0, p1) = self.profile;
        let images = model(m1).inferences.saturating_sub(model(m0).inferences).max(1) as f64;
        for kind in KINDS {
            let ns: u64 = p1
                .layers
                .iter()
                .zip(&p0.layers)
                .filter(|(l, _)| l.kind == kind)
                .map(|(b, a)| b.latency.sum.saturating_sub(a.latency.sum))
                .sum();
            let us = ns as f64 / 1e3 / images;
            let ops = ops[kind] as f64;
            out.push(metric(format!("engine.{kind}.us_per_image"), us, "us"));
            out.push(metric(format!("engine.{kind}.ops_per_image"), ops, "count"));
            let gops = if us > 0.0 { ops / (us * 1e3) } else { 0.0 };
            out.push(metric(format!("engine.{kind}.gops"), gops, "Gop/s"));
        }

        let sizes = self.batch_sizes();
        let batches: u64 = sizes.values().sum();
        let planes: u64 = sizes.iter().map(|(&s, &n)| s as u64 * n).sum();
        let tiled: u64 =
            sizes.iter().map(|(&s, &n)| full_tile_planes(s, self.threads) as u64 * n).sum();
        let full = sizes.get(&self.max_batch).copied().unwrap_or(0);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.push(metric("engine.tile_frac", ratio(tiled, planes), "fraction"));
        out.push(metric("batcher.batch_mean", ratio(planes, batches), "planes"));
        out.push(metric("batcher.full_frac", ratio(full, batches), "fraction"));
        out.push(metric("batcher.queue_wait_ms", self.queue_wait_ms(), "ms"));

        let busy_us: u64 = m1
            .event_loops
            .iter()
            .zip(&m0.event_loops)
            .map(|(b, a)| b.sum.saturating_sub(a.sum))
            .sum();
        let capacity_us = self.wall_s * 1e6 * m1.event_loops.len().max(1) as f64;
        out.push(metric("event.busy_frac", busy_us as f64 / capacity_us, "fraction"));
        out.push(metric("event.overhead_ms", self.front_overhead_ms(), "ms"));
        let errors = m1.responses_client_error + m1.responses_server_error;
        out.push(metric("event.error_responses", errors as f64, "count"));
        out
    }
}

/// Decodes a WPB file as the registry does when it deploys or reloads one.
///
/// # Errors
///
/// The file cannot be opened or does not decode.
pub fn decode(path: &Path) -> Result<(DeployBundle, DecodeStats), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    DeployBundle::from_reader_with_stats(std::io::BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What the direct calls run on.
pub struct Direct<'a> {
    /// The workload's bundle, as written to `path`.
    pub bundle: &'a DeployBundle,
    /// Uncalibrated options (what calibration starts from).
    pub base: &'a EngineOptions,
    /// Calibrated options (what the server deployed).
    pub opts: &'a EngineOptions,
    /// The reference plan the expected outputs came from.
    pub net: &'a PreparedNet,
    /// The WPB file the server was handed.
    pub path: &'a Path,
    /// The serving registry (after traffic has stopped).
    pub registry: &'a ModelRegistry,
    /// One request of the workload's shape.
    pub request: &'a WireRequest,
    /// Engine worker threads per batch.
    pub threads: usize,
}

/// Times each layer's public entry points, one span per call. Returns
/// the metrics and how many output checks ran and failed.
///
/// # Errors
///
/// A layer call that returns an error.
pub fn direct(d: &Direct<'_>, rec: &mut Recorder) -> Result<(Vec<Metric>, u64, u64), String> {
    let mut out = Vec::new();
    let mut checks = (0u64, 0u64);
    let mut check = |ok: bool| {
        checks.0 += 1;
        checks.1 += u64::from(!ok);
    };
    let body = std::str::from_utf8(d.request.body()).map_err(|e| e.to_string())?;
    let expected = std::str::from_utf8(&d.request.expected).map_err(|e| e.to_string())?;

    let (us, parsed) = rec.median_us("RequestParser::feed+try_parse", "http", 200, || {
        let mut parser = RequestParser::new();
        let mut done = None;
        for piece in d.request.bytes().chunks(SOCKET_READ) {
            parser.feed(piece);
            done = parser.try_parse().ok().flatten().or(done);
        }
        done
    });
    check(parsed.is_some_and(|r| r.body == d.request.body()));
    out.push(metric("http.parse_us", us, "us"));

    let (us, request) =
        rec.median_us("serde_json::from_str::<InferRequest>", "protocol", 50, || {
            serde_json::from_str::<InferRequest>(body)
        });
    let inputs = request.map_err(|e| format!("decode request: {e}"))?.inputs;
    out.push(metric("protocol.decode_us", us, "us"));
    let response: InferResponse =
        serde_json::from_str(expected).map_err(|e| format!("decode expected: {e}"))?;
    let (us, encoded) =
        rec.median_us("serde_json::to_string::<InferResponse>", "protocol", 200, || {
            serde_json::to_string(&response)
        });
    check(encoded.is_ok_and(|s| s == expected));
    out.push(metric("protocol.encode_us", us, "us"));

    let refs: Vec<&[i32]> = inputs.iter().map(Vec::as_slice).collect();
    let runner = BatchRunner::new(d.threads);
    let (us, outputs) =
        rec.median_us("BatchRunner::run_refs", "engine", 15, || runner.run_refs(d.net, &refs));
    check(outputs == response.outputs);
    out.push(metric("engine.run_ms", us / 1e3, "ms"));

    let entry = d.registry.get(MODEL).map_err(|e| e.to_string())?;
    let (us, outputs) = rec.median_us("Batcher::infer", "batcher", 15, || {
        // `infer` is submit-then-wait; submitting every plane before
        // waiting lets a multi-plane request share one batch, as over HTTP.
        let tickets: Vec<_> =
            inputs.iter().filter_map(|x| entry.batcher().submit(x.clone()).ok()).collect();
        tickets.into_iter().map(|t| t.wait().unwrap_or_default()).collect::<Vec<_>>()
    });
    check(outputs == response.outputs);
    out.push(metric("batcher.infer_ms", us / 1e3, "ms"));

    let (us, _) = rec.median_us("PreparedNet::calibrate_multipliers", "engine", 5, || {
        PreparedNet::calibrate_multipliers(d.bundle, d.base, CALIBRATION_SAMPLES, CALIBRATION_SEED)
    });
    out.push(metric("engine.calibrate_ms", us / 1e3, "ms"));
    let (us, _) = rec.median_us("PreparedNet::from_bundle", "engine", 9, || {
        PreparedNet::from_bundle(d.bundle, d.opts)
    });
    out.push(metric("engine.compile_ms", us / 1e3, "ms"));

    let (us, decoded) =
        rec.median_us("DeployBundle::from_reader_with_stats", "deploy", 9, || decode(d.path));
    let (bundle, stats) = decoded?;
    check(&bundle == d.bundle);
    out.push(metric("deploy.decode_ms", us / 1e3, "ms"));
    out.push(metric("deploy.peak_transient_bytes", stats.peak_transient_bytes as f64, "bytes"));

    let (us, reloaded) =
        rec.median_us("ModelRegistry::reload", "registry", 9, || d.registry.reload(MODEL));
    reloaded.map_err(|e| e.to_string())?;
    out.push(metric("registry.reload_ms", us / 1e3, "ms"));
    Ok((out, checks.0, checks.1))
}
