//! Serving metrics: a global HTTP layer plus per-model instances.
//!
//! Everything is plain atomics so the hot path never takes a lock. The
//! split mirrors ownership: [`Metrics`] counts what the connection
//! front sees (requests, response classes, whole-request latency) and
//! is shared server-wide; [`ModelMetrics`] counts what one model's
//! batcher does (inferences, batches, queue wait, per-model request
//! latency) and lives on that model's registry entry — so multi-tenant
//! traffic is attributable per model, and the global view in
//! [`MetricsSnapshot`] is **assembled as the sum** of the per-model
//! instances at snapshot time (see
//! [`crate::registry::ModelRegistry::metrics_snapshot`]).
//!
//! The histogram machinery lives in [`wp_engine::trace`] (the engine's
//! per-layer profiles use the same buckets); this module records
//! **microseconds**. Quantiles are geometric bucket midpoints and every
//! snapshot carries `bucket_bounds`, so `/metrics` scrapers never
//! re-derive the log2 scheme.

use crate::protocol::DecodeStatsInfo;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use wp_engine::trace::{LatencyHistogram, LatencySnapshot, LATENCY_BUCKETS};

/// Largest exactly-tracked batch size; bigger batches land in the
/// overflow bucket.
pub const MAX_TRACKED_BATCH: usize = 64;

/// Server-wide HTTP metrics, shared across the event threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests accepted (any endpoint).
    pub http_requests: AtomicU64,
    /// 2xx responses.
    pub responses_ok: AtomicU64,
    /// 4xx responses.
    pub responses_client_error: AtomicU64,
    /// 5xx responses.
    pub responses_server_error: AtomicU64,
    /// Connections accepted since start (either front).
    pub connections_accepted: AtomicU64,
    /// Currently-open connections — a gauge: incremented on accept,
    /// decremented on close.
    pub connections_open: AtomicU64,
    /// Connections closed by a per-connection deadline: keep-alive idle
    /// reaps, slowloris read timeouts (408), and dead-peer write
    /// timeouts.
    pub connections_timed_out: AtomicU64,
    /// Wall time of whole requests (parse to response), microseconds —
    /// every endpoint, every model.
    pub request_latency: LatencyHistogram,
    /// Per-event-thread loop-iteration *busy* time (readiness dispatch +
    /// completion drain + deadline sweep, excluding the `epoll_wait`
    /// sleep), microseconds. One histogram per event thread, registered
    /// at front startup.
    event_loops: Mutex<Vec<Arc<LatencyHistogram>>>,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (and returns) the loop-iteration histogram for one
    /// event thread. Called once per thread at front startup.
    pub fn register_event_loop(&self) -> Arc<LatencyHistogram> {
        let hist = Arc::new(LatencyHistogram::new());
        self.event_loops.lock().expect("event loop registry poisoned").push(Arc::clone(&hist));
        hist
    }

    /// Snapshots every registered event thread's loop histogram, in
    /// registration (= thread index) order.
    pub fn event_loop_snapshots(&self) -> Vec<LatencySnapshot> {
        self.event_loops
            .lock()
            .expect("event loop registry poisoned")
            .iter()
            .map(|h| h.snapshot())
            .collect()
    }
}

/// One model's serving metrics, owned by its registry entry and written
/// by its batcher.
#[derive(Debug)]
pub struct ModelMetrics {
    /// Inference planes served (one per input vector).
    pub inferences: AtomicU64,
    /// Batches executed by the micro-batcher.
    pub batches: AtomicU64,
    batch_sizes: [AtomicU64; MAX_TRACKED_BATCH + 1],
    /// Time a plane waits in the queue before its batch starts,
    /// microseconds.
    pub queue_latency: LatencyHistogram,
    /// Submit-to-last-output time of `/v1/infer` requests against this
    /// model, microseconds.
    pub request_latency: LatencyHistogram,
}

impl Default for ModelMetrics {
    fn default() -> Self {
        Self {
            inferences: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_latency: LatencyHistogram::new(),
            request_latency: LatencyHistogram::new(),
        }
    }
}

impl ModelMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed batch of `size` planes.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(size as u64, Ordering::Relaxed);
        let slot = size.min(MAX_TRACKED_BATCH);
        self.batch_sizes[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// `(batch size, count)` pairs, sizes above the tracked maximum
    /// collapsed into the last slot.
    pub fn batch_size_hist(&self) -> Vec<(usize, u64)> {
        self.batch_sizes
            .iter()
            .enumerate()
            .filter_map(|(size, count)| {
                let count = count.load(Ordering::Relaxed);
                (count > 0).then_some((size, count))
            })
            .collect()
    }
}

/// One model's row in a [`MetricsSnapshot`] — identity, deploy
/// provenance, and this model's own counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMetricsSnapshot {
    /// Registry name.
    pub name: String,
    /// Resolved kernel tier the deployed plan executes with.
    pub backend: String,
    /// Hot-swap count since registration.
    pub reloads: u64,
    /// Inference planes served.
    pub inferences: u64,
    /// Batches executed.
    pub batches: u64,
    /// `(batch size, count)` pairs.
    pub batch_size_hist: Vec<(usize, u64)>,
    /// Queue-wait latency, microseconds.
    pub queue_latency: LatencySnapshot,
    /// Submit-to-output request latency, microseconds.
    pub request_latency: LatencySnapshot,
    /// Decode accounting from the model's last bundle load/reload
    /// (`None` for models deployed from in-memory bundles).
    #[serde(default)]
    pub decode: Option<DecodeStatsInfo>,
}

impl ModelMetricsSnapshot {
    /// Snapshots `metrics` under a model's identity.
    pub fn capture(
        name: String,
        backend: String,
        reloads: u64,
        decode: Option<DecodeStatsInfo>,
        metrics: &ModelMetrics,
    ) -> Self {
        Self {
            name,
            backend,
            reloads,
            inferences: metrics.inferences.load(Ordering::Relaxed),
            batches: metrics.batches.load(Ordering::Relaxed),
            batch_size_hist: metrics.batch_size_hist(),
            queue_latency: metrics.queue_latency.snapshot(),
            request_latency: metrics.request_latency.snapshot(),
            decode,
        }
    }
}

/// Body of `GET /metrics` (JSON form). The top-level totals are the
/// **sum of the per-model rows** plus the global HTTP counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// HTTP requests accepted.
    pub http_requests: u64,
    /// 2xx responses.
    pub responses_ok: u64,
    /// 4xx responses.
    pub responses_client_error: u64,
    /// 5xx responses.
    pub responses_server_error: u64,
    /// Connections accepted since start.
    #[serde(default)]
    pub connections_accepted: u64,
    /// Currently-open connections (gauge).
    #[serde(default)]
    pub connections_open: u64,
    /// Connections closed by a per-connection deadline.
    #[serde(default)]
    pub connections_timed_out: u64,
    /// Inference planes served, summed over models.
    pub inferences: u64,
    /// Batches executed, summed over models.
    pub batches: u64,
    /// `(batch size, count)` pairs, merged over models.
    pub batch_size_hist: Vec<(usize, u64)>,
    /// Whole-request latency (parse to response, every endpoint),
    /// microseconds.
    pub request_latency: LatencySnapshot,
    /// Queue-wait latency, merged over models, microseconds.
    pub queue_latency: LatencySnapshot,
    /// Per-event-thread loop-iteration busy time, microseconds, indexed
    /// by event thread.
    #[serde(default)]
    pub event_loops: Vec<LatencySnapshot>,
    /// Per-model breakdown, sorted by name.
    #[serde(default)]
    pub models: Vec<ModelMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// Assembles the global view: HTTP counters from `http`, totals
    /// summed from `models`.
    pub fn assemble(http: &Metrics, models: Vec<ModelMetricsSnapshot>) -> Self {
        let mut inferences = 0u64;
        let mut batches = 0u64;
        let mut merged_sizes = std::collections::BTreeMap::<usize, u64>::new();
        let mut queue_latency = LatencySnapshot::zero();
        for m in &models {
            inferences += m.inferences;
            batches += m.batches;
            for &(size, count) in &m.batch_size_hist {
                *merged_sizes.entry(size).or_default() += count;
            }
            queue_latency.merge(&m.queue_latency);
        }
        Self {
            http_requests: http.http_requests.load(Ordering::Relaxed),
            responses_ok: http.responses_ok.load(Ordering::Relaxed),
            responses_client_error: http.responses_client_error.load(Ordering::Relaxed),
            responses_server_error: http.responses_server_error.load(Ordering::Relaxed),
            connections_accepted: http.connections_accepted.load(Ordering::Relaxed),
            connections_open: http.connections_open.load(Ordering::Relaxed),
            connections_timed_out: http.connections_timed_out.load(Ordering::Relaxed),
            inferences,
            batches,
            batch_size_hist: merged_sizes.into_iter().collect(),
            request_latency: http.request_latency.snapshot(),
            queue_latency,
            event_loops: http.event_loop_snapshots(),
            models,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn batch_hist_tracks_and_overflows() {
        let m = ModelMetrics::new();
        m.record_batch(1);
        m.record_batch(8);
        m.record_batch(8);
        m.record_batch(500);
        assert_eq!(m.batches.load(Ordering::Relaxed), 4);
        assert_eq!(m.inferences.load(Ordering::Relaxed), 1 + 8 + 8 + 500);
        assert_eq!(
            m.batch_size_hist(),
            vec![(1, 1), (8, 2), (MAX_TRACKED_BATCH, 1)],
            "oversize batch collapses into the last slot"
        );
    }

    #[test]
    fn snapshot_sums_models_into_global_totals() {
        let http = Metrics::new();
        http.http_requests.fetch_add(10, Ordering::Relaxed);
        http.responses_ok.fetch_add(9, Ordering::Relaxed);
        http.request_latency.record_micros(Duration::from_micros(100));

        let a = ModelMetrics::new();
        let b = ModelMetrics::new();
        a.record_batch(4);
        a.queue_latency.record(10);
        b.record_batch(4);
        b.record_batch(2);
        b.queue_latency.record(1000);

        let models = vec![
            ModelMetricsSnapshot::capture("a".into(), "swar".into(), 0, None, &a),
            ModelMetricsSnapshot::capture("b".into(), "scalar".into(), 2, None, &b),
        ];
        let snap = MetricsSnapshot::assemble(&http, models);
        assert_eq!(snap.http_requests, 10);
        assert_eq!(snap.inferences, 4 + 4 + 2);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_size_hist, vec![(2, 1), (4, 2)], "merged across models");
        assert_eq!(snap.queue_latency.count, 2);
        assert_eq!(snap.queue_latency.sum, 1010);
        assert_eq!(snap.queue_latency.max, 1000);
        assert_eq!(snap.models.len(), 2);
        assert_eq!(snap.models[1].backend, "scalar");
    }

    /// Connection counters and event-loop histograms flow into the
    /// snapshot, and a snapshot without them (an old client's JSON)
    /// still deserializes.
    #[test]
    fn connection_metrics_flow_into_snapshot() {
        let http = Metrics::new();
        http.connections_accepted.fetch_add(5, Ordering::Relaxed);
        http.connections_open.fetch_add(3, Ordering::Relaxed);
        http.connections_timed_out.fetch_add(2, Ordering::Relaxed);
        let loop0 = http.register_event_loop();
        let loop1 = http.register_event_loop();
        loop0.record(40);
        loop1.record(90);
        loop1.record(10);

        let snap = MetricsSnapshot::assemble(&http, vec![]);
        assert_eq!(snap.connections_accepted, 5);
        assert_eq!(snap.connections_open, 3);
        assert_eq!(snap.connections_timed_out, 2);
        assert_eq!(snap.event_loops.len(), 2);
        assert_eq!(snap.event_loops[0].count, 1);
        assert_eq!(snap.event_loops[1].count, 2);
        assert_eq!(snap.event_loops[1].sum, 100);

        // Back-compat: JSON missing the new fields still parses. Strip
        // the (zero-valued) new fields from a fresh snapshot's JSON to
        // fabricate what an old server would have emitted.
        let fresh =
            serde_json::to_string(&MetricsSnapshot::assemble(&Metrics::new(), vec![])).unwrap();
        let old = fresh
            .replace(",\"connections_accepted\":0", "")
            .replace(",\"connections_open\":0", "")
            .replace(",\"connections_timed_out\":0", "")
            .replace(",\"event_loops\":[]", "");
        assert_ne!(old, fresh, "stripping must have removed the new fields");
        let back: MetricsSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(back.connections_accepted, 0);
        assert!(back.event_loops.is_empty());
    }

    #[test]
    fn snapshot_serializes() {
        let http = Metrics::new();
        let m = ModelMetrics::new();
        m.record_batch(2);
        m.request_latency.record_micros(Duration::from_micros(42));
        let models = vec![ModelMetricsSnapshot::capture("demo".into(), "avx2".into(), 1, None, &m)];
        let snap = MetricsSnapshot::assemble(&http, models);
        let s = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.models[0].request_latency.count, 1);
        assert_eq!(back.models[0].request_latency.bucket_bounds.len(), LATENCY_BUCKETS);
    }

    /// Satellite pin: N threads x M records against one model's metrics;
    /// the snapshot sums must be exact — lock-free must not mean lossy.
    #[test]
    fn concurrent_recording_sums_exactly() {
        let m = Arc::new(ModelMetrics::new());
        let threads = 8u64;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let size = 1 + (i % 7) as usize;
                        m.record_batch(size);
                        m.queue_latency.record(i % 5000);
                        m.request_latency.record(1 + i % 100);
                    }
                });
            }
        });
        let snap = ModelMetricsSnapshot::capture("m".into(), "swar".into(), 0, None, &m);
        let n = threads * per_thread;
        assert_eq!(snap.batches, n);
        let planes_per_thread: u64 = (0..per_thread).map(|i| 1 + i % 7).sum();
        assert_eq!(snap.inferences, threads * planes_per_thread);
        let batch_total: u64 = snap.batch_size_hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(batch_total, n);
        assert_eq!(snap.queue_latency.count, n);
        let queue_sum_per_thread: u64 = (0..per_thread).map(|i| i % 5000).sum();
        assert_eq!(snap.queue_latency.sum, threads * queue_sum_per_thread);
        assert_eq!(snap.request_latency.count, n);
        assert_eq!(snap.request_latency.max, 100);
    }
}
