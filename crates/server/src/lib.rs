//! A std-only HTTP/1.1 inference server with dynamic micro-batching over
//! the native weight-pool engine.
//!
//! The ROADMAP's serving story: `wp_engine` executes compressed networks
//! at host speed, and this crate puts a network in front of it — a
//! dependency-free HTTP server (no async runtime; the build environment
//! is offline) whose core is a **dynamic micro-batcher**: concurrent
//! requests coalesce into batches that execute through the engine's
//! batched kernels, which are bit-identical to solo execution and
//! substantially faster per image. Batching is therefore invisible in
//! responses and visible only in throughput — the paper's shared-weight
//! arithmetic amortized across requests (the SWIS observation) instead of
//! across a single image.
//!
//! Pieces:
//!
//! * [`http`] — incremental HTTP/1.1 request parsing and response
//!   encoding, with hard limits.
//! * [`protocol`] — the JSON request/response types.
//! * [`batcher`] — [`Batcher`]: admits a request's planes whole or not
//!   at all, pinned to one plan; flushes on `max_batch` or `max_wait`,
//!   whichever first; persistent executors run each flush as
//!   `BATCH_TILE`-image tiles on arenas they keep; results return through
//!   one completion callback per request.
//! * [`registry`] — [`ModelRegistry`]: named models, atomic hot-swap
//!   reload.
//! * [`metrics`] — global HTTP [`Metrics`] + per-model
//!   [`metrics::ModelMetrics`] (the `GET /metrics` totals are the sum of
//!   the per-model rows).
//! * [`prometheus`] — Prometheus text exposition of the same snapshot.
//! * [`server`] — [`serve`], routing, request-scoped trace ids
//!   (`X-Request-Id` in, echoed out, stamped on engine spans and error
//!   bodies).
//! * [`event`] — the connection front: a vendored-FFI epoll readiness
//!   loop; a few event threads carry thousands of mostly-idle keep-alive
//!   connections (per-connection slab, deadline wheel, responses drained
//!   from nonblocking write buffers). Being epoll-based, it makes the
//!   crate Linux-only.
//! * [`conn`] — the event front's data structures: generation-checked
//!   [`conn::Slab`], hashed [`conn::DeadlineWheel`], per-connection
//!   state.
//! * [`demo`] — fabricated demo bundles for tests and load generation.
//!
//! # Endpoints
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET | `/healthz` | liveness + registered model names |
//! | GET | `/metrics` | global + per-model counters and histograms (JSON; Prometheus text via `Accept: text/plain` or `?format=prometheus`) |
//! | GET | `/v1/models` | model shapes, reload counts, bundle decode stats |
//! | GET | `/v1/models/{name}/profile` | per-layer engine latency profile (p50/p99/mean, share of run) |
//! | GET | `/v1/models/{name}/trace` | Chrome `trace_event` JSON of the model's span ring (when tracing is on) |
//! | POST | `/v1/infer` | run activation planes through a model |
//! | POST | `/v1/models/{name}/reload` | hot-swap a file-backed model |
//! | POST | `/v1/models/{name}/profile/reset` | zero the per-layer profile counters |
//! | POST | `/v1/shutdown` | clean remote shutdown (opt-in) |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use wp_server::batcher::BatcherConfig;
//! use wp_server::demo::{demo_deployment, DemoSize};
//! use wp_server::metrics::Metrics;
//! use wp_server::registry::ModelRegistry;
//! use wp_server::server::{serve, ServerConfig};
//!
//! let registry = Arc::new(ModelRegistry::new(
//!     BatcherConfig::default(),
//!     Arc::new(Metrics::new()),
//! ));
//! let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
//! registry.insert_bundle("demo", &bundle, opts);
//! let mut handle = serve(ServerConfig::default(), Arc::clone(&registry)).unwrap();
//! assert_ne!(handle.addr().port(), 0);
//! handle.shutdown();
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("wp_server is Linux-only: its one connection front is an epoll event loop");

pub mod batcher;
pub mod conn;
pub mod demo;
pub mod event;
pub mod http;
pub mod metrics;
pub mod prometheus;
pub mod protocol;
pub mod registry;
pub mod server;

pub use batcher::{Batcher, BatcherConfig, InferError};
pub use metrics::{Metrics, MetricsSnapshot, ModelMetrics, ModelMetricsSnapshot};
pub use registry::{ModelEntry, ModelRegistry, RegistryError};
pub use server::{serve, ServerConfig, ServerHandle};
