//! The model registry: named deployed models with atomic hot-swap reload.
//!
//! Each registered model owns one [`Batcher`] (queue + executor threads)
//! and one [`ModelSlot`] holding the compiled plan. Reloading rebuilds
//! the plan — from the original bundle file for file-backed models, or
//! from a caller-provided bundle — and swaps the slot's `Arc` under a
//! write lock. Requests already queued keep flowing: the batcher pins
//! each request at submit to the plan its planes were checked against, so
//! every request executes wholly on one plan — even one whose planes span
//! two batches — and the swap is atomic from the client's point of view.

use crate::batcher::{Batcher, BatcherConfig, ModelSlot};
use crate::metrics::{Metrics, MetricsSnapshot, ModelMetrics, ModelMetricsSnapshot};
use crate::protocol::{DecodeStatsInfo, ModelInfo};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use wp_core::deploy::DeployBundle;
use wp_engine::{EngineOptions, NetProfileSnapshot, PreparedNet, TraceBuffer};

/// Seed for reload-time recalibration (deterministic across reloads).
const CALIBRATION_SEED: u64 = 0xCA11;

/// Errors from registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// No model under that name.
    UnknownModel(String),
    /// The model was registered from an in-memory bundle; there is no
    /// file to reload it from.
    NotFileBacked(String),
    /// Reading or parsing a bundle file failed.
    LoadFailed(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            RegistryError::NotFileBacked(name) => {
                write!(f, "model {name:?} was not loaded from a file; nothing to reload")
            }
            RegistryError::LoadFailed(m) => write!(f, "bundle load failed: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One deployed model.
pub struct ModelEntry {
    name: String,
    slot: Arc<ModelSlot>,
    batcher: Batcher,
    source: Option<PathBuf>,
    opts: EngineOptions,
    reloads: AtomicU64,
    metrics: Arc<ModelMetrics>,
    /// Decode accounting from the last file load/reload; `None` for
    /// in-memory deployments.
    decode: RwLock<Option<DecodeStatsInfo>>,
    /// The model's trace ring, shared across reloads so a hot swap never
    /// loses in-flight spans; `None` when event tracing is disabled.
    trace: Option<Arc<TraceBuffer>>,
}

impl ModelEntry {
    /// The model's batcher (submit requests here).
    pub fn batcher(&self) -> &Batcher {
        &self.batcher
    }

    /// The currently-deployed plan.
    pub fn net(&self) -> Arc<PreparedNet> {
        self.slot.read().expect("model slot poisoned").clone()
    }

    /// Registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This model's serving metrics (the batcher writes them).
    pub fn metrics(&self) -> &Arc<ModelMetrics> {
        &self.metrics
    }

    /// The model's trace event ring (`None` when tracing is disabled).
    pub fn trace(&self) -> Option<&Arc<TraceBuffer>> {
        self.trace.as_ref()
    }

    /// Decode accounting from the last bundle file load/reload.
    pub fn decode_stats(&self) -> Option<DecodeStatsInfo> {
        *self.decode.read().expect("decode stats poisoned")
    }

    /// The engine-side per-layer latency profile of the deployed plan.
    /// Counters reset on hot swap (the new plan gets a fresh profile —
    /// mixing layer timings across plans would misattribute).
    pub fn profile_snapshot(&self) -> NetProfileSnapshot {
        let net = self.net();
        net.profile().expect("registry nets always carry a profile").snapshot()
    }

    /// Zeroes the deployed plan's per-layer profile counters.
    pub fn reset_profile(&self) {
        let net = self.net();
        net.profile().expect("registry nets always carry a profile").reset();
    }

    /// This model's row in the metrics snapshot.
    pub fn model_snapshot(&self) -> ModelMetricsSnapshot {
        ModelMetricsSnapshot::capture(
            self.name.clone(),
            self.net().backend_kind().name().to_string(),
            self.reloads.load(Ordering::Relaxed),
            self.decode_stats(),
            &self.metrics,
        )
    }

    /// The `GET /v1/models` row.
    pub fn info(&self) -> ModelInfo {
        let net = self.net();
        let input = net.input_shape();
        ModelInfo {
            name: self.name.clone(),
            input,
            input_len: input.0 * input.1 * input.2,
            act_bits: net.act_bits(),
            backend: net.backend_kind().name().to_string(),
            reloads: self.reloads.load(Ordering::Relaxed),
            decode: self.decode_stats(),
        }
    }
}

/// A set of deployed models addressable by name.
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    batcher_config: BatcherConfig,
    metrics: Arc<Metrics>,
    /// Trace ring capacity (events) given to each deployed model;
    /// 0 disables event tracing (the aggregate profile stays on).
    trace_capacity: usize,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry").field("models", &self.names()).finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// An empty registry; every model it deploys batches under
    /// `batcher_config` and reports into `metrics`.
    pub fn new(batcher_config: BatcherConfig, metrics: Arc<Metrics>) -> Self {
        Self { models: RwLock::new(HashMap::new()), batcher_config, metrics, trace_capacity: 0 }
    }

    /// Enables per-model event tracing: every model deployed afterwards
    /// gets a `capacity`-event trace ring (exported by
    /// `GET /v1/models/{name}/trace`). 0 disables.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The global HTTP metrics sink shared with the server.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The `GET /metrics` body: global HTTP counters plus per-model rows
    /// (sorted by name), totals summed from the rows.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut models: Vec<ModelMetricsSnapshot> = self
            .models
            .read()
            .expect("registry poisoned")
            .values()
            .map(|e| e.model_snapshot())
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot::assemble(&self.metrics, models)
    }

    /// Deploys `bundle` as `name` (replacing any existing model of that
    /// name wholesale, batcher included).
    pub fn insert_bundle(&self, name: &str, bundle: &DeployBundle, opts: EngineOptions) {
        self.insert(name, bundle, opts, None, None);
    }

    /// Loads a bundle file and deploys it as `name`; `reload` re-reads
    /// the same path later. Both bundle formats are accepted — JSON and
    /// the entropy-coded binary `.wpb` (sniffed from the file's magic
    /// bytes, not its extension); WPB decodes substantially faster for
    /// large models, which shortens the hot-swap window, and streams
    /// section-by-section ([`DeployBundle::from_reader`]) so deploying a
    /// model never transiently allocates more than its largest section —
    /// the property that keeps cold-starting a node with many tenant
    /// bundles I/O-bound rather than allocation-bound.
    ///
    /// # Errors
    ///
    /// [`RegistryError::LoadFailed`] when the file cannot be read or
    /// parsed.
    pub fn insert_file(
        &self,
        name: &str,
        path: &Path,
        opts: EngineOptions,
    ) -> Result<(), RegistryError> {
        let (bundle, decode) = load_with_stats(path)?;
        self.insert(name, &bundle, opts, Some(path.to_path_buf()), Some(decode));
        Ok(())
    }

    fn insert(
        &self,
        name: &str,
        bundle: &DeployBundle,
        opts: EngineOptions,
        source: Option<PathBuf>,
        decode: Option<DecodeStatsInfo>,
    ) {
        let trace =
            (self.trace_capacity > 0).then(|| Arc::new(TraceBuffer::new(self.trace_capacity)));
        let net = Arc::new(self.prepare_observed(bundle, &opts, trace.as_ref()));
        let slot: Arc<ModelSlot> = Arc::new(RwLock::new(net));
        let metrics = Arc::new(ModelMetrics::new());
        let batcher = Batcher::start(Arc::clone(&slot), self.batcher_config, Arc::clone(&metrics));
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            slot,
            batcher,
            source,
            opts,
            reloads: AtomicU64::new(0),
            metrics,
            decode: RwLock::new(decode),
            trace,
        });
        let old = self.models.write().expect("registry poisoned").insert(name.to_string(), entry);
        if let Some(old) = old {
            old.batcher.shutdown();
        }
    }

    /// Compiles a bundle and attaches observation: a fresh per-layer
    /// profile always, plus the model's trace ring when tracing is on.
    fn prepare_observed(
        &self,
        bundle: &DeployBundle,
        opts: &EngineOptions,
        trace: Option<&Arc<TraceBuffer>>,
    ) -> PreparedNet {
        let mut net = PreparedNet::from_bundle(bundle, opts);
        net.set_profile(Some(Arc::new(net.make_profile())));
        if let Some(buf) = trace {
            net.set_trace_sink(Some(Arc::clone(buf) as _));
        }
        net
    }

    /// Atomically hot-swaps `name` to a freshly compiled copy of its
    /// bundle file. The batcher and its queue are untouched: requests
    /// already admitted finish on the plan they were checked against, and
    /// requests admitted afterwards run on the new one. If the model was
    /// deployed with calibrated per-layer requant multipliers, calibration
    /// is re-run against the new bundle — multipliers fitted to the old
    /// weights' accumulator peaks would silently saturate or zero the new
    /// ones.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for unregistered names,
    /// [`RegistryError::NotFileBacked`] for in-memory models, and
    /// [`RegistryError::LoadFailed`] when the file no longer parses (the
    /// old plan keeps serving in that case).
    pub fn reload(&self, name: &str) -> Result<(), RegistryError> {
        let entry = self.get(name)?;
        let path =
            entry.source.clone().ok_or_else(|| RegistryError::NotFileBacked(name.to_string()))?;
        let (bundle, decode) = load_with_stats(&path)?;
        let mut opts = entry.opts.clone();
        if opts.layer_multipliers().is_some() {
            let base = opts.clone().with_layer_multipliers(None);
            let multipliers =
                PreparedNet::calibrate_multipliers(&bundle, &base, 8, CALIBRATION_SEED);
            opts = opts.with_layer_multipliers(Some(multipliers));
        }
        // Fresh profile (the new plan's layers may differ), same trace
        // ring (spans from before and after the swap share one timeline).
        let net = Arc::new(self.prepare_observed(&bundle, &opts, entry.trace.as_ref()));
        *entry.slot.write().expect("model slot poisoned") = net;
        *entry.decode.write().expect("decode stats poisoned") = Some(decode);
        entry.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks up a model by name.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, RegistryError> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))
    }

    /// Resolves an infer request's optional model name: an explicit name
    /// must exist; an omitted name is allowed only when exactly one model
    /// is registered.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] otherwise.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<ModelEntry>, RegistryError> {
        match name {
            Some(name) => self.get(name),
            None => {
                let models = self.models.read().expect("registry poisoned");
                if models.len() == 1 {
                    Ok(models.values().next().expect("len checked").clone())
                } else {
                    Err(RegistryError::UnknownModel(format!(
                        "(unspecified, {} models registered)",
                        models.len()
                    )))
                }
            }
        }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.models.read().expect("registry poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// `GET /v1/models` rows, sorted by name.
    pub fn infos(&self) -> Vec<ModelInfo> {
        let mut infos: Vec<ModelInfo> =
            self.models.read().expect("registry poisoned").values().map(|e| e.info()).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Drains and joins every model's batcher (used at server shutdown).
    pub fn shutdown(&self) {
        let entries: Vec<Arc<ModelEntry>> =
            self.models.read().expect("registry poisoned").values().cloned().collect();
        for entry in entries {
            entry.batcher.shutdown();
        }
    }
}

/// Loads a bundle file through the instrumented streaming decoder,
/// capturing the decode accounting surfaced in `/v1/models`.
fn load_with_stats(path: &Path) -> Result<(DeployBundle, DecodeStatsInfo), RegistryError> {
    let file = std::fs::File::open(path)
        .map_err(|e| RegistryError::LoadFailed(format!("{}: {e}", path.display())))?;
    let (bundle, stats) = DeployBundle::from_reader_with_stats(std::io::BufReader::new(file))
        .map_err(|e| RegistryError::LoadFailed(format!("{}: {e}", path.display())))?;
    Ok((bundle, stats.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_bundle, demo_deployment, DemoSize};

    fn registry() -> ModelRegistry {
        ModelRegistry::new(
            BatcherConfig { max_batch: 4, ..BatcherConfig::default() },
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn resolve_rules() {
        let reg = registry();
        assert!(reg.resolve(None).is_err(), "no models yet");
        let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
        reg.insert_bundle("a", &bundle, opts);
        assert_eq!(reg.resolve(None).unwrap().name(), "a", "single model is the default");
        reg.insert_bundle("b", &demo_bundle(DemoSize::Tiny, 2), EngineOptions::default());
        assert!(reg.resolve(None).is_err(), "ambiguous with two models");
        assert_eq!(reg.resolve(Some("b")).unwrap().name(), "b");
        assert!(matches!(reg.resolve(Some("c")), Err(RegistryError::UnknownModel(_))));
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        reg.shutdown();
    }

    #[test]
    fn file_backed_reload_swaps_the_plan() {
        let dir = std::env::temp_dir().join("wp_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
        bundle.save(&path).unwrap();

        let reg = registry();
        reg.insert_file("m", &path, opts).unwrap();
        let entry = reg.get("m").unwrap();
        let input = entry.net().fabricate_inputs(1, 4).pop().unwrap();
        let before = entry.batcher().infer(input.clone()).unwrap();

        // Overwrite the file with a different bundle and hot-swap.
        demo_bundle(DemoSize::Tiny, 2).save(&path).unwrap();
        reg.reload("m").unwrap();
        let after = entry.batcher().infer(input.clone()).unwrap();
        assert_ne!(before, after, "reload must change the serving plan");
        assert_eq!(entry.info().reloads, 1);

        // A corrupt file fails the reload but keeps the old plan serving.
        std::fs::write(&path, b"{ not json").unwrap();
        assert!(matches!(reg.reload("m"), Err(RegistryError::LoadFailed(_))));
        assert_eq!(entry.batcher().infer(input).unwrap(), after);

        std::fs::remove_file(&path).ok();
        reg.shutdown();
    }

    #[test]
    fn wpb_file_backed_reload_hot_swaps() {
        // The whole reload path — insert_file, reload-from-path, corrupt
        // file rejection — must work identically for binary bundles.
        let dir = std::env::temp_dir().join("wp_registry_wpb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.wpb");
        let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
        bundle.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"WPB1"));

        let reg = registry();
        reg.insert_file("m", &path, opts).unwrap();
        let entry = reg.get("m").unwrap();
        let input = entry.net().fabricate_inputs(1, 4).pop().unwrap();
        let before = entry.batcher().infer(input.clone()).unwrap();

        demo_bundle(DemoSize::Tiny, 2).save(&path).unwrap();
        reg.reload("m").unwrap();
        let after = entry.batcher().infer(input.clone()).unwrap();
        assert_ne!(before, after, "wpb reload must change the serving plan");

        // Truncated WPB fails the checksum; the old plan keeps serving.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(reg.reload("m"), Err(RegistryError::LoadFailed(_))));
        assert_eq!(entry.batcher().infer(input).unwrap(), after);

        std::fs::remove_file(&path).ok();
        reg.shutdown();
    }

    #[test]
    fn multi_megabyte_bundle_streams_with_section_bounded_memory() {
        // A node deploying a big bundle must stay allocation-bounded by
        // the *largest section*, never the whole file — the property the
        // streaming decode pipeline exists for. Fabricate a bundle whose
        // conv section alone is multiple megabytes, deploy and hot-swap
        // it through the registry, then assert the decode accounting.
        use wp_core::deploy::ConvPayload;
        use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
        use wp_core::{LookupTable, LutOrder, WeightPool};

        let vectors: Vec<Vec<f32>> =
            (0..64).map(|i| (0..8).map(|j| ((i * 8 + j) as f32).sin() * 0.1).collect()).collect();
        let pool = WeightPool::from_vectors(vectors);
        let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
        let conv = |in_ch: usize, out_ch: usize| {
            LayerSpec::Conv(ConvSpec {
                in_ch,
                out_ch,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: false,
            })
        };
        let weights = |n: usize| -> Vec<i8> { (0..n).map(|i| (i % 251) as i8).collect() };
        let bundle = wp_core::deploy::DeployBundle {
            spec: NetSpec {
                name: "big".into(),
                input: (256, 16, 16),
                classes: 0,
                layers: vec![conv(256, 384), conv(384, 384)],
            },
            pool,
            lut,
            convs: vec![
                ConvPayload::Direct { weights: weights(384 * 256 * 9), scale: 0.01 },
                ConvPayload::Direct { weights: weights(384 * 384 * 9), scale: 0.01 },
            ],
            act_bits: 8,
        };

        let dir = std::env::temp_dir().join("wp_registry_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.wpb");
        bundle.save(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert!(file_len > 2 * 1024 * 1024, "bundle must be multi-megabyte, got {file_len}");

        let reg = registry();
        reg.insert_file("big", &path, EngineOptions::default()).unwrap();
        reg.reload("big").unwrap();
        assert_eq!(reg.get("big").unwrap().info().reloads, 1);

        // The same streaming path the registry load used, instrumented:
        // peak transient buffering is the largest section, which is well
        // short of the whole file.
        let file = std::fs::File::open(&path).unwrap();
        let (streamed, stats) =
            DeployBundle::from_reader_with_stats(std::io::BufReader::new(file)).unwrap();
        assert_eq!(streamed, bundle);
        assert!(
            stats.peak_transient_bytes <= stats.largest_section_bytes,
            "peak transient {} exceeds largest section {}",
            stats.peak_transient_bytes,
            stats.largest_section_bytes
        );
        assert!(
            (stats.largest_section_bytes as u64) < stats.total_bytes,
            "largest section must be smaller than the whole stream"
        );
        assert_eq!(stats.total_bytes, file_len, "decode must consume exactly the file");

        std::fs::remove_file(&path).ok();
        reg.shutdown();
    }

    #[test]
    fn truncated_ans_bundle_reload_keeps_old_plan_serving() {
        // demo-tiny's pooled layer codes as ANS; truncate the file
        // mid-stream: the reload must fail with a typed error and the
        // previously deployed plan must keep answering, bit-identically.
        use wp_core::deploy::codec::IndexCoding;
        use wp_core::deploy::ConvPayload;

        let dir = std::env::temp_dir().join("wp_registry_ans_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.wpb");
        let (bundle, opts) = demo_deployment(DemoSize::Tiny, 1);
        for conv in &bundle.convs {
            if let ConvPayload::Pooled { indices } = conv {
                let coding = IndexCoding::choose(indices);
                assert!(matches!(coding, IndexCoding::Ans { .. }), "{}", coding.describe());
            }
        }
        bundle.save(&path).unwrap();

        let reg = registry();
        reg.insert_file("m", &path, opts).unwrap();
        let entry = reg.get("m").unwrap();
        let input = entry.net().fabricate_inputs(1, 4).pop().unwrap();
        let before = entry.batcher().infer(input.clone()).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(reg.reload("m"), Err(RegistryError::LoadFailed(_))));
        assert_eq!(entry.batcher().infer(input).unwrap(), before, "old plan must keep serving");
        assert_eq!(entry.info().reloads, 0);

        std::fs::remove_file(&path).ok();
        reg.shutdown();
    }

    #[test]
    fn in_memory_models_cannot_reload() {
        let reg = registry();
        reg.insert_bundle("mem", &demo_bundle(DemoSize::Tiny, 1), EngineOptions::default());
        assert!(matches!(reg.reload("mem"), Err(RegistryError::NotFileBacked(_))));
        assert!(matches!(reg.reload("ghost"), Err(RegistryError::UnknownModel(_))));
        reg.shutdown();
    }
}
