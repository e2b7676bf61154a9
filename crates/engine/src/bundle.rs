//! Compiling a [`DeployBundle`] into a native execution plan.
//!
//! A [`PreparedNet`] walks the bundle's [`wp_core::netspec::NetSpec`] once,
//! resolves every layer's activation shapes, pairs each conv with its
//! payload (pooled index map or direct int8 weights), and fixes the
//! per-layer requantization — after which [`PreparedNet::run`] executes a
//! batch (a solo request is a batch of one) with zero per-call setup. The
//! bundle stores conv payloads only, so depthwise/dense weights are
//! fabricated deterministically from [`EngineOptions::weight_seed`] and
//! biases are zero — the same convention as the simulator's
//! `wp_kernels::network::run_network`, which makes side-by-side throughput
//! comparisons apples-to-apples.

use crate::backend::{LutCache, MacRoute, NativeBackend, ScatterRoute};
use crate::kernel::{
    AvgPoolKernel, DenseKernel, DirectConvKernel, DwConvKernel, GlobalAvgPoolKernel, Kernel,
    KernelCtx, MaxPoolKernel, PooledConvKernel, ResidualAddKernel,
};
use crate::options::{EngineOptions, ResolvedBackend};
use crate::scratch::Scratch;
use crate::trace::{self, NetProfile, SpanKind, TraceEvent, TraceSink};
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::LayerSpec;
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_kernels::OutputQuant;
use wp_quant::Requantizer;

/// One compiled layer: its [`Kernel`] plus everything the kernel needs
/// at run time (handed over as a [`KernelCtx`] per call).
#[derive(Debug, Clone)]
struct PreparedLayer {
    kernel: Arc<dyn Kernel>,
    /// Input activation dims `(C, H, W)` at this point of the walk.
    in_dims: (usize, usize, usize),
    /// Per-filter biases (zero — bundles carry no biases yet).
    bias: Vec<i32>,
    /// Requantization into the next layer's code range.
    oq: OutputQuant,
}

impl PreparedLayer {
    /// The execution context for one call through `backend`.
    fn ctx<'a>(&'a self, backend: &'a NativeBackend, act_bits: u8) -> KernelCtx<'a> {
        KernelCtx { backend, in_dims: self.in_dims, bias: &self.bias, oq: &self.oq, act_bits }
    }
}

/// One requantizing layer's finish for one image, as
/// [`PreparedNet::finish_inputs`] captures it.
#[derive(Debug, Clone)]
pub struct FinishInput {
    /// Raw accumulators, `[K, plane]`.
    pub acc: Vec<i32>,
    /// Positions per output channel.
    pub plane: usize,
    /// One bias per output channel.
    pub bias: Vec<i32>,
    /// The layer's requantization.
    pub oq: OutputQuant,
}

/// A [`DeployBundle`] compiled for native execution.
#[derive(Debug, Clone)]
pub struct PreparedNet {
    backend: NativeBackend,
    layers: Vec<PreparedLayer>,
    input: (usize, usize, usize),
    act_bits: u8,
    /// Always-on aggregate profile (per-layer latency histograms); `None`
    /// keeps the hot loop exactly as fast as before tracing existed.
    profile: Option<Arc<NetProfile>>,
    /// Opt-in event sink (ring buffer for Chrome trace export).
    sink: Option<Arc<dyn TraceSink>>,
}

impl PreparedNet {
    /// Compiles `bundle` into an execution plan.
    ///
    /// # Panics
    ///
    /// Panics if the bundle's payloads disagree with its spec (wrong index
    /// counts, wrong weight counts, channels not divisible by the pool's
    /// group size on a pooled layer).
    pub fn from_bundle(bundle: &DeployBundle, opts: &EngineOptions) -> Self {
        let act_bits = opts.act_bits.unwrap_or(bundle.act_bits);
        let backend = NativeBackend::new_with(&bundle.lut, act_bits, opts.encoding, opts.backend);
        // Hidden activations must land in the encoding's code range:
        // unsigned (post-ReLU) clamps to [0, 2^M - 1]; signed two's
        // complement clamps two-sided to [-2^(M-1), 2^(M-1) - 1], which is
        // exactly `OutputQuant`'s non-ReLU behavior at `act_bits`.
        let mut requantized = 0usize;
        let mut next_requant = || {
            let mult = opts
                .layer_multipliers
                .as_ref()
                .and_then(|v| v.get(requantized))
                .copied()
                .unwrap_or(opts.requant_multiplier);
            requantized += 1;
            Requantizer::from_real_multiplier(mult)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.weight_seed);

        let resolved = bundle.spec.resolve();
        let mut payloads = bundle.convs.iter();
        let mut layers = Vec::with_capacity(resolved.len());
        for (li, layer) in resolved.iter().enumerate() {
            // Pool/residual layers don't requantize; only the layers that
            // do consume a per-layer multiplier slot.
            let requantizes = matches!(
                layer.spec,
                LayerSpec::Conv(_) | LayerSpec::DwConv { .. } | LayerSpec::Dense { .. }
            );
            let requant = if requantizes {
                next_requant()
            } else {
                Requantizer::from_real_multiplier(opts.requant_multiplier)
            };
            let oq = if li == resolved.len() - 1 {
                OutputQuant { requant, relu: false, out_bits: 8 }
            } else {
                OutputQuant {
                    requant,
                    relu: opts.encoding == ActEncoding::Unsigned,
                    out_bits: act_bits,
                }
            };
            let in_dims = (layer.in_ch, layer.in_h, layer.in_w);
            let (kernel, bias): (Arc<dyn Kernel>, Vec<i32>) = match layer.spec {
                LayerSpec::Conv(cs) => {
                    let shape = PooledConvShape {
                        in_ch: cs.in_ch,
                        out_ch: cs.out_ch,
                        kernel: cs.kernel,
                        stride: cs.stride,
                        pad: cs.pad,
                        in_h: layer.in_h,
                        in_w: layer.in_w,
                    };
                    let payload = payloads.next().expect("spec has more convs than payloads");
                    let bias = vec![0i32; cs.out_ch];
                    let kernel: Arc<dyn Kernel> = match payload {
                        ConvPayload::Pooled { indices } => {
                            // Transpose once at compile time; runs reuse it
                            // (prepare_indices validates the count).
                            let prepared = backend.prepare_indices(&shape, indices);
                            Arc::new(PooledConvKernel { shape, indices: prepared })
                        }
                        ConvPayload::Direct { weights, .. } => {
                            assert_eq!(
                                weights.len(),
                                cs.out_ch * cs.in_ch * cs.kernel * cs.kernel,
                                "weight size mismatch"
                            );
                            Arc::new(DirectConvKernel::new(shape, weights.clone(), &backend, &bias))
                        }
                    };
                    (kernel, bias)
                }
                LayerSpec::DwConv { channels, kernel, stride, pad } => {
                    let shape = PooledConvShape {
                        in_ch: channels,
                        out_ch: channels,
                        kernel,
                        stride,
                        pad,
                        in_h: layer.in_h,
                        in_w: layer.in_w,
                    };
                    let weights: Vec<i8> = (0..channels * kernel * kernel)
                        .map(|_| rng.gen_range(-127i32..=127) as i8)
                        .collect();
                    let bias = vec![0i32; channels];
                    let kernel = DwConvKernel::new(shape, weights, &backend, &bias);
                    (Arc::new(kernel), bias)
                }
                LayerSpec::Dense { in_features, out_features, .. } => {
                    let weights: Vec<i8> = (0..in_features * out_features)
                        .map(|_| rng.gen_range(-127i32..=127) as i8)
                        .collect();
                    let bias = vec![0i32; out_features];
                    let kernel = DenseKernel::new(weights, out_features, &backend, &bias);
                    (Arc::new(kernel), bias)
                }
                LayerSpec::MaxPool { size } => (Arc::new(MaxPoolKernel { size }), Vec::new()),
                LayerSpec::AvgPool { size } => (Arc::new(AvgPoolKernel { size }), Vec::new()),
                LayerSpec::GlobalAvgPool => (Arc::new(GlobalAvgPoolKernel), Vec::new()),
                LayerSpec::ResidualAdd => (Arc::new(ResidualAddKernel), Vec::new()),
            };
            layers.push(PreparedLayer { kernel, in_dims, bias, oq });
        }
        assert!(payloads.next().is_none(), "bundle has more conv payloads than spec convs");
        Self { backend, layers, input: bundle.spec.input, act_bits, profile: None, sink: None }
    }

    /// Loads a bundle file and compiles it in one step. The on-disk
    /// format — JSON or entropy-coded WPB — is sniffed from the file's
    /// magic bytes, so both deploy interchangeably; the compiled plan is
    /// bit-identical either way (WPB round-trips the bundle exactly).
    ///
    /// WPB files decode through the streaming section pipeline
    /// ([`DeployBundle::from_reader`]): the file is never buffered whole,
    /// and peak transient allocation is bounded by the largest section.
    ///
    /// # Errors
    ///
    /// Returns any I/O or decode error (truncated/corrupt WPB files fail
    /// their section checksums rather than compiling a partial plan).
    ///
    /// # Panics
    ///
    /// Panics if the decoded bundle's payloads disagree with its spec,
    /// as in [`PreparedNet::from_bundle`].
    pub fn load(path: impl AsRef<std::path::Path>, opts: &EngineOptions) -> std::io::Result<Self> {
        let bundle = DeployBundle::load(path)?;
        Ok(Self::from_bundle(&bundle, opts))
    }

    /// Compiles a plan straight off any [`std::io::Read`] bundle stream —
    /// a socket, a pipe, an in-flight HTTP body — with the same
    /// streaming, section-bounded decode as [`PreparedNet::load`].
    ///
    /// # Errors
    ///
    /// Returns any [`wp_core::deploy::codec::CodecError`] from the
    /// stream or codec.
    ///
    /// # Panics
    ///
    /// Panics if the decoded bundle's payloads disagree with its spec,
    /// as in [`PreparedNet::from_bundle`].
    pub fn from_reader<R: std::io::Read>(
        reader: R,
        opts: &EngineOptions,
    ) -> Result<Self, wp_core::deploy::codec::CodecError> {
        let bundle = DeployBundle::from_reader(reader)?;
        Ok(Self::from_bundle(&bundle, opts))
    }

    /// The network's input shape `(C, H, W)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input
    }

    /// Activation bitwidth the plan executes at.
    pub fn act_bits(&self) -> u8 {
        self.act_bits
    }

    /// The backend every run executes through (read-only, so batch
    /// workers share it, LUT cache included).
    pub fn backend(&self) -> &NativeBackend {
        &self.backend
    }

    /// The concrete kernel tier this plan executes with (after `Auto`
    /// resolution) — what `wp_serve` reports in `/v1/models` and
    /// `/metrics`.
    pub fn backend_kind(&self) -> ResolvedBackend {
        self.backend.simd()
    }

    /// Each pooled conv layer's [`ScatterRoute`], in walk order.
    pub fn scatter_routes(&self) -> Vec<ScatterRoute> {
        self.layers.iter().filter_map(|layer| layer.kernel.scatter_route()).collect()
    }

    /// Each direct, depthwise and dense layer's [`MacRoute`], in walk
    /// order.
    pub fn mac_routes(&self) -> Vec<MacRoute> {
        self.layers.iter().filter_map(|layer| layer.kernel.mac_route()).collect()
    }

    /// Deterministic synthetic input batch with codes in the encoding's
    /// valid range — handy for benchmarks and round-trip tests.
    pub fn fabricate_inputs(&self, n: usize, seed: u64) -> Vec<Vec<i32>> {
        let (c, h, w) = self.input;
        let (lo, hi) = self.backend.encoding().code_range(self.act_bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..c * h * w).map(|_| rng.gen_range(lo..=hi)).collect()).collect()
    }

    /// Checks one input plane against the plan: its length must be the
    /// network's `C·H·W`, and every code must lie in the encoding's range
    /// at the plan's activation bitwidth — the `M`-bit codes the
    /// bit-serial kernels are defined on. [`PreparedNet::run`] runs this
    /// check over every plane before any layer executes, and the server's
    /// micro-batcher refuses a request with its message. Every later
    /// plane is in range by construction: requant clamps into the range,
    /// and pooling and the saturating residual add keep it.
    ///
    /// # Errors
    ///
    /// The first fault found: a wrong length, or the first code outside
    /// the range.
    pub fn check_input(&self, input: &[i32]) -> Result<(), InputError> {
        let (c, h, w) = self.input;
        if input.len() != c * h * w {
            return Err(InputError::Length { len: input.len(), dims: self.input });
        }
        let (lo, hi) = self.backend.encoding().code_range(self.act_bits);
        match input.iter().find(|&&code| !(lo..=hi).contains(&code)) {
            Some(&code) => Err(InputError::Code { code, range: (lo, hi) }),
            None => Ok(()),
        }
    }

    /// Runs one inference as a batch of one through [`PreparedNet::run`]
    /// with a fresh arena — the convenience form for tools, tests and
    /// expected-output builders.
    ///
    /// # Panics
    ///
    /// Panics if [`PreparedNet::check_input`] refuses `input`.
    pub fn run_one(&self, input: &[i32]) -> Vec<i32> {
        self.run(&[input], &mut Scratch::new()).pop().expect("one output per input")
    }

    /// Runs a batch through the plan layer by layer, each layer through
    /// its [`Kernel::run_batch`] entry point, returning outputs in input
    /// order. Pooled convs off the register route batch in tiles that
    /// decode each tap once per tile; every other layer runs its one
    /// kernel image by image (see [`crate::kernel`]); a solo request is
    /// simply a batch of one. Outputs are **bit-identical** for any batch
    /// composition (pinned by test), so serving layers may coalesce
    /// requests freely.
    ///
    /// Input staging, every intermediate plane set and every kernel
    /// working set come from (and return to) `scratch`. Hand the returned
    /// planes back with [`Scratch::put_planes`] and a warmed arena serves
    /// whole inferences with zero heap allocations (pinned by
    /// `tests/zero_alloc.rs`).
    ///
    /// # Panics
    ///
    /// Panics if [`PreparedNet::check_input`] refuses any input. Every
    /// input is checked up front — before any layer executes — and the
    /// panic message names the offending batch index, not a position
    /// buried inside a layer loop.
    pub fn run(&self, inputs: &[&[i32]], scratch: &mut Scratch) -> Vec<Vec<i32>> {
        self.check_batch(inputs);
        self.run_checked(inputs, scratch)
    }

    /// [`PreparedNet::run`] on a batch [`PreparedNet::check_batch`] has
    /// already passed.
    pub(crate) fn run_checked(&self, inputs: &[&[i32]], scratch: &mut Scratch) -> Vec<Vec<i32>> {
        if self.profile.is_none() && self.sink.is_none() {
            // The untraced hot path: one Option check per run, zero
            // per-layer overhead (pinned by the trace_overhead bench).
            let mut planes = stage_batch(inputs, scratch);
            for layer in &self.layers {
                let ctx = layer.ctx(&self.backend, self.act_bits);
                planes = layer.kernel.run_batch(&ctx, planes, scratch);
            }
            return planes;
        }

        let batch = u16::try_from(inputs.len()).unwrap_or(u16::MAX);
        let run_tier = trace::tier_code(self.backend.simd());
        let run_start = trace::now_ns();
        let mut planes = stage_batch(inputs, scratch);
        if let Some(sink) = &self.sink {
            sink.record_span(&TraceEvent {
                kind: SpanKind::Pack,
                track: trace::current_track(),
                layer: 0,
                batch,
                tier: run_tier,
                id: 0,
                start_ns: run_start,
                dur_ns: trace::now_ns().saturating_sub(run_start),
            });
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let ctx = layer.ctx(&self.backend, self.act_bits);
            let t0 = trace::now_ns();
            planes = layer.kernel.run_batch(&ctx, planes, scratch);
            let dur = trace::now_ns().saturating_sub(t0);
            self.observe_layer(li, batch, run_tier, t0, dur);
        }
        self.observe_run(batch, run_tier, run_start);
        planes
    }

    /// Derives per-layer requant multipliers from synthetic activation
    /// statistics: walks the network once on `samples` fabricated inputs
    /// and, at every requantized layer, scales the observed peak
    /// accumulator onto the layer's output code range before continuing
    /// the walk with the calibrated codes. The result slots into
    /// [`EngineOptions::layer_multipliers`] — without it, one global
    /// multiplier has to fit every layer, which collapses deep networks
    /// whose per-layer fan-ins differ by orders of magnitude.
    pub fn calibrate_multipliers(
        bundle: &DeployBundle,
        opts: &EngineOptions,
        samples: usize,
        seed: u64,
    ) -> Vec<f64> {
        let net = Self::from_bundle(bundle, opts);
        let mut multipliers = Vec::new();
        net.walk_finishes(net.fabricate_inputs(samples.max(1), seed), |layer, infos| {
            // For ReLU layers only positive accumulators survive, so only
            // they constrain the scale.
            let mut peak = 0i64;
            for (acc, plane) in infos {
                for (chunk, &b) in acc.chunks(*plane).zip(&layer.bias) {
                    for &a in chunk {
                        let v = a as i64 + b as i64;
                        peak = peak.max(if layer.oq.relu { v } else { v.abs() });
                    }
                }
            }
            let target = layer.oq.code_range().1;
            let mult =
                if peak == 0 { opts.requant_multiplier } else { target as f64 / peak as f64 };
            multipliers.push(mult);
            OutputQuant { requant: Requantizer::from_real_multiplier(mult), ..layer.oq }
        });
        multipliers
    }

    /// Every requantizing layer's finish input for one image, in layer
    /// order: its raw accumulators, bias and requantization, exactly as
    /// [`PreparedNet::run`] hands them to [`NativeBackend::finish_plane`].
    /// It lets benchmarks time the finish pass on a network's real
    /// accumulators, apart from the kernels.
    ///
    /// # Panics
    ///
    /// Panics if [`PreparedNet::check_input`] refuses `input`.
    pub fn finish_inputs(&self, input: &[i32]) -> Vec<FinishInput> {
        self.check_batch(&[input]);
        let mut finishes = Vec::new();
        self.walk_finishes(vec![input.to_vec()], |layer, infos| {
            let (acc, plane) = infos[0].clone();
            finishes.push(FinishInput { acc, plane, bias: layer.bias.clone(), oq: layer.oq });
            layer.oq
        });
        finishes
    }

    /// Runs `planes` through every layer one image at a time. At each
    /// requantizing layer `finish_with` sees the raw accumulators (with
    /// the positions per output channel) and returns the requantization
    /// that finishes them, through [`NativeBackend::finish_plane`], into
    /// the next layer's input.
    fn walk_finishes(
        &self,
        mut planes: Vec<Vec<i32>>,
        mut finish_with: impl FnMut(&PreparedLayer, &[(Vec<i32>, usize)]) -> OutputQuant,
    ) {
        let mut scratch = Scratch::new();
        for layer in &self.layers {
            let ctx = layer.ctx(&self.backend, self.act_bits);
            let infos: Option<Vec<(Vec<i32>, usize)>> =
                planes.iter().map(|p| layer.kernel.accumulate(&ctx, p, &mut scratch)).collect();
            let Some(infos) = infos else {
                planes =
                    planes.iter().map(|p| layer.kernel.run_solo(&ctx, p, &mut scratch)).collect();
                continue;
            };
            let oq = finish_with(layer, &infos);
            planes = infos
                .into_iter()
                .map(|(mut acc, plane)| {
                    self.backend.finish_plane(&oq, &mut acc, &layer.bias, plane);
                    acc
                })
                .collect();
        }
    }

    /// Records one traced layer execution into whichever observers are
    /// attached (only called on the traced path).
    fn observe_layer(&self, layer: usize, batch: u16, tier: u8, start_ns: u64, dur_ns: u64) {
        if let Some(profile) = &self.profile {
            profile.record_layer(layer, dur_ns);
        }
        if let Some(sink) = &self.sink {
            sink.record_span(&TraceEvent {
                kind: SpanKind::Layer,
                track: trace::current_track(),
                layer: u16::try_from(layer).unwrap_or(u16::MAX),
                batch,
                tier,
                id: 0,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Records one traced whole pass (all layers) into the observers.
    fn observe_run(&self, batch: u16, tier: u8, start_ns: u64) {
        let dur_ns = trace::now_ns().saturating_sub(start_ns);
        if let Some(profile) = &self.profile {
            profile.record_run(dur_ns);
        }
        if let Some(sink) = &self.sink {
            sink.record_span(&TraceEvent {
                kind: SpanKind::Run,
                track: trace::current_track(),
                layer: 0,
                batch,
                tier,
                id: 0,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Runs [`PreparedNet::check_input`] over a whole batch before any
    /// layer executes, panicking with the offending *batch* index — shared
    /// by [`PreparedNet::run`] and [`crate::BatchRunner`] so the message
    /// never degrades to a chunk-local position from inside a worker.
    pub(crate) fn check_batch(&self, inputs: &[&[i32]]) {
        for (i, input) in inputs.iter().enumerate() {
            if let Err(e) = self.check_input(input) {
                panic!("input {i} {e}");
            }
        }
    }

    /// Layer kernel names in execution order (`direct_conv`,
    /// `pooled_conv`, `dense`, ...): the vocabulary of per-layer profile
    /// rows and trace span names.
    pub fn layer_kinds(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.kernel.name().to_string()).collect()
    }

    /// A fresh [`NetProfile`] sized and named for this plan (attach it
    /// with [`PreparedNet::set_profile`]).
    pub fn make_profile(&self) -> NetProfile {
        NetProfile::new(self.layer_kinds())
    }

    /// Attaches (or detaches) the aggregate per-layer profile. With
    /// `None` — the default — execution takes the untraced hot path.
    pub fn set_profile(&mut self, profile: Option<Arc<NetProfile>>) {
        self.profile = profile;
    }

    /// The attached aggregate profile, if any.
    pub fn profile(&self) -> Option<&Arc<NetProfile>> {
        self.profile.as_ref()
    }

    /// Attaches (or detaches) the event-trace sink (a
    /// [`crate::TraceBuffer`] for Chrome trace export).
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// The attached event sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// The LUT cache layout (exposed for diagnostics).
    pub fn lut_cache(&self) -> &LutCache {
        self.backend.lut()
    }
}

/// Why [`PreparedNet::check_input`] refuses an input plane. Its
/// [`std::fmt::Display`] form completes a sentence that starts with the
/// plane's name (`"input 3 has 7 codes; ..."`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// The plane holds `len` codes, not the network's `C·H·W`.
    Length { len: usize, dims: (usize, usize, usize) },
    /// `code` lies outside the encoding's range at the plan's bitwidth.
    Code { code: i32, range: (i32, i32) },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InputError::Length { len, dims: (c, h, w) } => {
                write!(f, "has {len} codes; model expects {c}x{h}x{w} = {}", c * h * w)
            }
            InputError::Code { code, range: (lo, hi) } => {
                write!(f, "has activation code {code} outside [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// Copies a checked input batch into arena planes.
fn stage_batch(inputs: &[&[i32]], scratch: &mut Scratch) -> Vec<Vec<i32>> {
    let mut planes = scratch.take_planes(inputs.len());
    for x in inputs {
        let mut plane = scratch.take_i32(x.len());
        plane.copy_from_slice(x);
        planes.push(plane);
    }
    planes
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_core::netspec::{ConvSpec, NetSpec};
    use wp_core::{LookupTable, LutOrder, WeightPool};

    /// A handmade bundle: direct stem + pooled conv + pooling + dense head.
    fn toy_bundle(order: LutOrder) -> DeployBundle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let vectors: Vec<Vec<f32>> =
            (0..4).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
        let pool = WeightPool::from_vectors(vectors);
        let lut = LookupTable::build(&pool, 8, order);
        let spec = NetSpec {
            name: "toy".into(),
            input: (3, 8, 8),
            classes: 4,
            layers: vec![
                LayerSpec::Conv(ConvSpec {
                    in_ch: 3,
                    out_ch: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    compressed: false,
                }),
                LayerSpec::Conv(ConvSpec {
                    in_ch: 8,
                    out_ch: 16,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    compressed: true,
                }),
                LayerSpec::MaxPool { size: 2 },
                LayerSpec::ResidualAdd,
                LayerSpec::GlobalAvgPool,
                LayerSpec::Dense { in_features: 16, out_features: 4, compressed: false },
            ],
        };
        let direct: Vec<i8> = (0..8 * 3 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let indices: Vec<u8> = (0..16 * 9).map(|_| rng.gen_range(0..4) as u8).collect();
        DeployBundle {
            spec,
            pool,
            lut,
            convs: vec![
                ConvPayload::Direct { weights: direct, scale: 0.01 },
                ConvPayload::Pooled { indices },
            ],
            act_bits: 8,
        }
    }

    #[test]
    fn bundle_runs_end_to_end_and_is_deterministic() {
        let bundle = toy_bundle(LutOrder::InputOriented);
        let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
        let input = net.fabricate_inputs(1, 3).pop().unwrap();
        let a = net.run_one(&input);
        let b = net.run_one(&input);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b);
        // Final layer is signed 8-bit.
        assert!(a.iter().all(|&v| (-128..=127).contains(&v)));
    }

    #[test]
    fn lut_order_does_not_change_outputs() {
        let a = PreparedNet::from_bundle(
            &toy_bundle(LutOrder::InputOriented),
            &EngineOptions::default(),
        );
        let b = PreparedNet::from_bundle(
            &toy_bundle(LutOrder::WeightOriented),
            &EngineOptions::default(),
        );
        let input = a.fabricate_inputs(1, 9).pop().unwrap();
        assert_eq!(a.run_one(&input), b.run_one(&input));
    }

    #[test]
    fn act_bits_override_restricts_codes() {
        let bundle = toy_bundle(LutOrder::InputOriented);
        let opts = EngineOptions::new().with_act_bits(4);
        let net = PreparedNet::from_bundle(&bundle, &opts);
        assert_eq!(net.act_bits(), 4);
        let inputs = net.fabricate_inputs(2, 5);
        assert!(inputs.iter().flatten().all(|&c| (0..16).contains(&c)));
        let out = net.run_one(&inputs[0]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn signed_encoding_runs_end_to_end() {
        // Regression: hidden-layer requant used to emit unsigned codes
        // regardless of encoding, tripping conv_pooled's signed range
        // check on the next pooled layer.
        let bundle = toy_bundle(LutOrder::InputOriented);
        let opts = EngineOptions::new()
            .with_encoding(ActEncoding::SignedTwosComplement)
            .with_requant_multiplier(5e-3);
        let net = PreparedNet::from_bundle(&bundle, &opts);
        let inputs = net.fabricate_inputs(3, 3);
        assert!(inputs.iter().flatten().all(|&c| (-128..=127).contains(&c)));
        for input in &inputs {
            let out = net.run_one(input);
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|&v| (-128..=127).contains(&v)));
        }
    }

    #[test]
    fn calibrated_multipliers_prevent_collapse_and_cover_all_layers() {
        let bundle = toy_bundle(LutOrder::InputOriented);
        let opts = EngineOptions::default();
        let multipliers = PreparedNet::calibrate_multipliers(&bundle, &opts, 4, 77);
        assert_eq!(multipliers.len(), 3, "two convs + dense head requantize");
        assert!(multipliers.iter().all(|&m| m.is_finite() && m > 0.0));
        let opts = opts.with_layer_multipliers(Some(multipliers));
        let net = PreparedNet::from_bundle(&bundle, &opts);
        let inputs = net.fabricate_inputs(3, 5);
        let outs: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        // Calibration must keep signal alive: distinct inputs map to
        // distinct logits instead of a saturated or zeroed constant.
        assert_ne!(outs[0], outs[1]);
        assert_ne!(outs[1], outs[2]);
        // And the batched path agrees under per-layer multipliers too.
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        assert_eq!(net.run(&refs, &mut Scratch::new()), outs);
    }

    #[test]
    fn run_batch_is_bit_identical_to_run_one() {
        // Includes a batch larger than the backend's internal tile so the
        // tiling boundary is covered.
        let bundle = toy_bundle(LutOrder::InputOriented);
        let net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
        let n = crate::NativeBackend::BATCH_TILE + 5;
        let inputs = net.fabricate_inputs(n, 23);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let batched = net.run(&refs, &mut Scratch::new());
        for (input, out) in inputs.iter().zip(&batched) {
            assert_eq!(&net.run_one(input), out);
        }
    }

    #[test]
    fn run_batch_handles_empty_and_single() {
        let net = PreparedNet::from_bundle(
            &toy_bundle(LutOrder::InputOriented),
            &EngineOptions::default(),
        );
        assert!(net.run(&[], &mut Scratch::new()).is_empty());
        let input = net.fabricate_inputs(1, 31).pop().unwrap();
        assert_eq!(net.run(&[&input], &mut Scratch::new()), vec![net.run_one(&input)]);
    }

    #[test]
    fn load_compiles_identically_from_json_and_wpb() {
        let bundle = toy_bundle(LutOrder::WeightOriented);
        let dir = std::env::temp_dir().join("wp_engine_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("net.json");
        let wpb_path = dir.join("net.wpb");
        bundle.save(&json_path).unwrap();
        bundle.save(&wpb_path).unwrap();
        assert!(
            std::fs::metadata(&wpb_path).unwrap().len()
                < std::fs::metadata(&json_path).unwrap().len(),
            "binary bundle must be smaller"
        );

        let opts = EngineOptions::default();
        let from_json = PreparedNet::load(&json_path, &opts).unwrap();
        let from_wpb = PreparedNet::load(&wpb_path, &opts).unwrap();
        let direct = PreparedNet::from_bundle(&bundle, &opts);
        for input in direct.fabricate_inputs(4, 17) {
            let expect = direct.run_one(&input);
            assert_eq!(from_json.run_one(&input), expect);
            assert_eq!(from_wpb.run_one(&input), expect, "wpb-loaded plan must match exactly");
        }
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&wpb_path).ok();
    }

    #[test]
    fn from_reader_compiles_bit_identically_to_buffer_path() {
        // The streaming section pipeline and the in-memory buffer decode
        // must produce byte-for-byte the same bundle — and therefore the
        // same compiled plan — for both index codings: the toy bundle's
        // uniform indices code raw, and pointing most of them at one pool
        // vector makes them code as ANS.
        use wp_core::deploy::codec::{Format, IndexCoding};
        let raw = toy_bundle(LutOrder::InputOriented);
        let mut ans = raw.clone();
        let ConvPayload::Pooled { indices } = &mut ans.convs[1] else {
            panic!("toy conv 1 is pooled");
        };
        for (i, v) in indices.iter_mut().enumerate() {
            if i % 8 != 0 {
                *v = 2;
            }
        }
        let opts = EngineOptions::default();
        for (bundle, want_ans) in [(raw, false), (ans, true)] {
            let ConvPayload::Pooled { indices } = &bundle.convs[1] else {
                panic!("toy conv 1 is pooled");
            };
            let coding = IndexCoding::choose(indices);
            assert_eq!(matches!(coding, IndexCoding::Ans { .. }), want_ans, "{coding:?}");
            let direct = PreparedNet::from_bundle(&bundle, &opts);
            let bytes = bundle.to_bytes(Format::Wpb).unwrap();
            let buffered = DeployBundle::from_bytes(&bytes).unwrap();
            let streamed = DeployBundle::from_reader(bytes.as_slice()).unwrap();
            assert_eq!(buffered, streamed, "streamed bundle differs under {}", coding.describe());
            let net = PreparedNet::from_reader(bytes.as_slice(), &opts).unwrap();
            for input in direct.fabricate_inputs(2, 41) {
                assert_eq!(net.run_one(&input), direct.run_one(&input));
            }
        }
    }

    #[test]
    fn load_rejects_truncated_wpb() {
        let bundle = toy_bundle(LutOrder::InputOriented);
        let dir = std::env::temp_dir().join("wp_engine_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.wpb");
        bundle.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(PreparedNet::load(&path, &EngineOptions::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "input 0 has 7 codes; model expects 3x8x8 = 192")]
    fn wrong_input_size_rejected() {
        let net = PreparedNet::from_bundle(
            &toy_bundle(LutOrder::InputOriented),
            &EngineOptions::default(),
        );
        net.run_one(&[0i32; 7]);
    }

    /// An in-memory bundle whose index map addresses a vector past the
    /// pool fails at compile time, not silently (full tiles) or at run
    /// time (solo).
    #[test]
    #[should_panic(expected = "pool index 4 outside the 4-vector pool")]
    fn out_of_pool_index_rejected_at_compile() {
        let mut bundle = toy_bundle(LutOrder::InputOriented);
        let ConvPayload::Pooled { indices } = &mut bundle.convs[1] else {
            panic!("toy conv 1 is pooled");
        };
        indices[5] = 4;
        PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    }
}
