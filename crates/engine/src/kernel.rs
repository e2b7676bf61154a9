//! The unified per-layer execution interface.
//!
//! Every compiled layer — pooled conv, direct conv, depthwise, dense,
//! pooling, residual — executes through one [`Kernel`] trait. The executor
//! ([`crate::PreparedNet::run`]) walks a list of `Arc<dyn Kernel>`, never
//! inspects layer kinds, and calls one entry point per layer:
//! [`Kernel::run_batch`], on a coalesced batch (a solo request is a batch
//! of one). [`Kernel::run_solo`] is the per-image reference each kernel
//! is defined by.
//!
//! The contract every implementation upholds (pinned by the batch-parity
//! tests): **`run_batch` is bit-identical to mapping `run_solo` over the
//! batch.** Each kernel is compiled for its plan's tier, and the tier
//! decides how it batches:
//!
//! * Direct, depthwise and dense layers run one kernel for solo and
//!   batched calls on every tier, and a batch is a plain loop over
//!   images: on the swar and avx2 tiers the `pmaddwd` kernels
//!   ([`MacRoute::Madd`], SSE2 or AVX2 lanes), which stage each image
//!   once channel-last and read every output pixel's receptive field in
//!   place, and otherwise the exact `i64` reference loop. The madd route is admitted by a
//!   plan-time range proof over the code range, which every plane a plan
//!   stages lies in: [`crate::PreparedNet::run`] checks its input planes
//!   at entry.
//! * Pooled convs run the register-resident `vpshufb` scatter on the
//!   avx2 tier ([`ScatterRoute::Registers`]), image by image. On the
//!   swar tier, and for avx2 layers off the register route, they batch
//!   the weight-stationary way (SWIS-style): a batch tile is transposed
//!   to batch-minor columns and each tap is decoded once per tile
//!   instead of once per image, which only reassociates *independent*
//!   per-image sums — see [`crate::backend`] for the exactness argument.
//!   Images past the last full tile run the solo kernel. The **scalar**
//!   tier maps `run_solo` over every batch.
//! * Pooling and the residual add have no weights to share across a
//!   batch, so they keep the default `run_batch`, which maps `run_solo`
//!   per image, on every tier.
//!
//! Every method threads a [`Scratch`] arena: activation planes, raw
//! accumulators and kernel working sets are checked out of per-worker
//! pools and returned after use, so a warmed plan executes with zero
//! heap allocations (`tests/zero_alloc.rs`). `run_solo` borrows its
//! input; `run_batch` consumes its input planes and drains them back
//! into the arena.
//!
//! Requantizing kernels (pooled, direct, depthwise, dense) accumulate
//! raw `i32` sums, then finish each plane — bias, rounding requant and
//! clamp — through the plan's one finish, [`NativeBackend::finish_plane`]
//! ([`crate::finish`]): the AVX2 finish on the avx2 tier, the reference
//! [`OutputQuant::apply_plane_in_place`] loop on the scalar and swar
//! tiers. `run_solo`'s default does that, and the pooled conv's batched
//! path finishes its per-image planes the same way; only the gather's
//! full batch tiles fuse the reference arithmetic into their write-out.
//! The raw accumulators are also exposed through
//! [`Kernel::accumulate`], which is what per-layer requant calibration
//! consumes ([`crate::PreparedNet::calibrate_multipliers`]).

use crate::backend::{
    self, FusedOut, MacRoute, MaddRows, MaddTaps, NativeBackend, PreparedIndices, ScatterRoute,
};
use crate::options::ResolvedBackend;
use crate::scratch::Scratch;
use wp_core::reference::PooledConvShape;
use wp_kernels::OutputQuant;

/// Everything a kernel needs at run time beyond its own compiled state:
/// the executing backend (LUT cache, activation encoding), the layer's
/// input dims, and the bias/requant applied after accumulation. Built
/// per layer per call by the executor; kernels stay stateless across
/// calls.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// The executing backend (the plan's own, shared by every worker).
    pub backend: &'a NativeBackend,
    /// Input activation dims `(C, H, W)` at this layer.
    pub in_dims: (usize, usize, usize),
    /// Per-output-channel biases (empty for pass-through kernels).
    pub bias: &'a [i32],
    /// Requantization into the next layer's code range.
    pub oq: &'a OutputQuant,
    /// Activation bitwidth the plan executes at.
    pub act_bits: u8,
}

/// One compiled layer op. See the module docs for the solo/batch
/// bit-identity contract and the scratch-arena discipline.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Short op name (diagnostics, coverage reports).
    fn name(&self) -> &'static str;

    /// The scatter route a pooled conv was prepared for; `None` for every
    /// other kernel.
    fn scatter_route(&self) -> Option<ScatterRoute> {
        None
    }

    /// The multiply-accumulate route a direct, depthwise or dense layer
    /// was compiled for; `None` for every other kernel.
    fn mac_route(&self) -> Option<MacRoute> {
        None
    }

    /// Raw accumulators for one image plus the spatial positions per
    /// output channel, for requantizing ops — or `None` for pass-through
    /// ops (pooling, residual), which transform codes without an
    /// accumulate/requantize stage. The returned buffer comes from the
    /// arena.
    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)>;

    /// Executes the layer on one image's activation plane. The returned
    /// buffer comes from the arena; the input plane stays owned by the
    /// caller (the executor recycles it).
    ///
    /// Default: accumulate, then bias-add + requantize in place through
    /// the plan's finish, [`NativeBackend::finish_plane`]: the AVX2
    /// finish on the avx2 tier, [`OutputQuant::apply_plane_in_place`]
    /// on the others, bit-identical either way. Pass-through kernels
    /// (those returning `None` from [`Kernel::accumulate`]) must override
    /// this.
    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (mut acc, plane) = self
            .accumulate(ctx, codes, scratch)
            .expect("pass-through kernels must override run_solo");
        ctx.backend.finish_plane(ctx.oq, &mut acc, ctx.bias, plane);
        acc
    }

    /// Executes the layer on a whole batch of activation planes,
    /// bit-identical to mapping [`Kernel::run_solo`] over them — the one
    /// entry point the executor calls. Consumes the input planes
    /// (draining them back into the arena) and returns arena buffers.
    ///
    /// Default: exactly that per-image [`Kernel::run_solo`] map, which
    /// every kernel but the pooled conv keeps. Pooled convs override it
    /// with batched tile kernels (bias+requant fused into the tile's
    /// write-out), pinned bit-identical to the map by the batch- and
    /// backend-parity tests.
    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        solo_map(self, ctx, planes, scratch)
    }
}

/// Spatial positions per output channel of a conv-shaped layer.
pub(crate) fn out_plane(shape: &PooledConvShape) -> usize {
    let geo = shape.geometry();
    geo.out_h() * geo.out_w()
}

/// Maps [`Kernel::run_solo`] over a batch: the default
/// [`Kernel::run_batch`], and the scalar tier's pooled convs.
fn solo_map<K: Kernel + ?Sized>(
    kernel: &K,
    ctx: &KernelCtx<'_>,
    planes: Vec<Vec<i32>>,
    scratch: &mut Scratch,
) -> Vec<Vec<i32>> {
    let mut outs = scratch.take_planes(planes.len());
    for p in &planes {
        let out = kernel.run_solo(ctx, p, scratch);
        outs.push(out);
    }
    scratch.put_planes(planes);
    outs
}

/// Bit-serial pooled convolution from a prepared (transposed) index map.
#[derive(Debug, Clone)]
pub struct PooledConvKernel {
    /// Conv geometry.
    pub shape: PooledConvShape,
    /// Tap indices from [`NativeBackend::prepare_indices`] for `shape`.
    pub indices: PreparedIndices,
}

impl Kernel for PooledConvKernel {
    fn name(&self) -> &'static str {
        "pooled_conv"
    }

    fn scatter_route(&self) -> Option<ScatterRoute> {
        Some(self.indices.route())
    }

    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        Some((
            ctx.backend.conv_pooled_prepared_scratch(codes, &self.shape, &self.indices, scratch),
            out_plane(&self.shape),
        ))
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        if ctx.backend.simd() == ResolvedBackend::Scalar {
            return solo_map(self, ctx, planes, scratch);
        }
        let mut outs = scratch.take_planes(planes.len());
        ctx.backend.conv_pooled_prepared_batch_core(
            &planes,
            &self.shape,
            &self.indices,
            &FusedOut { backend: ctx.backend, bias: ctx.bias, oq: ctx.oq },
            scratch,
            &mut outs,
        );
        scratch.put_planes(planes);
        outs
    }
}

/// The madd route of a kernel holding `madd` weights.
fn route_of<T>(madd: &Option<T>) -> Option<MacRoute> {
    Some(if madd.is_some() { MacRoute::Madd } else { MacRoute::Exact })
}

/// Direct int8 convolution (uncompressed stem layers). On the swar and
/// avx2 tiers under the range proof it also holds its weights as
/// [`MaddRows`].
#[derive(Debug, Clone)]
pub struct DirectConvKernel {
    /// Conv geometry.
    shape: PooledConvShape,
    /// `[K, C, R, S]` int8 weights.
    weights: Vec<i8>,
    madd: Option<MaddRows>,
}

impl DirectConvKernel {
    /// Compiles the kernel for `backend`'s tier. `bias` enters the madd
    /// route's range proof, which assumes every input plane lies in the
    /// code range (see [`NativeBackend::prepare_madd_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the shape's filter count.
    pub fn new(
        shape: PooledConvShape,
        weights: Vec<i8>,
        backend: &NativeBackend,
        bias: &[i32],
    ) -> Self {
        assert_eq!(
            weights.len(),
            shape.out_ch * shape.in_ch * shape.kernel * shape.kernel,
            "weight size mismatch"
        );
        let madd = backend.prepare_madd_rows(&shape, &weights, bias);
        Self { shape, weights, madd }
    }
}

impl Kernel for DirectConvKernel {
    fn name(&self) -> &'static str {
        "direct_conv"
    }

    fn mac_route(&self) -> Option<MacRoute> {
        route_of(&self.madd)
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        let acc = match &self.madd {
            Some(madd) => backend::direct_madd_scratch(codes, madd, scratch),
            None => backend::conv_direct_scratch(codes, &self.shape, &self.weights, scratch),
        };
        Some((acc, out_plane(&self.shape)))
    }
}

/// Depthwise int8 convolution (one kernel per channel). On the swar and
/// avx2 tiers under the range proof it also holds its weights as
/// [`MaddTaps`].
#[derive(Debug, Clone)]
pub struct DwConvKernel {
    /// Conv geometry (`out_ch == in_ch`).
    shape: PooledConvShape,
    /// `[C, R, S]` int8 weights.
    weights: Vec<i8>,
    madd: Option<MaddTaps>,
}

impl DwConvKernel {
    /// Compiles the kernel for `backend`'s tier (see
    /// [`DirectConvKernel::new`] for `bias`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not depthwise or `weights` does not match
    /// it.
    pub fn new(
        shape: PooledConvShape,
        weights: Vec<i8>,
        backend: &NativeBackend,
        bias: &[i32],
    ) -> Self {
        assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
        assert_eq!(
            weights.len(),
            shape.in_ch * shape.kernel * shape.kernel,
            "weight size mismatch"
        );
        let madd = backend.prepare_madd_taps(&shape, &weights, bias);
        Self { shape, weights, madd }
    }
}

impl Kernel for DwConvKernel {
    fn name(&self) -> &'static str {
        "dw_conv"
    }

    fn mac_route(&self) -> Option<MacRoute> {
        route_of(&self.madd)
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        let acc = match &self.madd {
            Some(madd) => backend::dwconv_madd_scratch(codes, &self.shape, madd, scratch),
            None => backend::dwconv_acc_scratch(codes, &self.shape, &self.weights, scratch),
        };
        Some((acc, out_plane(&self.shape)))
    }
}

/// Fully-connected int8 layer. On the madd route it runs as the `1×1`
/// case of [`DirectConvKernel`]'s staging, [`MaddRows`] and kernel.
#[derive(Debug, Clone)]
pub struct DenseKernel {
    /// `[O, I]` int8 weights, row per output feature.
    weights: Vec<i8>,
    /// Output features `O`.
    out_features: usize,
    madd: Option<MaddRows>,
}

impl DenseKernel {
    /// Compiles the kernel for `backend`'s tier (see
    /// [`DirectConvKernel::new`] for `bias`).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not a multiple of `out_features`.
    pub fn new(
        weights: Vec<i8>,
        out_features: usize,
        backend: &NativeBackend,
        bias: &[i32],
    ) -> Self {
        assert!(out_features > 0, "dense layer needs at least one output feature");
        assert_eq!(weights.len() % out_features, 0, "weight size mismatch");
        let shape = backend::dense_as_conv(weights.len() / out_features, out_features);
        let madd = backend.prepare_madd_rows(&shape, &weights, bias);
        Self { weights, out_features, madd }
    }
}

impl Kernel for DenseKernel {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn mac_route(&self) -> Option<MacRoute> {
        route_of(&self.madd)
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        let acc = match &self.madd {
            Some(madd) => backend::direct_madd_scratch(codes, madd, scratch),
            None => backend::dense_acc_scratch(codes, &self.weights, self.out_features, scratch),
        };
        Some((acc, 1))
    }
}

/// Max pooling over non-overlapping square windows (pass-through: no
/// requantization).
#[derive(Debug, Clone, Copy)]
pub struct MaxPoolKernel {
    /// Window side.
    pub size: usize,
}

impl Kernel for MaxPoolKernel {
    fn name(&self) -> &'static str {
        "max_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::maxpool_scratch(codes, c, h, w, self.size, scratch)
    }
}

/// Average pooling over non-overlapping square windows (pass-through).
#[derive(Debug, Clone, Copy)]
pub struct AvgPoolKernel {
    /// Window side.
    pub size: usize,
}

impl Kernel for AvgPoolKernel {
    fn name(&self) -> &'static str {
        "avg_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::avgpool_scratch(codes, c, h, w, self.size, scratch)
    }
}

/// Global average pooling to one value per channel (pass-through).
#[derive(Debug, Clone, Copy)]
pub struct GlobalAvgPoolKernel;

impl Kernel for GlobalAvgPoolKernel {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::global_avgpool_scratch(codes, c, h, w, scratch)
    }
}

/// Structural residual self-add saturating into the encoding's code range
/// (pass-through), mirroring the simulator's stand-in.
#[derive(Debug, Clone, Copy)]
pub struct ResidualAddKernel;

impl Kernel for ResidualAddKernel {
    fn name(&self) -> &'static str {
        "residual_add"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (lo, hi) = ctx.backend.encoding().code_range(ctx.act_bits);
        backend::residual_add_range_scratch(codes, codes, lo, hi, scratch)
    }
}
