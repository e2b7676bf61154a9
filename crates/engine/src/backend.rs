//! The native per-layer kernels.
//!
//! [`NativeBackend::conv_pooled`] restructures the reference bit-serial
//! loop for host speed while keeping the integer arithmetic untouched. It
//! runs in two phases: an **input-stationary** fill bit-unpacks each
//! activation group once (§4.1 input reuse, hoisted across the overlapping
//! windows that revisit it) and computes every pool vector's `M`-bit
//! partial dot product per input position as dense sweeps over the
//! pattern-major [`LutCache`] slabs (§4.3 precomputation taken to its
//! host-side limit); a **scatter** pass then sums each output pixel's taps
//! through the per-filter index map, `acc[k] += partials[pos][idx[k, t]]`.
//!
//! [`NativeBackend::prepare_indices`] fixes each layer's scatter route at
//! plan time ([`ScatterRoute`]). On the avx2 tier, a layer whose pool
//! holds at most 16 vectors and whose partials provably fit `i16` takes
//! the **register** route: the fill stores each position's 16 partials
//! as a low-byte and a high-byte 16-byte table, and the scatter looks up
//! 32 filters per tap with one `vpshufb` pair, widening into `i32`
//! accumulators — the paper's §4.2 "LUT block in fast memory" pushed one
//! level up, into a register. Every other layer (scalar and swar tiers,
//! larger pools, LUTs past the `i16` bound) takes the **gather** route:
//! one indexed load per filter and tap, swept across batch-minor partial
//! columns on batched calls. Both routes merely reassociate an integer
//! sum whose every partial sum is proven in range at plan time, so the
//! accumulators are bit-identical to
//! [`wp_core::reference::bitserial_conv_acc`] — pinned by the parity
//! tests in `tests/parity.rs` and `tests/scatter_route.rs`.
//!
//! The uncompressed layers — direct convs, depthwise, dense — get the
//! same treatment from [`NativeBackend::mac_route`]: on the swar and avx2
//! tiers, a layer whose products provably sum inside `i32` takes the
//! **madd** route ([`MacRoute::Madd`]), the host analogue of the CMSIS-NN
//! q7→q15 dual 16-bit MAC the paper runs these layers on, without its
//! im2col copy. Each image is staged once as a channel-last `i16` plane
//! with a zero border (`[H + 2p][W + 2p][C]`, plus zero slack), the one
//! staging every madd op shares: there, each kernel row of a direct
//! conv's receptive field (every `kx` × every channel) is one contiguous
//! run, which the GEMM reads in place against weights repacked once at
//! plan time as matching `[filter][ky]` runs ([`MaddRows`]); a dense
//! layer is the one-pixel `1×1×I` case of the same staging, repack and
//! GEMM, and depthwise reads 16-channel blocks of the plane. Each
//! `pmaddwd` makes 16 exact products into 8 `i32` lanes per 256 bits.
//! The two kernels are written once over a 16-lane vector type and built
//! three ways: AVX2 on the avx2 tier, two SSE2 halves on the swar tier
//! (x86-64's baseline ISA), and plain arrays on other targets. Solo and
//! batched calls run the same kernel. Every other layer takes the exact
//! route: the `i64` reference loop, once per image. Both routes compute
//! the reference's integers — pinned by `tests/madd_route.rs`.
//!
//! Every kernel here returns raw accumulators; the layer's bias and
//! requantization follow in one finish pass over each plane
//! ([`NativeBackend::finish_plane`], in [`crate::finish`]), except in the
//! gather's batched tiles, which finish each value as it leaves
//! registers (`WriteOut`).

use crate::options::{BackendKind, ResolvedBackend};
use crate::scratch::Scratch;
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_core::LookupTable;
use wp_kernels::OutputQuant;

/// The lookup table flattened into contiguous pattern-major blocks — the
/// host analogue of the paper's §4.2 SRAM-cached LUT blocks.
///
/// Entry `(s, m)` lives at `m * S + s` regardless of the source table's
/// [`wp_core::LutOrder`]: all pool vectors' results for one bit pattern
/// are adjacent, exactly the input-oriented layout the paper picks so a
/// bit row's block can be streamed as one contiguous run. The native
/// kernel exploits this the same way the MCU kernel does — each activation
/// bit row selects one contiguous slab, which the partial-dot sweep walks
/// linearly (and the compiler vectorizes). The cache is read-only at run
/// time, so every thread running the plan reads its one copy.
///
/// A table the register route can serve (at most 16 vectors, every code
/// within `i16`) also keeps each pattern's block as one 16-lane `i16`
/// vector, zero past the pool: the register route's fill sums a
/// position's bit rows with one 256-bit multiply-add per row.
#[derive(Debug, Clone, PartialEq)]
pub struct LutCache {
    pool_size: usize,
    patterns: usize,
    group: usize,
    codes: Vec<i32>,
    max_abs_code: i64,
    /// Pattern `m`'s block at index `m`; empty unless the register route
    /// can serve this table.
    blocks16: Vec<[i16; REGISTER_POOL_MAX]>,
}

impl LutCache {
    /// Flattens `lut` into pattern-major order.
    pub fn new(lut: &LookupTable) -> Self {
        let pool_size = lut.pool_size();
        let patterns = lut.num_patterns();
        let mut codes = vec![0i32; pool_size * patterns];
        for (m, block) in codes.chunks_mut(pool_size).enumerate() {
            for (s, slot) in block.iter_mut().enumerate() {
                *slot = lut.code(s, m);
            }
        }
        let max_abs_code = codes.iter().map(|&c| (c as i64).abs()).max().unwrap_or(0);
        let blocks16 = if pool_size <= REGISTER_POOL_MAX && max_abs_code <= i16::MAX as i64 {
            codes
                .chunks(pool_size.max(1))
                .map(|block| {
                    let mut lanes = [0i16; REGISTER_POOL_MAX];
                    for (lane, &c) in lanes.iter_mut().zip(block) {
                        *lane = c as i16;
                    }
                    lanes
                })
                .collect()
        } else {
            Vec::new()
        };
        Self { pool_size, patterns, group: lut.group_size(), codes, max_abs_code, blocks16 }
    }

    /// Largest absolute code in the table (used to prove accumulator
    /// width bounds at execution time).
    pub fn max_abs_code(&self) -> i64 {
        self.max_abs_code
    }

    /// Pool size `S`.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Group (vector) size `G`.
    pub fn group_size(&self) -> usize {
        self.group
    }

    /// Number of bit patterns, `2^G`.
    pub fn num_patterns(&self) -> usize {
        self.patterns
    }

    /// The code of entry `(s, m)` (same value as the source table's
    /// `LookupTable::code`, independent of its memory order).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `m` is out of range.
    #[inline]
    pub fn code(&self, s: usize, m: usize) -> i32 {
        assert!(s < self.pool_size && m < self.patterns, "lut entry ({s}, {m}) out of range");
        self.codes[m * self.pool_size + s]
    }

    /// The contiguous block of all pool vectors' codes for pattern `m`.
    #[inline]
    fn block(&self, m: usize) -> &[i32] {
        &self.codes[m * self.pool_size..(m + 1) * self.pool_size]
    }
}

/// Largest pool the register route serves: each byte plane of a
/// position's partial block is one 16-entry `vpshufb` table.
const REGISTER_POOL_MAX: usize = 16;

/// Filters one `vpshufb` pair serves (a 256-bit register of index
/// bytes). Register-route index rows are padded to a multiple of this.
const REGISTER_LANES: usize = 32;

/// Which scatter a prepared pooled layer runs, fixed by
/// [`NativeBackend::prepare_indices`] (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterRoute {
    /// Register-resident: each input position's partials are one `i16`
    /// `vpshufb` table pair and 32 filters share each lookup (avx2 tier,
    /// pools of at most 16 vectors, partials within `i16`).
    Registers,
    /// One indexed load per filter and tap (every tier, any pool).
    Gather,
}

/// A layer's pool-index map rearranged by
/// [`NativeBackend::prepare_indices`] for its scatter route, ready for
/// repeated [`NativeBackend::conv_pooled_prepared`] calls with no
/// per-call setup, together with the layer's plan-time range proof.
#[derive(Debug, Clone)]
pub struct PreparedIndices {
    k_count: usize,
    idx_stride: usize,
    /// Largest `|partial|` any input position can produce: the largest
    /// `|LUT code|` times `Σ|bit weight| = 2^M − 1` (both encodings).
    max_partial: i64,
    /// `idx_stride × max_partial` (saturating): bounds every partial sum
    /// of an output pixel's taps, in any summation order.
    max_acc: i64,
    /// The index layout the route reads — and only that one.
    layout: IndexLayout,
}

/// The index layouts, one per [`ScatterRoute`].
#[derive(Debug, Clone)]
enum IndexLayout {
    /// One row of [`REGISTER_LANES`] filters' index bytes per tap, in
    /// `[chunk][ky][kx][grp]` order: a 32-filter chunk's taps are
    /// contiguous, and within a kernel offset the groups run in the
    /// same order as the position-major `vpshufb` tables, so the scatter
    /// streams both. The last chunk's missing filters point at vector 0
    /// and are never written out.
    Registers(Vec<[u8; REGISTER_LANES]>),
    /// Both gather layouts are load-bearing: the **solo** gather iterates
    /// taps outermost and reads one tap's indices for every filter as a
    /// contiguous run of `tap_major` (`[g][r][s][k]`), while the
    /// **batched** gather iterates filters outermost (so each filter's
    /// accumulator row stays in registers across all of its taps) and
    /// walks that filter's taps contiguously in the canonical
    /// `[k][g][r][s]` order. Dropping either would force one path
    /// through a strided walk of the other's layout; the duplicate costs
    /// one byte per index, paid once at prepare time.
    Gather { tap_major: Vec<u8>, canonical: Vec<u8> },
}

impl PreparedIndices {
    /// The scatter this layer runs.
    pub fn route(&self) -> ScatterRoute {
        match self.layout {
            IndexLayout::Registers(_) => ScatterRoute::Registers,
            IndexLayout::Gather { .. } => ScatterRoute::Gather,
        }
    }

    /// Whether the plan-time bound proves every accumulator fits `i32`
    /// in any summation order (the batched gather's accumulator width;
    /// always true on the register route).
    fn fits_i32(&self) -> bool {
        self.max_acc <= i32::MAX as i64
    }

    /// The gather layouts `(tap_major, canonical)`.
    ///
    /// # Panics
    ///
    /// Panics on a register-route preparation (the dispatch never asks).
    fn gather_layouts(&self) -> (&[u8], &[u8]) {
        match &self.layout {
            IndexLayout::Gather { tap_major, canonical } => (tap_major, canonical),
            IndexLayout::Registers(_) => {
                unreachable!("register-route indices have no gather layout")
            }
        }
    }
}

/// Host-speed executor of the bit-serial weight-pool arithmetic.
#[derive(Debug, Clone)]
pub struct NativeBackend {
    lut: LutCache,
    act_bits: u8,
    encoding: ActEncoding,
    /// `bit_weight(j, act_bits)` for `j < act_bits`, hoisted out of the
    /// inner loops. Magnitudes are at most `2^(M-1) <= 128`, so `i32` is
    /// exact, and a whole partial (`|code| * (2^M - 1) <= 32767 * 255`)
    /// stays far inside `i32`.
    bit_weights: [i32; 8],
    /// The resolved kernel tier. `Scalar` keeps every op on the
    /// per-element reference loops (generic bit-unpack, per-image
    /// batching); `Swar`/`Avx2` engage the SWAR bit-matrix fill, the
    /// batched pooled-gather tiles and the madd kernels
    /// (SSE2 or AVX2 lanes), and `Avx2` the register-resident pooled
    /// scatter. Every tier computes identical integers.
    simd: ResolvedBackend,
    /// The lanes madd-route layers run on (`None` on the scalar tier).
    madd_lanes: Option<MaddLanes>,
}

impl NativeBackend {
    /// Largest number of images a batched tile kernel processes at once
    /// (outputs are identical for any tiling because images are
    /// independent). The pooled gather's tile kernel holds one filter's
    /// `BATCH_TILE`-lane accumulator row in registers across all of that
    /// filter's taps, and its batch-minor columns cost `BATCH_TILE×` the
    /// solo working set — eight lanes fill two 256-bit `i32` vectors
    /// while the columns stay cache-resident. It is the only tile kernel:
    /// the register-route pooled scatter, the madd kernels and pooling
    /// run every image through their per-image kernel.
    pub const BATCH_TILE: usize = 8;

    /// Builds a backend executing at `act_bits`-bit activations under
    /// `encoding`, caching `lut` in pattern-major order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn new(lut: &LookupTable, act_bits: u8, encoding: ActEncoding) -> Self {
        Self::from_cache(LutCache::new(lut), act_bits, encoding)
    }

    /// [`NativeBackend::new`] with an explicit kernel-tier selection
    /// (resolved here; see [`BackendKind::resolve`] for the `Auto` rules).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn new_with(
        lut: &LookupTable,
        act_bits: u8,
        encoding: ActEncoding,
        backend: BackendKind,
    ) -> Self {
        Self::from_cache_with(LutCache::new(lut), act_bits, encoding, backend)
    }

    /// Builds a backend around an already-flattened [`LutCache`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn from_cache(lut: LutCache, act_bits: u8, encoding: ActEncoding) -> Self {
        Self::from_cache_with(lut, act_bits, encoding, BackendKind::Auto)
    }

    /// [`NativeBackend::from_cache`] with an explicit kernel-tier
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn from_cache_with(
        lut: LutCache,
        act_bits: u8,
        encoding: ActEncoding,
        backend: BackendKind,
    ) -> Self {
        assert!((1..=8).contains(&act_bits), "activation bits must be 1..=8, got {act_bits}");
        let mut bit_weights = [0i32; 8];
        for (j, w) in bit_weights.iter_mut().enumerate().take(act_bits as usize) {
            *w = encoding.bit_weight(j as u8, act_bits) as i32;
        }
        let simd = backend.resolve();
        Self { lut, act_bits, encoding, bit_weights, simd, madd_lanes: MaddLanes::for_tier(simd) }
    }

    /// The resolved kernel tier this backend executes with.
    pub fn simd(&self) -> ResolvedBackend {
        self.simd
    }

    /// Test-only entry: madd-route layers this backend prepares run on
    /// the portable lanes, the build targets other than x86-64 run,
    /// instead of its tier's intrinsics. Changes no integer; the scalar
    /// tier keeps the exact route.
    #[doc(hidden)]
    pub fn with_portable_lanes(mut self) -> Self {
        self.madd_lanes = self.madd_lanes.map(|_| MaddLanes::Portable);
        self
    }

    /// Activation bitwidth `M`.
    pub fn act_bits(&self) -> u8 {
        self.act_bits
    }

    /// Activation bit decomposition.
    pub fn encoding(&self) -> ActEncoding {
        self.encoding
    }

    /// The cached LUT blocks.
    pub fn lut(&self) -> &LutCache {
        &self.lut
    }

    /// Largest `|partial|` of one input position at this backend's LUT and
    /// activation bitwidth: `max |code| × (2^M − 1)`, since the bit
    /// weights' magnitudes sum to `2^M − 1` under both encodings.
    fn max_partial(&self) -> i64 {
        self.lut.max_abs_code * ((1i64 << self.act_bits) - 1)
    }

    /// The route this backend runs a layer with this range proof on (the
    /// rule [`NativeBackend::prepare_indices`] documents).
    fn scatter_route(&self, max_partial: i64, max_acc: i64) -> ScatterRoute {
        if self.simd == ResolvedBackend::Avx2
            && self.lut.pool_size <= REGISTER_POOL_MAX
            && max_partial <= i16::MAX as i64
            && max_acc <= i32::MAX as i64
        {
            ScatterRoute::Registers
        } else {
            ScatterRoute::Gather
        }
    }

    /// Rearranges a canonical `[k][g][r][s]` index map into the layout
    /// its scatter route reads, after fixing the layer's plan-time range
    /// proof and [`ScatterRoute`]. All of it depends only on the layer's
    /// static index map, so callers executing a layer repeatedly (e.g.
    /// [`crate::PreparedNet`]) do it once and pass the result to
    /// [`NativeBackend::conv_pooled_prepared`].
    ///
    /// The register route is taken on the avx2 tier when the pool holds
    /// at most 16 vectors, every partial fits `i16`
    /// (`max |code| × (2^M − 1) ≤ 32,767`) and every accumulator fits
    /// `i32` (`taps × max_partial ≤ i32::MAX`); anything else gathers.
    ///
    /// # Panics
    ///
    /// Panics if the index count does not match the shape at the backend's
    /// group size, or if an index addresses a vector outside the pool.
    pub fn prepare_indices(&self, shape: &PooledConvShape, indices: &[u8]) -> PreparedIndices {
        let g = self.lut.group;
        let groups = shape.groups(g);
        assert_eq!(indices.len(), shape.index_count(g), "index count mismatch");
        let s_count = self.lut.pool_size;
        if let Some(&bad) = indices.iter().find(|&&i| usize::from(i) >= s_count) {
            panic!("pool index {bad} outside the {s_count}-vector pool");
        }
        let k_count = shape.out_ch;
        let idx_stride = groups * shape.kernel * shape.kernel;
        let max_partial = self.max_partial();
        let max_acc = (idx_stride as i64).saturating_mul(max_partial);
        let layout = match self.scatter_route(max_partial, max_acc) {
            ScatterRoute::Registers => {
                let taps = shape.kernel * shape.kernel;
                let chunks = k_count.div_ceil(REGISTER_LANES);
                let mut rows = vec![[0u8; REGISTER_LANES]; chunks * idx_stride];
                for k in 0..k_count {
                    let chunk = &mut rows[k / REGISTER_LANES * idx_stride..][..idx_stride];
                    for (t, &idx) in indices[k * idx_stride..][..idx_stride].iter().enumerate() {
                        // Canonical tap `grp·k² + (ky·k + kx)` moves to
                        // `(ky·k + kx)·groups + grp`.
                        chunk[t % taps * groups + t / taps][k % REGISTER_LANES] = idx;
                    }
                }
                IndexLayout::Registers(rows)
            }
            ScatterRoute::Gather => {
                let mut tap_major = vec![0u8; indices.len()];
                for k in 0..k_count {
                    for t in 0..idx_stride {
                        tap_major[t * k_count + k] = indices[k * idx_stride + t];
                    }
                }
                IndexLayout::Gather { tap_major, canonical: indices.to_vec() }
            }
        };
        PreparedIndices { k_count, idx_stride, max_partial, max_acc, layout }
    }

    /// Native bit-serial LUT convolution: returns `[K, OH, OW]` raw
    /// accumulators in units of `lut_scale × act_scale`, bit-identical to
    /// [`wp_core::reference::bitserial_conv_acc`] on the same inputs.
    ///
    /// `codes` is the `[C, H, W]` quantized activation plane; `indices` the
    /// canonical-order pool indices (see `wp_core::grouping`). One-shot
    /// convenience over [`NativeBackend::conv_pooled_prepared`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch or if a code is outside the encoding's
    /// range for the backend's activation bitwidth.
    pub fn conv_pooled(&self, codes: &[i32], shape: &PooledConvShape, indices: &[u8]) -> Vec<i32> {
        self.conv_pooled_prepared(codes, shape, &self.prepare_indices(shape, indices))
    }

    /// Validates one image's activations and prepared indices against
    /// `shape` and this backend, returning the group count.
    fn check_pooled_args(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> usize {
        let groups = shape.groups(self.lut.group);
        assert_eq!(codes.len(), shape.in_ch * shape.in_h * shape.in_w, "activation size mismatch");
        assert_eq!(
            (prep.k_count, prep.idx_stride),
            (shape.out_ch, groups * shape.kernel * shape.kernel),
            "prepared indices do not match shape"
        );
        // The range proof and the route belong to the backend that built
        // `prep`: a different LUT or bitwidth would void the proof, and
        // the register route needs this backend's avx2 tier and `i16` LUT.
        assert!(
            prep.max_partial == self.max_partial()
                && prep.route() == self.scatter_route(prep.max_partial, prep.max_acc),
            "prepared indices were built for a different backend"
        );
        let (lo, hi) = self.encoding.code_range(self.act_bits);
        assert!(
            codes.iter().all(|&c| (lo..=hi).contains(&c)),
            "activation code outside [{lo}, {hi}]"
        );
        groups
    }

    /// Phase 1's bit-unpack — input-stationary precomputation: visits
    /// every group `grp` at every input pixel `pix = iy * in_w + ix` once,
    /// group-major, and hands `visit` that position's `act_bits` bit rows
    /// (row `j` is the LUT pattern formed by bit `j` of the group's `G`
    /// codes; §4.1). A 3x3 kernel revisits each input position up to nine
    /// times and every filter sharing a pool vector reuses its partial, so
    /// this is hoisted out of the output loop entirely (§4.3).
    fn for_each_bit_rows(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        mut visit: impl FnMut(usize, usize, &[usize]),
    ) {
        let g = self.lut.group;
        let groups = shape.groups(g);
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let m_bits = self.act_bits as usize;
        for grp in 0..groups {
            let base = grp * g;
            for iy in 0..in_h {
                for ix in 0..in_w {
                    let mut rows = [0usize; 8];
                    if g == 8 && self.simd != ResolvedBackend::Scalar {
                        // SWAR bit-unpack: all eight codes at once — pack
                        // their low bytes into a u64 and transpose the 8x8
                        // bit matrix, so byte `j` of the result is bit row
                        // `j`. Identical to the scalar loop below (only
                        // bits `j < m_bits` are read, and in-range codes
                        // agree with their low byte on those bits under
                        // both encodings).
                        let mut x = 0u64;
                        for i in 0..8 {
                            let code = codes[((base + i) * in_h + iy) * in_w + ix];
                            x |= ((code as u8) as u64) << (8 * i);
                        }
                        let t = transpose8(x);
                        for (j, row) in rows.iter_mut().enumerate().take(m_bits) {
                            *row = ((t >> (8 * j)) & 0xFF) as usize;
                        }
                    } else {
                        for i in 0..g {
                            let code = codes[((base + i) * in_h + iy) * in_w + ix];
                            for (j, row) in rows.iter_mut().enumerate().take(m_bits) {
                                *row |= (((code >> j) & 1) as usize) << i;
                            }
                        }
                    }
                    visit(grp, iy * in_w + ix, &rows[..m_bits]);
                }
            }
        }
    }

    /// Sums one position's weighted LUT slabs into its `S` partials
    /// (Algorithm 1 lines 11–13, reassociated into a dense sweep over each
    /// bit row's contiguous pool-vector slab, which the compiler
    /// vectorizes). Exact in `i32` (see `bit_weights`).
    #[inline]
    fn sweep_rows(&self, rows: &[usize], dst: &mut [i32]) {
        for (&row, &w) in rows.iter().zip(&self.bit_weights) {
            for (d, &c) in dst.iter_mut().zip(self.lut.block(row)) {
                *d += w * c;
            }
        }
    }

    /// The gather route's phase 1: the partial of vector `s` at
    /// `(grp, iy, ix)` lands at `((grp * in_h + iy) * in_w + ix) * S + s`.
    fn fill_partials(&self, codes: &[i32], shape: &PooledConvShape, partials: &mut [i32]) {
        partials.fill(0);
        let mut blocks = partials.chunks_mut(self.lut.pool_size);
        self.for_each_bit_rows(codes, shape, |_, _, rows| {
            self.sweep_rows(rows, blocks.next().expect("partial table sized to positions"));
        });
    }

    /// [`NativeBackend::conv_pooled`] with the index rearrangement hoisted
    /// out: `prep` must come from this backend's
    /// [`NativeBackend::prepare_indices`] for the same shape.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch (including `prep` built for a different
    /// shape or by a backend with a different LUT, bitwidth or route) or if
    /// a code is outside the encoding's range for the backend's activation
    /// bitwidth.
    pub fn conv_pooled_prepared(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> Vec<i32> {
        self.conv_pooled_prepared_scratch(codes, shape, prep, &mut Scratch::new())
    }

    /// [`NativeBackend::conv_pooled_prepared`] drawing its working set
    /// (partial table, accumulator row, output buffer) from a scratch
    /// arena — the allocation-free form the prepared-plan executor calls.
    /// The returned buffer comes from the arena.
    pub(crate) fn conv_pooled_prepared_scratch(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        scratch: &mut Scratch,
    ) -> Vec<i32> {
        match prep.route() {
            ScatterRoute::Registers => self.conv_pooled_registers(codes, shape, prep, scratch),
            ScatterRoute::Gather => self.conv_pooled_gather(codes, shape, prep, scratch),
        }
    }

    /// One image through the register route: phase 1 into `vpshufb`
    /// table pairs, then the AVX2 scatter. Solo calls, batched calls and
    /// calibration all run this one kernel.
    #[cfg(target_arch = "x86_64")]
    fn conv_pooled_registers(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        scratch: &mut Scratch,
    ) -> Vec<i32> {
        let groups = self.check_pooled_args(codes, shape, prep);
        let IndexLayout::Registers(rows) = &prep.layout else {
            unreachable!("register route without a register layout")
        };
        let mut tables = scratch.take_u8(groups * shape.in_h * shape.in_w * REGISTER_LANES);
        let geo = shape.geometry();
        let mut out = scratch.take_i32(shape.out_ch * geo.out_h() * geo.out_w());
        // SAFETY: `check_pooled_args` asserted that this backend itself
        // routes `prep` to registers: it is on the avx2 tier, which
        // `BackendKind::resolve` yields only when the CPU reports AVX2 at
        // run time, and its LUT has `i16` blocks and meets the range
        // proof. `prep` matches `shape` (also asserted there), and
        // `tables` holds one 32-byte pair per input position of `shape`.
        unsafe {
            registers::fill(self, codes, shape, tables.as_chunks_mut().0);
            registers::scatter(tables.as_chunks().0, rows, shape, groups, &mut out);
        }
        scratch.put_u8(tables);
        out
    }

    /// Without x86-64 there is no avx2 tier, so no plan takes the
    /// register route.
    #[cfg(not(target_arch = "x86_64"))]
    fn conv_pooled_registers(
        &self,
        _: &[i32],
        _: &PooledConvShape,
        _: &PreparedIndices,
        _: &mut Scratch,
    ) -> Vec<i32> {
        unreachable!("the register route is only chosen on the avx2 tier")
    }

    /// One image through the gather route (today's solo scatter, `i64`
    /// accumulators).
    fn conv_pooled_gather(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        scratch: &mut Scratch,
    ) -> Vec<i32> {
        let groups = self.check_pooled_args(codes, shape, prep);

        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let k_count = shape.out_ch;
        let s_count = self.lut.pool_size;
        let kernel = shape.kernel;

        let (tap_major, _) = prep.gather_layouts();
        let mut partials = scratch.take_i32(groups * in_h * in_w * s_count);
        self.fill_partials(codes, shape, &mut partials);

        // Phase 2 — scatter: each output pixel sums its taps' precomputed
        // partials, selected per filter by the index map. Padding taps
        // contribute pattern 0 whose LUT entry is exactly 0, so skipping
        // them is bit-exact.
        let mut out = scratch.take_i32(k_count * oh * ow);
        let mut acc = scratch.take_i64(k_count);
        for oy in 0..oh {
            for ox in 0..ow {
                acc.fill(0);
                for ky in 0..kernel {
                    let Some(iy) = geo.input_row(oy, ky) else { continue };
                    for kx in 0..kernel {
                        let Some(ix) = geo.input_col(ox, kx) else { continue };
                        for grp in 0..groups {
                            let block_at = ((grp * in_h + iy) * in_w + ix) * s_count;
                            let block = &partials[block_at..block_at + s_count];
                            let idx_base = (grp * kernel + ky) * kernel + kx;
                            let taps = &tap_major[idx_base * k_count..(idx_base + 1) * k_count];
                            for (a, &idx) in acc.iter_mut().zip(taps) {
                                *a += block[idx as usize] as i64;
                            }
                        }
                    }
                }
                for (k, &a) in acc.iter().enumerate() {
                    out[(k * oh + oy) * ow + ox] = i32::try_from(a).expect("accumulator overflow");
                }
            }
        }
        scratch.put_i32(partials);
        scratch.put_i64(acc);
        out
    }

    /// Batched [`NativeBackend::conv_pooled_prepared`]: executes every
    /// image of `batch` through the same prepared layer, bit-identical to
    /// running each image solo (each image's accumulation order is
    /// unchanged; the batch dimension only reassociates *independent*
    /// sums).
    ///
    /// This is where the paper's shared-weight arithmetic amortizes across
    /// a batch (the SWIS observation): the tap index map and the scatter
    /// loop bookkeeping are identical for every image, so the batched
    /// scatter decodes each tap once and applies it to the whole batch as a
    /// dense sweep over a batch-minor partial column — turning the
    /// per-image random gather into contiguous vectorizable adds. Images
    /// are processed in tiles of at most [`NativeBackend::BATCH_TILE`] to
    /// bound scratch memory.
    ///
    /// # Panics
    ///
    /// Panics on any per-image shape mismatch or out-of-range code, exactly
    /// as the solo path does.
    pub fn conv_pooled_prepared_batch<S: AsRef<[i32]>>(
        &self,
        batch: &[S],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> Vec<Vec<i32>> {
        let mut outs = Vec::with_capacity(batch.len());
        self.conv_pooled_prepared_batch_core(
            batch,
            shape,
            prep,
            &RawOut,
            &mut Scratch::new(),
            &mut outs,
        );
        outs
    }

    /// The batched pooled-conv engine: finished output planes (written
    /// through `w_out`) are appended to `outs` from arena buffers, and
    /// every intermediate (partial tables, batch-minor columns, tile
    /// accumulators, tap lists) is drawn from `scratch` — zero heap
    /// allocations once the arena is warm.
    pub(crate) fn conv_pooled_prepared_batch_core<S: AsRef<[i32]>>(
        &self,
        batch: &[S],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        w_out: &impl WriteOut,
        scratch: &mut Scratch,
        outs: &mut Vec<Vec<i32>>,
    ) {
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let s_count = self.lut.pool_size;
        let geo = shape.geometry();
        let out_plane = geo.out_h() * geo.out_w();

        for tile in batch.chunks(Self::BATCH_TILE) {
            let b_count = tile.len();
            if b_count < Self::BATCH_TILE || prep.route() == ScatterRoute::Registers {
                // The batch-minor layout only pays for itself on the
                // gather route and at full width: partial tail tiles, and
                // every image on the register route (whose scatter gains
                // nothing from a transpose), run the solo kernel, with
                // bias and requant applied over each finished plane (the
                // outputs are identical either way).
                for codes in tile {
                    let mut acc =
                        self.conv_pooled_prepared_scratch(codes.as_ref(), shape, prep, scratch);
                    w_out.finish_solo_in_place(&mut acc, out_plane);
                    outs.push(acc);
                }
                continue;
            }
            let mut groups = 0;
            for codes in tile {
                groups = self.check_pooled_args(codes.as_ref(), shape, prep);
            }

            // Phase 1 per image (activations differ, nothing to share),
            // then transpose to batch-minor columns: the partial of pool
            // vector `s` for image `b` at input position `pos` lives at
            // `(pos * s_count + s) * b_count + b`, so one `(pos, s)` pair's
            // values for the whole tile are contiguous.
            let mut partials = scratch.take_i32(groups * in_h * in_w * s_count);
            let mut columns = scratch.take_i32(groups * in_h * in_w * s_count * b_count);
            for (b, codes) in tile.iter().enumerate() {
                self.fill_partials(codes.as_ref(), shape, &mut partials);
                for (ps, &v) in partials.iter().enumerate() {
                    columns[ps * b_count + b] = v;
                }
            }

            // Phase 2 — batched scatter: per output pixel and tap, decode
            // the pool index once and add its contiguous batch column into
            // every image's accumulator row. Per image this sums the same
            // taps in the same order as the solo path. Full tiles go
            // through a const-width kernel so the row updates compile to
            // fixed-size vector adds — in `i32` when the plan-time range
            // proof (every tap at the largest partial) fits, which doubles
            // the SIMD width and is exact precisely because it cannot
            // overflow.
            let base = outs.len();
            for _ in 0..Self::BATCH_TILE {
                outs.push(scratch.take_i32(shape.out_ch * out_plane));
            }
            let mut taps = scratch.take_pairs();
            if prep.fits_i32() {
                scatter_tile::<i32, { Self::BATCH_TILE }>(
                    &columns,
                    shape,
                    prep,
                    groups,
                    s_count,
                    w_out,
                    &mut taps,
                    &mut outs[base..],
                );
            } else {
                scatter_tile::<i64, { Self::BATCH_TILE }>(
                    &columns,
                    shape,
                    prep,
                    groups,
                    s_count,
                    w_out,
                    &mut taps,
                    &mut outs[base..],
                );
            }
            scratch.put_pairs(taps);
            scratch.put_i32(partials);
            scratch.put_i32(columns);
        }
    }
}

/// Transposes an 8x8 bit matrix: bit `c` of input byte `r` moves to bit
/// `r` of output byte `c` (three delta-swap rounds, Hacker's Delight
/// §7-3).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Collects the in-bounds taps of one output pixel as
/// `(canonical tap index, partial-column base)` pairs, in the solo
/// scatter's `(ky, kx, grp)` visit order (padding taps contribute exactly
/// zero and are skipped by both paths).
fn valid_taps(
    geo: &wp_tensor::Conv2dGeometry,
    shape: &PooledConvShape,
    groups: usize,
    s_count: usize,
    oy: usize,
    ox: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for ky in 0..shape.kernel {
        let Some(iy) = geo.input_row(oy, ky) else { continue };
        for kx in 0..shape.kernel {
            let Some(ix) = geo.input_col(ox, kx) else { continue };
            for grp in 0..groups {
                let t = (grp * shape.kernel + ky) * shape.kernel + kx;
                let pos = (grp * shape.in_h + iy) * shape.in_w + ix;
                out.push((t, pos * s_count));
            }
        }
    }
}

/// The batched scatter pass at compile-time batch width `B`: `columns`
/// holds batch-minor partials (`(pos * s_count + s) * B + b`). Filters are
/// outermost so each filter's accumulator row lives in registers across
/// all of its taps; per image the taps are still summed in the solo
/// scatter's `(ky, kx, grp)` order, so outputs are bit-identical. The
/// `i32` accumulator instantiation requires the caller to have proven
/// that `taps × max_activation × max_abs_code` fits in `i32`, in which
/// case no intermediate sum can overflow and it matches the widened path
/// exactly.
#[allow(clippy::too_many_arguments)]
fn scatter_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    prep: &PreparedIndices,
    groups: usize,
    s_count: usize,
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let k_count = shape.out_ch;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);
    let (_, canonical) = prep.gather_layouts();

    for oy in 0..oh {
        for ox in 0..ow {
            valid_taps(&geo, shape, groups, s_count, oy, ox, taps);
            for k in 0..k_count {
                let krow = &canonical[k * prep.idx_stride..(k + 1) * prep.idx_stride];
                let mut row = [A::default(); B];
                for &(t, base) in taps.iter() {
                    let col = &cols[base + krow[t] as usize];
                    for (a, &p) in row.iter_mut().zip(col) {
                        *a = a.add(p);
                    }
                }
                let o = (k * oh + oy) * ow + ox;
                for (out, &a) in tile_outs.iter_mut().zip(&row) {
                    out[o] = w_out.emit(k, a.widen());
                }
            }
        }
    }
}

/// The register route's AVX2 kernels (see [`ScatterRoute::Registers`]).
#[cfg(target_arch = "x86_64")]
mod registers {
    use super::{NativeBackend, REGISTER_LANES, REGISTER_POOL_MAX};
    use std::arch::x86_64::*;
    use wp_core::reference::PooledConvShape;

    /// The filter each stored accumulator lane holds within its 32-filter
    /// chunk. The byte unpacks interleave low/high bytes per 128-bit half
    /// (`unpacklo`: filters 0–7 and 16–23, `unpackhi`: 8–15 and 24–31) and
    /// the `i16 → i32` widening splits even from odd lanes, so lane `q` of
    /// accumulator `a` (stored at `8a + q`) holds filter
    /// `16·(q/4) + 8·(a/2) + 2·(q%4) + a%2`.
    const FILTER_OF: [usize; REGISTER_LANES] = {
        let mut map = [0usize; REGISTER_LANES];
        let mut p = 0;
        while p < REGISTER_LANES {
            let (a, q) = (p / 8, p % 8);
            map[p] = 16 * (q / 4) + 8 * (a / 2) + 2 * (q % 4) + a % 2;
            p += 1;
        }
        map
    };

    /// Phase 1 on the register route: each input position's partials
    /// as `i16`, split into two 16-byte planes — low bytes at `[0, 16)`,
    /// high bytes at `[16, 32)`, vector `s` at offset `s` (zero past the
    /// pool) — the `vpshufb` table pair the scatter broadcasts. Tables
    /// are position-major (`pix * groups + grp`), so one kernel offset's
    /// groups are contiguous. A position's partial is one 16-lane `i16`
    /// multiply-add per bit row over the LUT's `i16` blocks; the range
    /// proof behind this route (`max |code| × (2^M − 1) ≤ i16::MAX`)
    /// bounds every product and every partial sum of them, so the `i16`
    /// arithmetic is exact.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Every memory access is bounds-checked:
    /// a LUT without `i16` blocks or a `tables` shorter than the input
    /// positions of `shape` panics. The result is exact only when
    /// `backend` meets the range proof.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill(
        backend: &NativeBackend,
        codes: &[i32],
        shape: &PooledConvShape,
        tables: &mut [[u8; 32]],
    ) {
        let blocks = &backend.lut.blocks16;
        let groups = shape.groups(backend.lut.group);
        let mut weights = [_mm256_setzero_si256(); 8];
        for (v, &w) in weights.iter_mut().zip(&backend.bit_weights) {
            *v = _mm256_set1_epi16(w as i16);
        }
        // Per 128-bit half: even (low) bytes to the first 8 slots, odd
        // (high) bytes to the last 8.
        #[rustfmt::skip]
        let split = _mm256_setr_epi8(
            0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,
            0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,
        );
        backend.for_each_bit_rows(codes, shape, |grp, pix, rows| {
            let mut acc = _mm256_setzero_si256();
            for (&row, &w) in rows.iter().zip(&weights) {
                // SAFETY: `blocks[row]` is a bounds-checked 16-lane `i16`
                // array, exactly one 256-bit load.
                let block = unsafe { _mm256_loadu_si256(blocks[row].as_ptr().cast()) };
                acc = _mm256_add_epi16(acc, _mm256_mullo_epi16(block, w));
            }
            // Quadwords (lo 0–7, hi 0–7, lo 8–15, hi 8–15) → (lo, lo, hi, hi).
            let table = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_shuffle_epi8(acc, split));
            let dst = &mut tables[pix * groups + grp];
            // SAFETY: `dst` is a bounds-checked 32-byte array, exactly one
            // 256-bit store.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), table) };
        });
    }

    /// Phase 2 on the register route. Per pair of 32-filter chunks and
    /// output pixel, `i32` accumulator registers (four per chunk) sum the
    /// pixel's valid taps: each tap broadcasts its position's low- and
    /// high-byte tables into both 128-bit halves, looks up each chunk's 32
    /// filters' partials with one `vpshufb` pair on the tap's index bytes
    /// (indices are below 16, so the shuffle's zeroing bit is never set),
    /// re-forms the `i16` partials by interleaving the byte planes and
    /// widens them into the accumulators. Taps are summed in the solo
    /// gather's `(ky, kx, grp)` order, and the route's range proof
    /// (`taps · max_partial ≤ i32::MAX`) means no partial sum can
    /// overflow, so each `i32` result equals the widened gather's
    /// exactly. A chunk pair's index rows stay cache-resident across
    /// every pixel.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Every load goes through bounds-checked
    /// slices of 32-byte arrays, so `tables` (one pair per input position
    /// of `shape`, as [`fill`] writes them) or `rows` (a register-route
    /// layout for `shape`) that do not match panic rather than read out
    /// of bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scatter(
        tables: &[[u8; 32]],
        rows: &[[u8; REGISTER_LANES]],
        shape: &PooledConvShape,
        groups: usize,
        out: &mut [i32],
    ) {
        let per_chunk = (shape.kernel * shape.kernel * groups).max(1);
        let mut chunks = rows.chunks_exact(per_chunk).enumerate();
        while let Some((c, first)) = chunks.next() {
            match chunks.next() {
                Some((_, second)) => chunk_pass([first, second], c, tables, shape, groups, out),
                None => chunk_pass([first], c, tables, shape, groups, out),
            }
        }
    }

    /// [`scatter`] for `N` consecutive chunks starting at chunk `c0`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn chunk_pass<const N: usize>(
        chunks: [&[[u8; REGISTER_LANES]]; N],
        c0: usize,
        tables: &[[u8; 32]],
        shape: &PooledConvShape,
        groups: usize,
        out: &mut [i32],
    ) {
        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (kernel, in_w, k_count) = (shape.kernel, shape.in_w, shape.out_ch);
        // As `i16` pairs this is (1, 0): `madd` keeps each pair's low
        // (even) lane, sign-extended to `i32`.
        let even = _mm256_set1_epi32(1);
        let mut sums = [0i32; REGISTER_LANES];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = [[_mm256_setzero_si256(); 4]; N];
                for ky in 0..kernel {
                    let Some(iy) = geo.input_row(oy, ky) else { continue };
                    for kx in 0..kernel {
                        let Some(ix) = geo.input_col(ox, kx) else { continue };
                        let t0 = (ky * kernel + kx) * groups;
                        let mut taps = [&chunks[0][..0]; N];
                        for (tap, chunk) in taps.iter_mut().zip(chunks) {
                            *tap = &chunk[t0..t0 + groups];
                        }
                        let cells = &tables[(iy * in_w + ix) * groups..][..groups];
                        for (g, table) in cells.iter().enumerate() {
                            // SAFETY: `table` is a 32-byte array; the
                            // loads read its bytes [0, 16) and [16, 32).
                            let (lo, hi) = unsafe {
                                (
                                    _mm256_broadcastsi128_si256(_mm_loadu_si128(
                                        table.as_ptr().cast(),
                                    )),
                                    _mm256_broadcastsi128_si256(_mm_loadu_si128(
                                        table.as_ptr().add(REGISTER_POOL_MAX).cast(),
                                    )),
                                )
                            };
                            for (sum, tap) in acc.iter_mut().zip(&taps) {
                                // SAFETY: `tap[g]` is a bounds-checked
                                // 32-byte array, exactly one 256-bit load.
                                let idx = unsafe { _mm256_loadu_si256(tap[g].as_ptr().cast()) };
                                let l = _mm256_shuffle_epi8(lo, idx);
                                let h = _mm256_shuffle_epi8(hi, idx);
                                let a = _mm256_unpacklo_epi8(l, h);
                                let b = _mm256_unpackhi_epi8(l, h);
                                sum[0] = _mm256_add_epi32(sum[0], _mm256_madd_epi16(a, even));
                                sum[1] = _mm256_add_epi32(sum[1], _mm256_srai_epi32::<16>(a));
                                sum[2] = _mm256_add_epi32(sum[2], _mm256_madd_epi16(b, even));
                                sum[3] = _mm256_add_epi32(sum[3], _mm256_srai_epi32::<16>(b));
                            }
                        }
                    }
                }
                for (n, chunk_acc) in acc.iter().enumerate() {
                    for (dst, a) in sums.as_chunks_mut::<8>().0.iter_mut().zip(chunk_acc) {
                        // SAFETY: `dst` is an 8-lane `i32` array, exactly
                        // one 256-bit store.
                        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), *a) };
                    }
                    let k_base = (c0 + n) * REGISTER_LANES;
                    for (&sum, &f) in sums.iter().zip(&FILTER_OF) {
                        let k = k_base + f;
                        if k < k_count {
                            out[(k * oh + oy) * ow + ox] = sum;
                        }
                    }
                }
            }
        }
    }
}

/// How a direct, depthwise or dense layer multiplies, fixed at plan time
/// by [`NativeBackend::mac_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacRoute {
    /// `pmaddwd`: staged `i16` activations times `i16` weights into `i32`
    /// accumulators (swar and avx2 tiers, range proof holds). Solo calls,
    /// batched calls and calibration all run the one per-image kernel.
    Madd,
    /// The `i64` reference loop, once per image.
    Exact,
}

/// The vector lanes a madd-route layer runs on, fixed with its weights at
/// plan time. All three build the same kernel body over the same 16-lane
/// `i16` layout, so every one computes the same integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaddLanes {
    /// One 256-bit AVX2 register per vector (the avx2 tier).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Two SSE2 registers per vector (the swar tier on x86-64, whose
    /// baseline ISA includes SSE2).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// Plain arrays (the swar tier on other targets).
    Portable,
}

impl MaddLanes {
    /// The lanes `tier` runs the madd route on; the scalar tier has none.
    fn for_tier(tier: ResolvedBackend) -> Option<Self> {
        match tier {
            ResolvedBackend::Scalar => None,
            #[cfg(target_arch = "x86_64")]
            ResolvedBackend::Avx2 => Some(MaddLanes::Avx2),
            #[cfg(target_arch = "x86_64")]
            ResolvedBackend::Swar => Some(MaddLanes::Sse2),
            #[cfg(not(target_arch = "x86_64"))]
            ResolvedBackend::Swar | ResolvedBackend::Avx2 => Some(MaddLanes::Portable),
        }
    }
}

/// `i16` lanes per `pmaddwd` operand: madd-route weight runs hold their
/// taps zero-padded to a multiple of this, and the channel-last staging
/// ends in this much zero slack.
const MADD_LANES: usize = 16;

/// Output pixels per direct-conv madd block.
const DIRECT_BLOCK_PIXELS: usize = 4;

/// Filters per direct-conv madd block: 4 pixels × 3 filters keep twelve
/// `i32` accumulators and four operand vectors in AVX2's sixteen `ymm`
/// registers, 7 loads per 12 `vpmaddwd` (the SSE2 build holds each
/// vector in two `xmm` registers, so it keeps fewer of them resident).
const DIRECT_BLOCK_FILTERS: usize = 3;

/// Filters per madd block on a one-pixel output (every dense layer): the
/// one input run is loaded once per 16-tap chunk and feeds eight filters.
const DENSE_BLOCK_FILTERS: usize = 8;

/// A direct-conv or dense layer's weights for the madd route, laid out
/// to match the channel-last staging: per filter (output feature) and
/// kernel row `ky`, one run of that row's `S·C` taps in `(kx, c)` order —
/// the order the row's receptive field lies in the staged plane —
/// zero-padded to whole 16-tap chunks. A dense layer is the `1×1` case:
/// one run of its `I` taps per output feature. Only
/// [`NativeBackend::prepare_madd_rows`] builds one, under the plan-time
/// range proof, for the lanes of its backend's tier — so runs for the
/// AVX2 lanes exist only where the CPU has AVX2.
#[derive(Debug, Clone)]
pub struct MaddRows {
    /// `[filter][ky][chunk]` weight vectors.
    vecs: Vec<[i16; MADD_LANES]>,
    /// The geometry the runs were laid out for.
    shape: PooledConvShape,
    /// 16-tap chunks per kernel-row run.
    chunks: usize,
    /// The code range the range proof assumed of every staged plane.
    range: (i32, i32),
    lanes: MaddLanes,
}

/// A depthwise layer's weights for the madd route: per 16-channel block
/// and pair of taps, two weight vectors whose `i16` pairs line up with the
/// two taps' input vectors interleaved by `punpck{l,h}wd`, so one
/// `pmaddwd` sums both taps of four channels per 128-bit half. An odd
/// last tap pairs with a zero weight. Built only by
/// [`NativeBackend::prepare_madd_taps`] (as [`MaddRows`]).
#[derive(Debug, Clone)]
pub struct MaddTaps {
    /// `[block][pair][lo, hi]` weight vectors.
    vecs: Vec<[i16; MADD_LANES]>,
    channels: usize,
    kernel: usize,
    /// As [`MaddRows`]'s.
    range: (i32, i32),
    lanes: MaddLanes,
}

/// The channel (within its 16-channel block) of each `i32` lane after
/// `pmaddwd` over `punpcklwd` (lanes 0–7) and `punpckhwd` (lanes 8–15)
/// pairs: the unpacks interleave per 128-bit half.
const DW_CHANNEL_OF: [usize; 16] = [0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15];

/// Debug builds check that a plane about to be staged for the madd route
/// lies in the code range its range proof assumed. A plan never stages
/// any other: [`crate::PreparedNet::run`] checks every input plane at
/// entry, and every later plane is in range by construction (requant
/// clamps into it; pooling and the saturating residual add keep it). So
/// only a direct kernel caller can trip this.
fn debug_assert_in_range(codes: &[i32], (lo, hi): (i32, i32)) {
    debug_assert!(
        codes.iter().all(|c| (lo..=hi).contains(c)),
        "madd input code outside [{lo}, {hi}]"
    );
}

impl NativeBackend {
    /// The plan-time route of a direct, depthwise or dense layer whose
    /// output pixels each sum `terms` products, with biases `bias`.
    ///
    /// The madd route is the swar and avx2 tiers' whenever its range
    /// proof holds: the activation code range fits `i16`, and
    /// `terms · max|code| · 128 + max|bias| ≤ i32::MAX`. Weights are int8
    /// (`|w| ≤ 128`), so every partial sum of an output pixel's products,
    /// in any order, and its biased total stay inside `i32`: the `i32`
    /// accumulators are exact and the checked finish cannot overflow.
    /// Anything else, and every layer on the scalar tier, is
    /// [`MacRoute::Exact`].
    pub fn mac_route(&self, terms: usize, bias: &[i32]) -> MacRoute {
        let (lo, hi) = self.encoding.code_range(self.act_bits);
        let fits_i16 = i16::try_from(lo).is_ok() && i16::try_from(hi).is_ok();
        let max_code = i64::from(lo).abs().max(i64::from(hi).abs());
        let max_bias = bias.iter().map(|&b| i64::from(b).abs()).max().unwrap_or(0);
        let bound = (terms as i64).saturating_mul(max_code * 128).saturating_add(max_bias);
        if self.madd_lanes.is_some() && fits_i16 && bound <= i64::from(i32::MAX) {
            MacRoute::Madd
        } else {
            MacRoute::Exact
        }
    }

    /// Repacks a direct conv's `[K, C, R, S]` int8 weights for the madd
    /// route (see [`MaddRows`]) — or `None` when
    /// [`NativeBackend::mac_route`] gives this layer the exact route. A
    /// dense layer's `[O, I]` weights are the `1×1` case: `shape` is an
    /// `I`-channel, one-pixel, unpadded `1×1` conv with `O` filters. Every
    /// plane the runs multiply must lie in this backend's code range.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match `shape`.
    pub fn prepare_madd_rows(
        &self,
        shape: &PooledConvShape,
        weights: &[i8],
        bias: &[i32],
    ) -> Option<MaddRows> {
        let (c, k) = (shape.in_ch, shape.kernel);
        let taps = c * k * k;
        assert_eq!(weights.len(), shape.out_ch * taps, "weight size mismatch");
        let (MacRoute::Madd, Some(lanes)) = (self.mac_route(taps, bias), self.madd_lanes) else {
            return None;
        };
        let chunks = (k * c).div_ceil(MADD_LANES).max(1);
        let mut vecs = vec![[0i16; MADD_LANES]; shape.out_ch * k * chunks];
        for (filter, runs) in
            weights.chunks_exact(taps.max(1)).zip(vecs.chunks_exact_mut(k * chunks))
        {
            for (ky, run) in runs.chunks_exact_mut(chunks).enumerate() {
                // Tap `kx·C + ch` of run `(f, ky)` is canonical tap
                // `((f·C + ch)·R + ky)·S + kx`.
                let run = run.as_flattened_mut();
                for kx in 0..k {
                    for ch in 0..c {
                        run[kx * c + ch] = i16::from(filter[(ch * k + ky) * k + kx]);
                    }
                }
            }
        }
        let range = self.encoding.code_range(self.act_bits);
        Some(MaddRows { vecs, shape: *shape, chunks, range, lanes })
    }

    /// Repacks `[C, R, S]` depthwise weights for the madd route (see
    /// [`MaddTaps`]) — or `None` on the exact route.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match `shape`, or `shape` is not
    /// depthwise (`out_ch == in_ch`).
    pub fn prepare_madd_taps(
        &self,
        shape: &PooledConvShape,
        weights: &[i8],
        bias: &[i32],
    ) -> Option<MaddTaps> {
        assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
        let (channels, kk) = (shape.in_ch, shape.kernel * shape.kernel);
        assert_eq!(weights.len(), channels * kk, "weight size mismatch");
        let (MacRoute::Madd, Some(lanes)) = (self.mac_route(kk, bias), self.madd_lanes) else {
            return None;
        };
        let pairs = kk.div_ceil(2);
        let blocks = channels.div_ceil(MADD_LANES);
        let mut vecs = vec![[0i16; MADD_LANES]; blocks * pairs * 2];
        for (v, vec) in vecs.iter_mut().enumerate() {
            let (block, pair, half) = (v / (2 * pairs), v / 2 % pairs, v % 2);
            for (i, slot) in vec.chunks_exact_mut(2).enumerate() {
                let ch = block * MADD_LANES + DW_CHANNEL_OF[half * 8 + i];
                for (tap, w) in [2 * pair, 2 * pair + 1].into_iter().zip(slot) {
                    if ch < channels && tap < kk {
                        *w = i16::from(weights[ch * kk + tap]);
                    }
                }
            }
        }
        let range = self.encoding.code_range(self.act_bits);
        Some(MaddTaps { vecs, channels, kernel: shape.kernel, range, lanes })
    }
}

/// Stages one `[C, H, W]` image channel-last for the madd kernels: the
/// codes of position `(iy, ix)` of the zero-bordered `(H + 2p) × (W + 2p)`
/// plane sit at elements `(iy·(W + 2p) + ix)·stride ..` in channel
/// order, and [`MADD_LANES`] zero elements of slack follow the plane, so
/// a 16-lane load starting at any element of the plane stays inside the
/// buffer. The border, the slack and any lanes past `C` in a `stride`
/// (depthwise pads channels to whole 16-channel blocks) stay zero. The
/// codes lie in the code range, which fits `i16`. The buffer comes from
/// the arena.
fn stage_channel_last(
    codes: &[i32],
    shape: &PooledConvShape,
    stride: usize,
    scratch: &mut Scratch,
) -> Vec<i16> {
    let (in_h, in_w, pad) = (shape.in_h, shape.in_w, shape.pad);
    let padded_w = in_w + 2 * pad;
    let mut staged = scratch.take_i16((in_h + 2 * pad) * padded_w * stride + MADD_LANES);
    if in_h * in_w == 1 {
        // One position (every dense layer): its channels are one run, so
        // copy them straight rather than pay the loops below per code.
        let at = (pad * padded_w + pad) * stride;
        for (d, &v) in staged[at..].iter_mut().zip(codes) {
            *d = v as i16;
        }
        return staged;
    }
    for (ch, plane) in codes.chunks_exact(in_h * in_w).enumerate() {
        for (iy, line) in plane.chunks_exact(in_w).enumerate() {
            let at = ((iy + pad) * padded_w + pad) * stride + ch;
            for (ix, &v) in line.iter().enumerate() {
                staged[at + ix * stride] = v as i16;
            }
        }
    }
    staged
}

/// A dense layer as the madd route runs it: the `1×1` conv of
/// `in_features` channels at one pixel, with `out_features` filters.
pub(crate) fn dense_as_conv(in_features: usize, out_features: usize) -> PooledConvShape {
    PooledConvShape {
        in_ch: in_features,
        out_ch: out_features,
        kernel: 1,
        stride: 1,
        pad: 0,
        in_h: 1,
        in_w: 1,
    }
}

/// Direct-conv and dense accumulators on the madd route: the image, whose
/// codes lie in the code range, is staged channel-last and `madd`'s runs
/// read each receptive field in place, 4 pixels × 3 filters per register
/// block, or 8 filters on a one-pixel output (every dense layer). The
/// returned buffer comes from the arena.
///
/// # Panics
///
/// Panics if `codes` does not match the runs' input shape.
pub(crate) fn direct_madd_scratch(
    codes: &[i32],
    madd: &MaddRows,
    scratch: &mut Scratch,
) -> Vec<i32> {
    debug_assert_in_range(codes, madd.range);
    let shape = &madd.shape;
    assert_eq!(codes.len(), shape.in_ch * shape.in_h * shape.in_w, "activation size mismatch");
    let staged = stage_channel_last(codes, shape, shape.in_ch, scratch);
    let geo = shape.geometry();
    let pixels = geo.out_h() * geo.out_w();
    let mut out = scratch.take_i32(shape.out_ch * pixels);
    if pixels == 1 {
        madd::gemm::<1, DENSE_BLOCK_FILTERS>(&staged, madd, &mut out);
    } else {
        madd::gemm::<DIRECT_BLOCK_PIXELS, DIRECT_BLOCK_FILTERS>(&staged, madd, &mut out);
    }
    scratch.put_i16(staged);
    out
}

/// Depthwise accumulators on the madd route: the image, whose codes lie
/// in the code range, is staged channel-last with its channels padded to
/// whole 16-channel blocks, so one vector load reads 16 channels at one
/// position, and each pair of taps costs two unpacks and two `pmaddwd`.
///
/// # Panics
///
/// Panics on shape mismatches.
pub(crate) fn dwconv_madd_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    madd: &MaddTaps,
    scratch: &mut Scratch,
) -> Vec<i32> {
    debug_assert_in_range(codes, madd.range);
    let c = shape.in_ch;
    assert_eq!(codes.len(), c * shape.in_h * shape.in_w, "activation size mismatch");
    assert_eq!(
        (madd.channels, madd.kernel, shape.out_ch),
        (c, shape.kernel, c),
        "madd taps do not match shape"
    );
    let blocks = c.div_ceil(MADD_LANES);
    let staged = stage_channel_last(codes, shape, blocks * MADD_LANES, scratch);
    // Each tap pair's vector offsets from its window's first position; an
    // odd last tap pairs with itself, against the zero weight its
    // partner slot holds.
    let padded_w = shape.in_w + 2 * shape.pad;
    let (k, kk) = (shape.kernel, shape.kernel * shape.kernel);
    let offset = |t: usize| (t / k * padded_w + t % k) * blocks;
    let mut taps = scratch.take_pairs();
    taps.extend((0..kk).step_by(2).map(|t| (offset(t), offset((t + 1).min(kk - 1)))));
    let geo = shape.geometry();
    let mut out = scratch.take_i32(c * geo.out_h() * geo.out_w());
    madd::depthwise(staged.as_chunks().0, padded_w, &taps, madd, shape, &mut out);
    scratch.put_pairs(taps);
    scratch.put_i16(staged);
    out
}

/// The madd route's two kernels (see [`MacRoute::Madd`]): `gemm` for
/// direct convs and dense layers and `depthwise`, each written once over
/// `Lanes` — a 16-lane `i16` vector with AVX2's per-128-bit-half lane
/// order, which the layouts of [`MaddRows`], [`MaddTaps`] and
/// [`DW_CHANNEL_OF`] follow — and built for every [`MaddLanes`].
mod madd {
    use super::{MaddLanes, MaddRows, MaddTaps, DW_CHANNEL_OF, MADD_LANES};
    use wp_core::reference::PooledConvShape;

    /// A 16-lane `i16` vector in two 128-bit halves of eight lanes, and the
    /// 8-lane `i32` vector its multiply-adds sum into (lanes 0–3 from the
    /// low half, 4–7 from the high). A value of an implementing type is a
    /// token: holding one means its instructions run on this CPU.
    trait Lanes: Copy {
        type I16: Copy;
        type I32: Copy;

        /// The vector `v`.
        fn load(self, v: &[i16; MADD_LANES]) -> Self::I16;

        /// The all-zero accumulator.
        fn zero(self) -> Self::I32;

        /// `acc` plus `pmaddwd(a, b)`: lane `i` adds `a[2i]·b[2i] +
        /// a[2i+1]·b[2i+1]`, wrapping as the instructions do.
        fn madd(self, acc: Self::I32, a: Self::I16, b: Self::I16) -> Self::I32;

        /// Per half, the low four lanes of `a` and `b` interleaved
        /// (`punpcklwd`).
        fn unpacklo(self, a: Self::I16, b: Self::I16) -> Self::I16;

        /// Per half, the high four lanes of `a` and `b` interleaved
        /// (`punpckhwd`).
        fn unpackhi(self, a: Self::I16, b: Self::I16) -> Self::I16;

        /// The lanes of `v`.
        fn store(self, v: Self::I32) -> [i32; 8];

        /// The eight horizontal sums of `acc`, lane `i` from `acc[i]`:
        /// through [`Lanes::store`] here (SSE2 has no `phaddd`), a
        /// `vphaddd` tree on the AVX2 lanes.
        fn hsum8(self, acc: &[Self::I32; 8]) -> [i32; 8] {
            std::array::from_fn(|i| {
                self.store(acc[i]).iter().fold(0i32, |sum, &v| sum.wrapping_add(v))
            })
        }
    }

    /// `out[f · pixels + p]` = output pixel `p`'s receptive field in
    /// `staged` · filter `f`'s runs, for every pixel and filter of
    /// `madd.shape`, in register blocks of `P` pixels × `F` filters (at
    /// most sixteen `i32` accumulators), on `madd`'s lanes. Pixel `(oy,
    /// ox)`'s run for kernel row `ky` is read in place, `madd.chunks`
    /// vectors from element `((oy·s + ky)·(W + 2p) + ox·s)·C`; the lanes
    /// past its `S·C` taps, which may reach the slack, meet zero weights.
    /// A block reaching past the last pixel or filter repeats it, and
    /// drops those sums. Every product of an int8 weight and an in-range
    /// code fits `i16 × i16 → i32`, and the route's range proof bounds
    /// every partial sum, so the `i32` lanes and their horizontal sums are
    /// exact in any order.
    ///
    /// # Panics
    ///
    /// Panics unless `staged` holds `madd.shape`'s channel-last plane and
    /// its slack, and `out` one `[K, OH, OW]` plane.
    pub(super) fn gemm<const P: usize, const F: usize>(
        staged: &[i16],
        madd: &MaddRows,
        out: &mut [i32],
    ) {
        match madd.lanes {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the call assumes AVX2. Only a backend on the avx2
            // tier prepares runs for the AVX2 lanes
            // (`MaddLanes::for_tier`), and `BackendKind::resolve` yields
            // that tier only when the CPU reports AVX2 at run time. The
            // kernel body reads `staged`, `madd` and `out` through
            // bounds-checked slices only.
            MaddLanes::Avx2 => unsafe { avx2::gemm::<P, F>(staged, madd, out) },
            #[cfg(target_arch = "x86_64")]
            MaddLanes::Sse2 => gemm_on::<_, P, F>(sse2::Sse2, staged, madd, out),
            MaddLanes::Portable => gemm_on::<_, P, F>(Portable, staged, madd, out),
        }
    }

    /// The depthwise kernel: per output pixel and 16-channel block, each
    /// pair of taps interleaves its two input vectors with
    /// [`Lanes::unpacklo`]/[`Lanes::unpackhi`] and multiplies them
    /// against `madd`'s matching weight pair, so each `i32` lane sums one
    /// channel's taps, on `madd`'s lanes. Exact by the same argument as
    /// [`gemm`].
    ///
    /// # Panics
    ///
    /// Panics unless `staged` holds `madd`'s channel blocks at every
    /// position of the zero-bordered `(H + 2p) × padded_w` input, `taps`
    /// the vector offsets of each tap pair within a window, and `out` one
    /// `[C, OH, OW]` plane.
    pub(super) fn depthwise(
        staged: &[[i16; MADD_LANES]],
        padded_w: usize,
        taps: &[(usize, usize)],
        madd: &MaddTaps,
        shape: &PooledConvShape,
        out: &mut [i32],
    ) {
        match madd.lanes {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `gemm`: AVX2 taps exist only on the avx2
            // tier, which runs only where the CPU reports AVX2, and the
            // body indexes `staged`, `taps`, `madd` and `out` through
            // bounds-checked slices only.
            MaddLanes::Avx2 => unsafe { avx2::depthwise(staged, padded_w, taps, madd, shape, out) },
            #[cfg(target_arch = "x86_64")]
            MaddLanes::Sse2 => depthwise_on(sse2::Sse2, staged, padded_w, taps, madd, shape, out),
            MaddLanes::Portable => depthwise_on(Portable, staged, padded_w, taps, madd, shape, out),
        }
    }

    /// [`gemm`]'s body, on `lanes`. Filter blocks run outermost, so a
    /// block's runs stay cache-resident across every pixel block.
    #[inline(always)]
    fn gemm_on<L: Lanes, const P: usize, const F: usize>(
        lanes: L,
        staged: &[i16],
        madd: &MaddRows,
        out: &mut [i32],
    ) {
        const { assert!(P * F <= 16, "a block fits sixteen accumulators") };
        let shape = &madd.shape;
        let geo = shape.geometry();
        let (ow, pixels) = (geo.out_w(), geo.out_h() * geo.out_w());
        let (k, chunks, filters) = (shape.kernel, madd.chunks, shape.out_ch);
        let (row, step) = ((shape.in_w + 2 * shape.pad) * shape.in_ch, shape.stride * shape.in_ch);
        let filter_len = k * chunks;
        for f0 in (0..filters).step_by(F) {
            let w: [&[[i16; MADD_LANES]]; F] = std::array::from_fn(|j| {
                &madd.vecs[(f0 + j).min(filters - 1) * filter_len..][..filter_len]
            });
            for p0 in (0..pixels).step_by(P) {
                // Each pixel's window origin in `staged`.
                let origin: [usize; P] = std::array::from_fn(|i| {
                    let p = (p0 + i).min(pixels - 1);
                    p / ow * shape.stride * row + p % ow * step
                });
                let mut acc = [lanes.zero(); 16];
                for ky in 0..k {
                    let x: [&[[i16; MADD_LANES]]; P] = std::array::from_fn(|i| {
                        staged[origin[i] + ky * row..][..chunks * MADD_LANES].as_chunks().0
                    });
                    for c in 0..chunks {
                        let wv: [L::I16; F] =
                            std::array::from_fn(|j| lanes.load(&w[j][ky * chunks + c]));
                        for (i, xi) in x.iter().enumerate() {
                            let xv = lanes.load(&xi[c]);
                            for (j, &v) in wv.iter().enumerate() {
                                acc[i * F + j] = lanes.madd(acc[i * F + j], xv, v);
                            }
                        }
                    }
                }
                let (lo, hi) = acc.split_at(8);
                let mut sums = [0i32; 16];
                sums[..8].copy_from_slice(&lanes.hsum8(lo.try_into().expect("eight accumulators")));
                if P * F > 8 {
                    sums[8..]
                        .copy_from_slice(&lanes.hsum8(hi.try_into().expect("eight accumulators")));
                }
                for i in 0..P.min(pixels - p0) {
                    for j in 0..F.min(filters - f0) {
                        out[(f0 + j) * pixels + p0 + i] = sums[i * F + j];
                    }
                }
            }
        }
    }

    /// [`depthwise`]'s body, on `lanes`.
    #[inline(always)]
    fn depthwise_on<L: Lanes>(
        lanes: L,
        staged: &[[i16; MADD_LANES]],
        padded_w: usize,
        taps: &[(usize, usize)],
        madd: &MaddTaps,
        shape: &PooledConvShape,
        out: &mut [i32],
    ) {
        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let blocks = madd.channels.div_ceil(MADD_LANES);
        let mut sums = [0i32; MADD_LANES];
        for oy in 0..oh {
            for ox in 0..ow {
                let window = (oy * shape.stride * padded_w + ox * shape.stride) * blocks;
                for b in 0..blocks {
                    let w = &madd.vecs[b * taps.len() * 2..][..taps.len() * 2];
                    let (mut lo, mut hi) = (lanes.zero(), lanes.zero());
                    for (&(o0, o1), pair) in taps.iter().zip(w.chunks_exact(2)) {
                        let x0 = lanes.load(&staged[window + o0 + b]);
                        let x1 = lanes.load(&staged[window + o1 + b]);
                        lo = lanes.madd(lo, lanes.unpacklo(x0, x1), lanes.load(&pair[0]));
                        hi = lanes.madd(hi, lanes.unpackhi(x0, x1), lanes.load(&pair[1]));
                    }
                    sums[..8].copy_from_slice(&lanes.store(lo));
                    sums[8..].copy_from_slice(&lanes.store(hi));
                    for (&v, &ch) in sums.iter().zip(&DW_CHANNEL_OF) {
                        let ch = b * MADD_LANES + ch;
                        if ch < madd.channels {
                            out[(ch * oh + oy) * ow + ox] = v;
                        }
                    }
                }
            }
        }
    }

    /// The avx2 tier's lanes: one `__m256i` per vector.
    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::{Lanes, MaddRows, MaddTaps, MADD_LANES};
        use std::arch::x86_64::*;
        use wp_core::reference::PooledConvShape;

        /// The AVX2 token. Its field is private to this module, and only
        /// the `#[target_feature(enable = "avx2")]` entry points below
        /// build one, so a value exists only where AVX2 runs.
        #[derive(Clone, Copy)]
        struct Avx2(());

        impl Lanes for Avx2 {
            type I16 = __m256i;
            type I32 = __m256i;

            #[inline(always)]
            fn load(self, v: &[i16; MADD_LANES]) -> __m256i {
                // SAFETY: the token means the CPU has AVX2; `v` is 32
                // bytes, exactly one unaligned 256-bit load.
                unsafe { _mm256_loadu_si256(v.as_ptr().cast()) }
            }

            #[inline(always)]
            fn zero(self) -> __m256i {
                // SAFETY: the token means the CPU has AVX2.
                unsafe { _mm256_setzero_si256() }
            }

            #[inline(always)]
            fn madd(self, acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
                // SAFETY: the token means the CPU has AVX2.
                unsafe { _mm256_add_epi32(acc, _mm256_madd_epi16(a, b)) }
            }

            #[inline(always)]
            fn unpacklo(self, a: __m256i, b: __m256i) -> __m256i {
                // SAFETY: the token means the CPU has AVX2.
                unsafe { _mm256_unpacklo_epi16(a, b) }
            }

            #[inline(always)]
            fn unpackhi(self, a: __m256i, b: __m256i) -> __m256i {
                // SAFETY: the token means the CPU has AVX2.
                unsafe { _mm256_unpackhi_epi16(a, b) }
            }

            #[inline(always)]
            fn store(self, v: __m256i) -> [i32; 8] {
                let mut out = [0i32; 8];
                // SAFETY: the token means the CPU has AVX2; `out` is 32
                // bytes, exactly one unaligned 256-bit store.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
                out
            }

            #[inline(always)]
            fn hsum8(self, acc: &[__m256i; 8]) -> [i32; 8] {
                // SAFETY: the token means the CPU has AVX2.
                let sums = unsafe {
                    let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
                    let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
                    let s45 = _mm256_hadd_epi32(acc[4], acc[5]);
                    let s67 = _mm256_hadd_epi32(acc[6], acc[7]);
                    // Per 128-bit half: the half-sums of acc[0..4] and
                    // acc[4..8].
                    let t0 = _mm256_hadd_epi32(s01, s23);
                    let t1 = _mm256_hadd_epi32(s45, s67);
                    _mm256_add_epi32(
                        _mm256_permute2x128_si256::<0x20>(t0, t1),
                        _mm256_permute2x128_si256::<0x31>(t0, t1),
                    )
                };
                self.store(sums)
            }
        }

        /// [`super::gemm`] on AVX2 lanes.
        #[target_feature(enable = "avx2")]
        pub(super) fn gemm<const P: usize, const F: usize>(
            staged: &[i16],
            madd: &MaddRows,
            out: &mut [i32],
        ) {
            super::gemm_on::<_, P, F>(Avx2(()), staged, madd, out);
        }

        /// [`super::depthwise`] on AVX2 lanes.
        #[target_feature(enable = "avx2")]
        pub(super) fn depthwise(
            staged: &[[i16; MADD_LANES]],
            padded_w: usize,
            taps: &[(usize, usize)],
            madd: &MaddTaps,
            shape: &PooledConvShape,
            out: &mut [i32],
        ) {
            super::depthwise_on(Avx2(()), staged, padded_w, taps, madd, shape, out);
        }
    }

    /// The swar tier's lanes on x86-64: each vector is two SSE2
    /// registers, its low and high 128-bit halves, so each AVX2 lane
    /// operation above becomes one SSE2 instruction per half. SSE2 is
    /// part of x86-64's baseline ISA, so the token needs no detection.
    #[cfg(target_arch = "x86_64")]
    mod sse2 {
        use super::{Lanes, MADD_LANES};
        use std::arch::x86_64::*;

        /// The SSE2 token (always available on x86-64).
        #[derive(Clone, Copy)]
        pub(super) struct Sse2;

        impl Lanes for Sse2 {
            type I16 = [__m128i; 2];
            type I32 = [__m128i; 2];

            #[inline(always)]
            fn load(self, v: &[i16; MADD_LANES]) -> [__m128i; 2] {
                // SAFETY: SSE2 is baseline on x86-64; `v` is 32 bytes,
                // read as two unaligned 128-bit loads at bytes 0 and 16.
                unsafe {
                    [_mm_loadu_si128(v.as_ptr().cast()), _mm_loadu_si128(v.as_ptr().add(8).cast())]
                }
            }

            #[inline(always)]
            fn zero(self) -> [__m128i; 2] {
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe { [_mm_setzero_si128(); 2] }
            }

            #[inline(always)]
            fn madd(self, acc: [__m128i; 2], a: [__m128i; 2], b: [__m128i; 2]) -> [__m128i; 2] {
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe {
                    [
                        _mm_add_epi32(acc[0], _mm_madd_epi16(a[0], b[0])),
                        _mm_add_epi32(acc[1], _mm_madd_epi16(a[1], b[1])),
                    ]
                }
            }

            #[inline(always)]
            fn unpacklo(self, a: [__m128i; 2], b: [__m128i; 2]) -> [__m128i; 2] {
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe { [_mm_unpacklo_epi16(a[0], b[0]), _mm_unpacklo_epi16(a[1], b[1])] }
            }

            #[inline(always)]
            fn unpackhi(self, a: [__m128i; 2], b: [__m128i; 2]) -> [__m128i; 2] {
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe { [_mm_unpackhi_epi16(a[0], b[0]), _mm_unpackhi_epi16(a[1], b[1])] }
            }

            #[inline(always)]
            fn store(self, v: [__m128i; 2]) -> [i32; 8] {
                let mut out = [0i32; 8];
                // SAFETY: SSE2 is baseline on x86-64; `out` is 32 bytes,
                // written as two unaligned 128-bit stores at bytes 0 and
                // 16.
                unsafe {
                    _mm_storeu_si128(out.as_mut_ptr().cast(), v[0]);
                    _mm_storeu_si128(out.as_mut_ptr().add(4).cast(), v[1]);
                }
                out
            }
        }
    }

    /// The swar tier's lanes on every other target: plain arrays in the
    /// same lane order. Compiled and tested on x86-64 too (through
    /// `NativeBackend::with_portable_lanes`).
    #[derive(Clone, Copy)]
    struct Portable;

    impl Lanes for Portable {
        type I16 = [i16; MADD_LANES];
        type I32 = [i32; 8];

        fn load(self, v: &[i16; MADD_LANES]) -> [i16; MADD_LANES] {
            *v
        }

        fn zero(self) -> [i32; 8] {
            [0; 8]
        }

        fn madd(self, acc: [i32; 8], a: [i16; MADD_LANES], b: [i16; MADD_LANES]) -> [i32; 8] {
            std::array::from_fn(|i| {
                let product = |k: usize| i32::from(a[k]) * i32::from(b[k]);
                acc[i].wrapping_add(product(2 * i).wrapping_add(product(2 * i + 1)))
            })
        }

        fn unpacklo(self, a: [i16; MADD_LANES], b: [i16; MADD_LANES]) -> [i16; MADD_LANES] {
            interleave(a, b, 0)
        }

        fn unpackhi(self, a: [i16; MADD_LANES], b: [i16; MADD_LANES]) -> [i16; MADD_LANES] {
            interleave(a, b, 4)
        }

        fn store(self, v: [i32; 8]) -> [i32; 8] {
            v
        }
    }

    /// Per 8-lane half, lanes `from..from + 4` of `a` and `b` interleaved
    /// (`a b a b …`).
    fn interleave(a: [i16; MADD_LANES], b: [i16; MADD_LANES], from: usize) -> [i16; MADD_LANES] {
        std::array::from_fn(|i| {
            let src = if i % 2 == 0 { &a } else { &b };
            src[i / 8 * 8 + from + i % 8 / 2]
        })
    }

    #[cfg(all(test, target_arch = "x86_64"))]
    mod tests {
        use super::sse2::Sse2;
        use super::{Lanes, Portable, MADD_LANES};
        use std::arch::x86_64::__m128i;
        use std::mem::transmute;

        /// The SSE2 and portable lanes agree op by op, at the `i16`
        /// extremes too (`(−32768)²·2` wraps to `i32::MIN` in both).
        #[test]
        fn sse2_lanes_match_the_portable_lanes() {
            let mut state = 0x1A2E5u64;
            let mut vec = || -> [i16; MADD_LANES] {
                std::array::from_fn(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match state >> 60 {
                        0 => i16::MIN,
                        1 => i16::MAX,
                        _ => (state >> 40) as i16,
                    }
                })
            };
            let mut cases: Vec<_> = (0..64).map(|_| (vec(), vec(), vec())).collect();
            cases.push(([i16::MIN; MADD_LANES], [i16::MAX; MADD_LANES], [i16::MIN; MADD_LANES]));
            let (s, p) = (Sse2, Portable);
            // SAFETY: two `__m128i` are 32 bytes of plain integer lanes, as
            // is `[i16; 16]`.
            let lanes = |v: [__m128i; 2]| unsafe { transmute::<_, [i16; MADD_LANES]>(v) };
            for (a, b, c) in cases {
                assert_eq!(lanes(s.load(&a)), a);
                assert_eq!(lanes(s.unpacklo(s.load(&a), s.load(&b))), p.unpacklo(a, b));
                assert_eq!(lanes(s.unpackhi(s.load(&a), s.load(&b))), p.unpackhi(a, b));
                let acc_s = s.madd(s.zero(), s.load(&c), s.load(&a));
                let acc_p = p.madd(p.zero(), c, a);
                assert_eq!(s.store(acc_s), p.store(acc_p));
                let acc_s = s.madd(acc_s, s.load(&b), s.load(&c));
                assert_eq!(s.store(acc_s), p.store(p.madd(acc_p, b, c)));
            }
        }
    }
}

/// Native direct int8 convolution accumulators, loop-for-loop the
/// arithmetic of [`wp_core::reference::direct_conv_acc`] (pinned by the
/// parity suites).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv_direct(codes: &[i32], shape: &PooledConvShape, weights: &[i8]) -> Vec<i32> {
    conv_direct_scratch(codes, shape, weights, &mut Scratch::new())
}

/// [`conv_direct`] writing into an arena buffer (returned to the caller).
pub(crate) fn conv_direct_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    scratch: &mut Scratch,
) -> Vec<i32> {
    let (in_ch, in_h, in_w) = (shape.in_ch, shape.in_h, shape.in_w);
    let k_sz = shape.kernel;
    assert_eq!(codes.len(), in_ch * in_h * in_w, "activation size mismatch");
    assert_eq!(weights.len(), shape.out_ch * in_ch * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let mut out = scratch.take_i32(shape.out_ch * oh * ow);
    for k in 0..shape.out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i64;
                for c in 0..in_ch {
                    for ky in 0..k_sz {
                        let Some(iy) = geo.input_row(oy, ky) else { continue };
                        for kx in 0..k_sz {
                            let Some(ix) = geo.input_col(ox, kx) else { continue };
                            acc += codes[(c * in_h + iy) * in_w + ix] as i64
                                * weights[((k * in_ch + c) * k_sz + ky) * k_sz + kx] as i64;
                        }
                    }
                }
                out[(k * oh + oy) * ow + ox] = i32::try_from(acc).expect("accumulator overflow");
            }
        }
    }
    out
}

/// Native depthwise int8 convolution: `[C, OH, OW]` accumulators from a
/// `[C, H, W]` plane and `[C, R, S]` weights (one kernel per channel).
///
/// # Panics
///
/// Panics on shape mismatches (`shape.out_ch` must equal `shape.in_ch`).
pub fn dwconv_acc(codes: &[i32], shape: &PooledConvShape, weights: &[i8]) -> Vec<i32> {
    dwconv_acc_scratch(codes, shape, weights, &mut Scratch::new())
}

/// [`dwconv_acc`] writing into an arena buffer (returned to the caller).
pub(crate) fn dwconv_acc_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
    let (c, k_sz) = (shape.in_ch, shape.kernel);
    assert_eq!(codes.len(), c * shape.in_h * shape.in_w, "activation size mismatch");
    assert_eq!(weights.len(), c * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let mut out = scratch.take_i32(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i64;
                for ky in 0..k_sz {
                    let Some(iy) = geo.input_row(oy, ky) else { continue };
                    for kx in 0..k_sz {
                        let Some(ix) = geo.input_col(ox, kx) else { continue };
                        let a = codes[(ch * shape.in_h + iy) * shape.in_w + ix] as i64;
                        let w = weights[(ch * k_sz + ky) * k_sz + kx] as i64;
                        acc += a * w;
                    }
                }
                out[(ch * oh + oy) * ow + ox] = i32::try_from(acc).expect("accumulator overflow");
            }
        }
    }
    out
}

/// Native dense accumulators: `out[o] = Σ_i w[o][i] · code[i]` (bias is
/// added by the caller alongside requantization).
///
/// # Panics
///
/// Panics on size mismatches.
pub fn dense_acc(codes: &[i32], weights: &[i8], out_features: usize) -> Vec<i32> {
    dense_acc_scratch(codes, weights, out_features, &mut Scratch::new())
}

/// [`dense_acc`] writing into an arena buffer (returned to the caller).
pub(crate) fn dense_acc_scratch(
    codes: &[i32],
    weights: &[i8],
    out_features: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let in_features = codes.len();
    assert_eq!(weights.len(), in_features * out_features, "weight size mismatch");
    let mut out = scratch.take_i32(out_features);
    for (o, slot) in out.iter_mut().enumerate() {
        let row = &weights[o * in_features..(o + 1) * in_features];
        let mut acc = 0i64;
        for (&w, &a) in row.iter().zip(codes) {
            acc += w as i64 * a as i64;
        }
        *slot = i32::try_from(acc).expect("accumulator overflow");
    }
    out
}

/// Accumulator element for the pooled gather's batched tile kernel.
/// `i64` is the always-exact path; `i32` is selected only when the plan
/// has proven that no per-pixel sum can leave `i32`, in which case the
/// two produce the same integers — the fast path halves the accumulator
/// footprint and doubles the SIMD width.
trait TileAcc: Copy + Default {
    fn add(self, a: i32) -> Self;
    fn widen(self) -> i64;
}

impl TileAcc for i64 {
    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a as i64
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self
    }
}

impl TileAcc for i32 {
    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self as i64
    }
}

/// How the batched pooled conv writes a finished accumulator out: raw
/// checked narrowing ([`NativeBackend::conv_pooled_prepared_batch`],
/// which the parity suites compare), or the bias + requant finish (the
/// `Kernel::run_batch` surface, [`FusedOut`]).
///
/// Both methods must be arithmetic-identical — **including the panics**
/// — to the raw narrowing followed by
/// [`OutputQuant::apply_plane_in_place`]:
/// [`FusedOut::emit`] reproduces that path's exact checked-narrow,
/// widening bias add, second checked-narrow and requant sequence per
/// element, so fusion cannot change (or silently skip) a single output or
/// overflow check, and [`FusedOut::finish_solo_in_place`] runs the
/// plan's finish, [`NativeBackend::finish_plane`].
pub(crate) trait WriteOut {
    /// Finishes one accumulator belonging to output channel `k`, as the
    /// gather's batched tile kernel leaves registers with it, so no
    /// separate finish pass re-walks the tile's output planes.
    fn emit(&self, k: usize, acc: i64) -> i32;

    /// Finishes a whole raw solo-path accumulator plane in place: tail
    /// tiles, and every image on the register route, run the per-image
    /// kernel, which produces raw accumulators into arena buffers.
    fn finish_solo_in_place(&self, acc: &mut [i32], plane: usize);
}

/// Raw accumulators out — the historical behavior.
pub(crate) struct RawOut;

impl WriteOut for RawOut {
    #[inline(always)]
    fn emit(&self, _k: usize, acc: i64) -> i32 {
        i32::try_from(acc).expect("accumulator overflow")
    }

    fn finish_solo_in_place(&self, _acc: &mut [i32], _plane: usize) {}
}

/// Bias+requant write-out (see [`WriteOut`] for the exactness
/// contract): per element in the gather's tiles, and through the plan's
/// finish for whole planes.
pub(crate) struct FusedOut<'a> {
    /// The plan's backend, whose tier picks the plane finish.
    pub(crate) backend: &'a NativeBackend,
    pub(crate) bias: &'a [i32],
    pub(crate) oq: &'a OutputQuant,
}

impl WriteOut for FusedOut<'_> {
    #[inline(always)]
    fn emit(&self, k: usize, acc: i64) -> i32 {
        let raw = i32::try_from(acc).expect("accumulator overflow");
        self.oq.apply_value(
            i32::try_from(raw as i64 + self.bias[k] as i64).expect("accumulator overflow"),
        )
    }

    fn finish_solo_in_place(&self, acc: &mut [i32], plane: usize) {
        self.backend.finish_plane(self.oq, acc, self.bias, plane);
    }
}

/// Max pooling over non-overlapping square windows (mirrors
/// `wp_kernels::cmsis::maxpool` arithmetic).
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn maxpool(codes: &[i32], ch: usize, h: usize, w: usize, size: usize) -> Vec<i32> {
    maxpool_scratch(codes, ch, h, w, size, &mut Scratch::new())
}

/// [`maxpool`] writing into an arena buffer (returned to the caller).
pub(crate) fn maxpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    pool_windows(codes, (ch, h, w), size, scratch, i32::MIN, i32::max, |best| best)
}

/// Reduces each channel's non-overlapping `size × size` windows with
/// `reduce` (starting from `init`) and maps each window's result through
/// `finish` — the one per-image kernel of max and average pooling on
/// every tier. Each output row first reduces its window's `size` input
/// rows elementwise into a row buffer, a contiguous sweep the compiler
/// vectorizes, and then reduces each `size`-wide run of that buffer to
/// one output. Rows and columns past the last whole window are dropped,
/// as in the CMSIS kernels. The returned buffer comes from the arena.
///
/// # Panics
///
/// Panics if the window exceeds the input or `codes` is not `ch · h · w`
/// codes.
fn pool_windows(
    codes: &[i32],
    (ch, h, w): (usize, usize, usize),
    size: usize,
    scratch: &mut Scratch,
    init: i32,
    reduce: impl Fn(i32, i32) -> i32,
    finish: impl Fn(i32) -> i32,
) -> Vec<i32> {
    assert!(h >= size && w >= size, "pool window larger than input");
    assert_eq!(codes.len(), ch * h * w, "activation size mismatch");
    let (oh, ow) = (h / size, w / size);
    let mut out = scratch.take_i32(ch * oh * ow);
    let mut row = scratch.take_i32(ow * size);
    for (plane, out) in codes.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (window, out) in plane.chunks_exact(size * w).zip(out.chunks_exact_mut(ow)) {
            row.fill(init);
            for line in window.chunks_exact(w) {
                for (r, &v) in row.iter_mut().zip(line) {
                    *r = reduce(*r, v);
                }
            }
            for (o, run) in out.iter_mut().zip(row.chunks_exact(size)) {
                *o = finish(run.iter().fold(init, |a, &v| reduce(a, v)));
            }
        }
    }
    scratch.put_i32(row);
    out
}

/// Average pooling over non-overlapping square windows: integer mean with
/// rounding, identical to `wp_kernels::cmsis::avgpool`.
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn avgpool(codes: &[i32], ch: usize, h: usize, w: usize, size: usize) -> Vec<i32> {
    avgpool_scratch(codes, ch, h, w, size, &mut Scratch::new())
}

/// [`avgpool`] writing into an arena buffer (returned to the caller).
pub(crate) fn avgpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let div = (size * size) as i32;
    let mean = |sum: i32| (sum + div / 2).div_euclid(div);
    pool_windows(codes, (ch, h, w), size, scratch, 0, |a, v| a + v, mean)
}

/// Global average pooling to one value per channel (rounded integer mean,
/// identical to `wp_kernels::cmsis::global_avgpool`).
pub fn global_avgpool(codes: &[i32], ch: usize, h: usize, w: usize) -> Vec<i32> {
    global_avgpool_scratch(codes, ch, h, w, &mut Scratch::new())
}

/// [`global_avgpool`] writing into an arena buffer (returned to the
/// caller).
pub(crate) fn global_avgpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let n = (h * w) as i32;
    let mut out = scratch.take_i32(ch);
    for (c, slot) in out.iter_mut().enumerate() {
        let acc: i32 = codes[c * h * w..(c + 1) * h * w].iter().sum();
        *slot = (acc + n / 2).div_euclid(n);
    }
    out
}

/// Saturating elementwise residual add of two code planes into an
/// arbitrary code range (signed encodings clamp two-sided).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add_range(a: &[i32], b: &[i32], lo: i32, hi: i32) -> Vec<i32> {
    residual_add_range_scratch(a, b, lo, hi, &mut Scratch::new())
}

/// [`residual_add_range`] writing into an arena buffer (returned to the
/// caller).
pub(crate) fn residual_add_range_scratch(
    a: &[i32],
    b: &[i32],
    lo: i32,
    hi: i32,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(a.len(), b.len(), "residual operands must match");
    let mut out = scratch.take_i32(a.len());
    for (slot, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *slot = (x + y).clamp(lo, hi);
    }
    out
}

/// Saturating elementwise residual add of two unsigned code planes
/// (identical to `wp_kernels::cmsis::residual_add`).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add(a: &[i32], b: &[i32], out_bits: u8) -> Vec<i32> {
    residual_add_range(a, b, 0, (1i32 << out_bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_core::{LutOrder, WeightPool};

    fn small_lut(order: LutOrder) -> LookupTable {
        let pool = WeightPool::from_vectors(vec![
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.0],
            vec![0.0, 64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0],
        ]);
        LookupTable::build(&pool, 8, order)
    }

    #[test]
    fn lut_cache_is_order_independent() {
        let a = LutCache::new(&small_lut(LutOrder::InputOriented));
        let b = LutCache::new(&small_lut(LutOrder::WeightOriented));
        assert_eq!(a, b);
        assert_eq!(a.pool_size(), 2);
        assert_eq!(a.group_size(), 8);
        assert_eq!(a.num_patterns(), 256);
        // Entry values match the source table.
        let lut = small_lut(LutOrder::InputOriented);
        assert_eq!(a.code(1, 0b0110), lut.code(1, 0b0110));
    }

    #[test]
    fn pooled_conv_equals_integer_dot_product() {
        // LUT scale is exactly 1, so accumulators equal plain dot products.
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        let codes = vec![3, 0, 1, 2, 5, 7, 1, 9];
        let acc = backend.conv_pooled(&codes, &shape, &[0, 1]);
        let w0 = [1, 2, 4, 8, 16, 32, 64, 0];
        let w1 = [0, 64, 32, 16, 8, 4, 2, 1];
        let dot = |w: &[i32; 8]| codes.iter().zip(w).map(|(&a, &b)| a * b).sum::<i32>();
        assert_eq!(acc, vec![dot(&w0), dot(&w1)]);
    }

    #[test]
    #[should_panic(expected = "activation code outside")]
    fn out_of_range_codes_rejected() {
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 4, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 1, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        backend.conv_pooled(&[16, 0, 0, 0, 0, 0, 0, 0], &shape, &[0]);
    }

    #[test]
    #[should_panic(expected = "activation bits")]
    fn zero_act_bits_rejected() {
        NativeBackend::new(&small_lut(LutOrder::InputOriented), 0, ActEncoding::Unsigned);
    }

    #[test]
    fn batched_pooled_conv_matches_solo() {
        let lut = small_lut(LutOrder::InputOriented);
        for act_bits in [1u8, 4, 8] {
            let backend = NativeBackend::new(&lut, act_bits, ActEncoding::Unsigned);
            let shape = PooledConvShape {
                in_ch: 8,
                out_ch: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                in_h: 5,
                in_w: 4,
            };
            let hi = (1i32 << act_bits) - 1;
            let mut state = 0x9E3779B9u64;
            let mut next = move |m: i32| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as i32).rem_euclid(m)
            };
            let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| next(2) as u8).collect();
            let prep = backend.prepare_indices(&shape, &indices);
            let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE + 3)
                .map(|_| (0..8 * 5 * 4).map(|_| next(hi + 1)).collect())
                .collect();
            let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
            let batched = backend.conv_pooled_prepared_batch(&refs, &shape, &prep);
            assert_eq!(batched.len(), images.len());
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&backend.conv_pooled_prepared(img, &shape, &prep), out, "M={act_bits}");
            }
        }
    }

    /// The plan-time `i16` edge at 8-bit activations: a LUT whose largest
    /// `|code|` is 128 proves `128 · 255 = 32,640 ≤ 32,767` and takes the
    /// register route (on AVX2 hosts); 129 (`32,895`) falls back to the
    /// gather. Both match the reference, solo and batched.
    #[test]
    fn i16_edge_routes_on_max_abs_code() {
        use crate::options::avx2_available;
        use wp_core::reference::bitserial_conv_acc;

        let shape = PooledConvShape {
            in_ch: 16,
            out_ch: 40,
            kernel: 3,
            stride: 1,
            pad: 1,
            in_h: 4,
            in_w: 3,
        };
        let (pool, patterns) = (4usize, 256usize);
        let mut s = 0xED6E;
        for (extreme, bits, registers) in [(-128, 8u8, true), (-129, 9, false), (129, 9, false)] {
            // Pattern 0 (no bit set) codes 0, as in any pool-built table;
            // every other code but the extreme one stays within ±127.
            let mut codes: Vec<i32> = (0..pool * patterns)
                .map(|i| if i < pool { 0 } else { lcg(&mut s, 255) - 127 })
                .collect();
            codes[pool * 77 + 2] = extreme;
            let lut = LookupTable::from_parts(8, pool, bits, 0.01, LutOrder::InputOriented, codes)
                .expect("valid lut parts");
            let backend =
                NativeBackend::new_with(&lut, 8, ActEncoding::Unsigned, BackendKind::Avx2);
            let indices: Vec<u8> =
                (0..shape.index_count(8)).map(|_| lcg(&mut s, pool as i32) as u8).collect();
            let prep = backend.prepare_indices(&shape, &indices);
            assert_eq!(prep.max_partial, i64::from(extreme).abs() * 255);
            let want = if registers && avx2_available() {
                ScatterRoute::Registers
            } else {
                ScatterRoute::Gather
            };
            assert_eq!(prep.route(), want, "max |code| {}", extreme.abs());
            let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE + 1)
                .map(|_| (0..16 * 4 * 3).map(|_| lcg(&mut s, 256)).collect())
                .collect();
            let expect: Vec<Vec<i32>> = images
                .iter()
                .map(|img| {
                    bitserial_conv_acc(img, &shape, &indices, &lut, 8, ActEncoding::Unsigned)
                })
                .collect();
            for (img, e) in images.iter().zip(&expect) {
                assert_eq!(&backend.conv_pooled_prepared(img, &shape, &prep), e);
            }
            assert_eq!(backend.conv_pooled_prepared_batch(&images, &shape, &prep), expect);
        }
    }

    #[test]
    fn batched_pooled_conv_empty_batch() {
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        let prep = backend.prepare_indices(&shape, &[0, 1]);
        assert!(backend.conv_pooled_prepared_batch::<&[i32]>(&[], &shape, &prep).is_empty());
    }

    #[test]
    fn dense_acc_matches_manual() {
        let codes = vec![1, 2, 3];
        let weights: Vec<i8> = vec![1, 0, -1, 2, 2, 2];
        assert_eq!(dense_acc(&codes, &weights, 2), vec![-2, 12]);
    }

    /// Deterministic LCG for shape/value fuzzing without `rand`.
    fn lcg(state: &mut u64, m: i32) -> i32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as i32).rem_euclid(m)
    }

    /// The madd route's plan-time proof at its edges, on each vector
    /// tier and the portable lanes: unsigned 8-bit codes reach 255, so
    /// `65,793 · 255 · 128 = 2,147,483,520` leaves room for a bias of 127
    /// but not 128, and one more tap fails; signed codes reach `|−128|`,
    /// so 131,071 taps fit and 131,072 do not. The scalar tier always
    /// takes the exact route. At the edge itself the kernel is exact.
    #[test]
    fn mac_route_follows_the_range_proof() {
        let lut = small_lut(LutOrder::InputOriented);
        let scalar = NativeBackend::new_with(&lut, 1, ActEncoding::Unsigned, BackendKind::Scalar);
        assert_eq!(scalar.mac_route(9, &[]), MacRoute::Exact);
        assert!(scalar.prepare_madd_rows(&dense_as_conv(9, 1), &[1; 9], &[0]).is_none());
        assert_eq!(scalar.with_portable_lanes().mac_route(9, &[]), MacRoute::Exact);

        let tiers = [BackendKind::Swar, BackendKind::Avx2];
        let backends = |encoding| {
            let tiers = tiers.map(|kind| NativeBackend::new_with(&lut, 8, encoding, kind));
            let portable = tiers[0].clone().with_portable_lanes();
            tiers.into_iter().chain([portable])
        };
        for signed in backends(ActEncoding::SignedTwosComplement) {
            assert_eq!(signed.mac_route(131_071, &[]), MacRoute::Madd);
            assert_eq!(signed.mac_route(131_072, &[]), MacRoute::Exact);
        }
        for unsigned in backends(ActEncoding::Unsigned) {
            let tier = unsigned.simd();
            assert_eq!(unsigned.mac_route(65_793, &[0, 127]), MacRoute::Madd, "{tier}");
            assert_eq!(unsigned.mac_route(65_793, &[-128]), MacRoute::Exact);
            assert_eq!(unsigned.mac_route(65_794, &[]), MacRoute::Exact);
            let shape = dense_as_conv(65_794, 1);
            assert!(unsigned.prepare_madd_rows(&shape, &vec![1; 65_794], &[0]).is_none());

            let weights = vec![-128i8; 65_793];
            let shape = dense_as_conv(65_793, 1);
            let rows = unsigned.prepare_madd_rows(&shape, &weights, &[0]).expect("madd rows");
            let codes = vec![255; 65_793];
            let acc = direct_madd_scratch(&codes, &rows, &mut Scratch::new());
            assert_eq!(acc, [-2_147_483_520], "{tier}");
            assert_eq!(acc, dense_acc(&codes, &weights, 1));
        }
    }

    #[test]
    fn batched_kernels_handle_empty_batch() {
        use crate::kernel::{AvgPoolKernel, Kernel, KernelCtx, MaxPoolKernel};
        let lut = small_lut(LutOrder::InputOriented);
        let oq = OutputQuant {
            requant: wp_quant::Requantizer::from_real_multiplier(1.0),
            relu: false,
            out_bits: 8,
        };
        for kind in [BackendKind::Scalar, BackendKind::Swar, BackendKind::Avx2] {
            let backend = NativeBackend::new_with(&lut, 8, ActEncoding::Unsigned, kind);
            let ctx = KernelCtx {
                backend: &backend,
                in_dims: (2, 2, 2),
                bias: &[],
                oq: &oq,
                act_bits: 8,
            };
            let kernels: [&dyn Kernel; 2] =
                [&MaxPoolKernel { size: 2 }, &AvgPoolKernel { size: 2 }];
            for kernel in kernels {
                assert!(kernel.run_batch(&ctx, Vec::new(), &mut Scratch::new()).is_empty());
            }
        }
    }

    #[test]
    fn residual_add_saturates() {
        assert_eq!(residual_add(&[200, 100, 0], &[100, 20, 0], 8), vec![255, 120, 0]);
    }

    #[test]
    fn avgpool_rounds_like_cmsis() {
        // 2x2 window over [1, 2, 3, 4]: mean 2.5 rounds to 3.
        assert_eq!(avgpool(&[1, 2, 3, 4], 1, 2, 2, 2), vec![3]);
    }
}
