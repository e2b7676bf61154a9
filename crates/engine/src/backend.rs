//! The native per-layer kernels.
//!
//! [`NativeBackend::conv_pooled`] restructures the reference bit-serial
//! loop for host speed while keeping the integer arithmetic untouched. It
//! runs in two phases: an **input-stationary** pass bit-unpacks each
//! activation group once (§4.1 input reuse, hoisted across the overlapping
//! windows that revisit it) and computes every pool vector's `M`-bit
//! partial dot product per input position as dense sweeps over the
//! pattern-major [`LutCache`] slabs (§4.3 precomputation taken to its
//! host-side limit); a **scatter** pass then sums each output pixel's taps
//! through the per-filter index map. Because all of this merely
//! reassociates an integer sum, the accumulators are bit-identical to
//! [`wp_core::reference::bitserial_conv_acc`] — a property pinned down by
//! the parity tests in `tests/parity.rs`.

use crate::options::{BackendKind, ResolvedBackend};
use crate::scratch::Scratch;
use crate::swar::resolve_popcount_max_bits;
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
/// time, so [`crate::BatchRunner`] workers all read the plan's one copy.
#[derive(Debug, Clone, PartialEq)]
pub struct LutCache {
    pool_size: usize,
    patterns: usize,
    group: usize,
    codes: Vec<i32>,
    max_abs_code: i64,
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
        Self { pool_size, patterns, group: lut.group_size(), codes, max_abs_code }
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

/// A layer's pool-index map transposed to tap-major order by
/// [`NativeBackend::prepare_indices`], ready for repeated
/// [`NativeBackend::conv_pooled_prepared`] calls with no per-call setup.
#[derive(Debug, Clone)]
pub struct PreparedIndices {
    k_count: usize,
    idx_stride: usize,
    /// `[g][r][s][k]` order: the **solo** scatter iterates taps outermost
    /// and reads one tap's indices for every filter as a contiguous run.
    tap_major: Vec<u8>,
    /// The canonical `[k][g][r][s]` order, kept alongside the transpose —
    /// both layouts are load-bearing: the **batched** scatter iterates
    /// filters outermost (so each filter's accumulator row stays in
    /// registers across all of its taps) and walks that filter's taps
    /// contiguously in this layout, while the solo scatter streams
    /// `tap_major`. Dropping either would force one path through a
    /// strided walk of the other's layout; the duplicate costs one byte
    /// per index, paid once at prepare time.
    canonical: Vec<u8>,
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
    /// bit-plane popcount kernels and the batched tile kernels. Every
    /// tier computes identical integers.
    simd: ResolvedBackend,
    /// Largest activation bitwidth routed through the bit-plane popcount
    /// kernels (solo direct/dense; the batched path further caps at
    /// [`crate::swar::POPCOUNT_BATCH_MAX_BITS`]). Resolved at build time
    /// from the explicit engine option or `WP_POPCOUNT_MAX_BITS`; `0`
    /// disables the popcount path. Routing only — every path computes
    /// identical integers.
    popcount_max_bits: u8,
}

impl NativeBackend {
    /// Largest number of images a batched conv processes per internal tile
    /// (outputs are identical for any tiling because images are
    /// independent). Sized so the batched scatter's accumulator block
    /// (`out_ch × BATCH_TILE × 8` bytes) stays L1-resident for typical
    /// filter counts — larger tiles push it to L2 and lose more to memory
    /// traffic than the wider sweeps gain.
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
        Self {
            lut,
            act_bits,
            encoding,
            bit_weights,
            simd: backend.resolve(),
            popcount_max_bits: resolve_popcount_max_bits(None),
        }
    }

    /// The resolved kernel tier this backend executes with.
    pub fn simd(&self) -> ResolvedBackend {
        self.simd
    }

    /// The popcount routing threshold this backend executes with (see
    /// [`crate::swar::resolve_popcount_max_bits`]).
    pub fn popcount_max_bits(&self) -> u8 {
        self.popcount_max_bits
    }

    /// Overrides the popcount routing threshold: act_bits up to `bits`
    /// route direct/dense work through the bit-plane kernels, `0`
    /// disables them entirely. Routing only — outputs are identical at
    /// any setting.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 8`.
    pub fn with_popcount_limit(mut self, bits: u8) -> Self {
        self.popcount_max_bits = resolve_popcount_max_bits(Some(bits));
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

    /// Accumulates one bit row's weighted LUT block into the per-position
    /// partials (Algorithm 1 lines 11–13, reassociated into a dense sweep
    /// over the pattern's contiguous pool-vector slab).
    #[inline]
    fn sweep_row(&self, dst: &mut [i32], row: usize, weight: i32) {
        for (d, &c) in dst.iter_mut().zip(self.lut.block(row)) {
            *d += weight * c;
        }
    }

    /// Transposes a canonical `[k][g][r][s]` index map into the tap-major
    /// `[g][r][s][k]` layout the scatter pass reads sequentially. The
    /// transpose depends only on the layer's static index map, so callers
    /// executing a layer repeatedly (e.g. [`crate::PreparedNet`]) do it
    /// once and pass the result to [`NativeBackend::conv_pooled_prepared`].
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
        let mut tap_major = vec![0u8; indices.len()];
        for k in 0..k_count {
            for t in 0..idx_stride {
                tap_major[t * k_count + k] = indices[k * idx_stride + t];
            }
        }
        PreparedIndices { k_count, idx_stride, tap_major, canonical: indices.to_vec() }
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
    /// `shape`, returning the group count.
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
        let (lo, hi) = self.encoding.code_range(self.act_bits);
        assert!(
            codes.iter().all(|&c| (lo..=hi).contains(&c)),
            "activation code outside [{lo}, {hi}]"
        );
        groups
    }

    /// Phase 1 — input-stationary precomputation: for every (group, input
    /// position), bit-unpack the activation group once (§4.1) and compute
    /// every pool vector's M-bit partial dot product once (§4.3
    /// precomputation, hoisted out of the output loop entirely: a 3x3
    /// kernel revisits each input position up to nine times, and every
    /// filter sharing a pool vector reuses the same partial). Each bit row
    /// selects one contiguous pattern-major LUT slab, so the inner sweep is
    /// a dense multiply-accumulate the compiler can vectorize. Partials are
    /// exact in `i32` (see `bit_weights`). Table layout: partial of vector
    /// `s` at `(grp, iy, ix)` lives at
    /// `((grp * in_h + iy) * in_w + ix) * s_count + s`.
    fn fill_partials(&self, codes: &[i32], shape: &PooledConvShape, partials: &mut [i32]) {
        let g = self.lut.group;
        let groups = shape.groups(g);
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let m_bits = self.act_bits as usize;
        partials.fill(0);
        let mut chunks = partials.chunks_mut(self.lut.pool_size);
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
                    let dst = chunks.next().expect("partial table sized to positions");
                    for (&row, &w) in rows.iter().zip(&self.bit_weights).take(m_bits) {
                        self.sweep_row(dst, row, w);
                    }
                }
            }
        }
    }

    /// [`NativeBackend::conv_pooled`] with the index transpose hoisted out:
    /// `prep` must come from [`NativeBackend::prepare_indices`] for the
    /// same shape.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch (including `prep` built for a different
    /// shape) or if a code is outside the encoding's range for the
    /// backend's activation bitwidth.
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
        let groups = self.check_pooled_args(codes, shape, prep);

        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let k_count = shape.out_ch;
        let s_count = self.lut.pool_size;
        let kernel = shape.kernel;

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
                            let taps =
                                &prep.tap_major[idx_base * k_count..(idx_base + 1) * k_count];
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
        let kernel = shape.kernel;
        let geo = shape.geometry();
        let out_plane = geo.out_h() * geo.out_w();

        for tile in batch.chunks(Self::BATCH_TILE) {
            let b_count = tile.len();
            if b_count < Self::BATCH_TILE {
                // Partial tail tile: the batch-minor layout only pays for
                // itself at full width, so run the remainder solo (the
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
            // fixed-size vector adds — in `i32` when the worst case
            // (every tap at the largest LUT code and the largest
            // activation) provably fits, which doubles the SIMD width and
            // is exact precisely because it cannot overflow.
            let taps_total = (kernel * kernel * groups) as i64;
            let act_max = (1i64 << self.act_bits) - 1;
            let fits_i32 = taps_total
                .checked_mul(act_max)
                .and_then(|v| v.checked_mul(self.lut.max_abs_code))
                .is_some_and(|v| v <= i32::MAX as i64);
            let base = outs.len();
            for _ in 0..Self::BATCH_TILE {
                outs.push(scratch.take_i32(shape.out_ch * out_plane));
            }
            let mut taps = scratch.take_pairs();
            if fits_i32 {
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

    for oy in 0..oh {
        for ox in 0..ow {
            valid_taps(&geo, shape, groups, s_count, oy, ox, taps);
            for k in 0..k_count {
                let krow = &prep.canonical[k * prep.idx_stride..(k + 1) * prep.idx_stride];
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

/// Accumulator element for the weight-stationary batched tile kernels.
/// `i64` is the always-exact path; `i32` is selected only when the caller
/// has proven (from the tile's largest activation magnitude and the
/// layer's term count) that no per-pixel sum can leave `i32`, in which
/// case the two produce the same integers — the fast path halves the
/// accumulator footprint and doubles the SIMD width.
trait TileAcc: Copy + Default {
    fn madd(self, w: i32, a: i32) -> Self;
    fn add(self, a: i32) -> Self;
    fn widen(self) -> i64;
    /// Checks a zeroed accumulator buffer out of the arena (the blocked
    /// dense kernel keeps a whole output block of accumulators live).
    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self>;
    /// Returns an accumulator buffer to the arena.
    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>);
}

impl TileAcc for i64 {
    #[inline(always)]
    fn madd(self, w: i32, a: i32) -> Self {
        self + w as i64 * a as i64
    }

    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a as i64
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self
    }

    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self> {
        scratch.take_i64(len)
    }

    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>) {
        scratch.put_i64(buf);
    }
}

impl TileAcc for i32 {
    #[inline(always)]
    fn madd(self, w: i32, a: i32) -> Self {
        self + w * a
    }

    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self as i64
    }

    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self> {
        scratch.take_i32(len)
    }

    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>) {
        scratch.put_i32(buf);
    }
}

/// How a batched tile kernel writes a finished accumulator out: raw
/// checked narrowing (the raw `*_batch` functions the parity suites
/// compare), or the bias + requant arithmetic fused in as the value
/// leaves registers (the `Kernel::run_batch` surface), so no separate
/// finish pass re-walks the output planes.
///
/// `emit` must be arithmetic-identical — **including the panics** — to
/// the raw narrowing followed by [`OutputQuant::apply_plane`]:
/// [`FusedOut`] reproduces that path's exact checked-narrow, widening
/// bias add, second checked-narrow and requant sequence per element, so
/// fusion cannot change (or silently skip) a single output or overflow
/// check.
pub(crate) trait WriteOut {
    /// Finishes one accumulator belonging to output channel `k`.
    fn emit(&self, k: usize, acc: i64) -> i32;

    /// Finishes a whole raw solo-path accumulator plane in place (tail
    /// tiles run through the solo kernels, which produce raw
    /// accumulators into arena buffers).
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

/// Fused bias+requant write-out (see [`WriteOut`] for the exactness
/// contract).
pub(crate) struct FusedOut<'a> {
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
        self.oq.apply_plane_in_place(acc, self.bias, plane);
    }
}

/// Transposes a full tile of `B` equally-sized activation planes into
/// batch-minor columns: the value of image `b` at flat position `pos`
/// lands at `pos * B + b`, so one position's values for the whole tile
/// are contiguous (the layout every tile kernel sweeps). `columns` must
/// be pre-sized to `len * B` (every slot is written).
fn fill_columns<S: AsRef<[i32]>, const B: usize>(tile: &[S], columns: &mut [i32]) {
    debug_assert_eq!(tile.len(), B);
    debug_assert_eq!(columns.len(), tile[0].as_ref().len() * B);
    for (b, codes) in tile.iter().enumerate() {
        for (pos, &v) in codes.as_ref().iter().enumerate() {
            columns[pos * B + b] = v;
        }
    }
}

/// [`fill_columns`] at a run-time lane count (the blocked dense kernel
/// spans every full tile of a batch at once, so its lane count is not a
/// compile-time constant): image `b` at position `pos` lands at
/// `pos * lanes + b`.
fn fill_columns_dyn<S: AsRef<[i32]>>(tile: &[S], columns: &mut [i32]) {
    let lanes = tile.len();
    debug_assert_eq!(columns.len(), tile[0].as_ref().len() * lanes);
    for (b, codes) in tile.iter().enumerate() {
        for (pos, &v) in codes.as_ref().iter().enumerate() {
            columns[pos * lanes + b] = v;
        }
    }
}

/// Whether every per-pixel sum of `terms` products `w · a` (with
/// `|w| <= 128` int8 weights and activations drawn from `tile`) provably
/// fits in `i32` — the admission test for the [`TileAcc`] `i32` fast
/// path. Conservative by construction: it bounds with the tile's largest
/// activation magnitude, so a `true` here means no intermediate partial
/// sum can overflow in any accumulation order.
fn tile_fits_i32<S: AsRef<[i32]>>(tile: &[S], terms: i64) -> bool {
    let max_abs =
        tile.iter().flat_map(|c| c.as_ref().iter()).map(|&v| (v as i64).abs()).max().unwrap_or(0);
    terms
        .checked_mul(max_abs)
        .and_then(|v| v.checked_mul(128))
        .is_some_and(|v| v <= i32::MAX as i64)
}

/// Batched [`conv_direct`]: weight-stationary direct int8 convolution
/// over a batch of images, bit-identical to running each image solo.
///
/// The weights and the per-pixel loop bookkeeping are the same for every
/// image, so full tiles of [`NativeBackend::BATCH_TILE`] images execute
/// through a batch-minor tile kernel: each weight is loaded once per
/// output pixel and applied to the whole tile as a dense sweep over a
/// contiguous batch column — the direct-conv analogue of the pooled
/// scatter's tap amortization. Per image the sum per output pixel is the
/// exact integer sum the solo path computes (in `i64`, or in `i32` when
/// [`tile_fits_i32`] proves overflow impossible), so outputs match
/// bit-for-bit; a partial tail tile runs solo, which is identical by the
/// same argument.
///
/// # Panics
///
/// Panics on any per-image shape mismatch, exactly as the solo path does.
pub fn conv_direct_batch<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    conv_direct_batch_core(batch, shape, weights, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// The batched direct-conv engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn conv_direct_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    let geo = shape.geometry();
    let out_plane = geo.out_h() * geo.out_w();
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                let mut acc = conv_direct_scratch(codes.as_ref(), shape, weights, scratch);
                w_out.finish_solo_in_place(&mut acc, out_plane);
                outs.push(acc);
            }
            continue;
        }
        for codes in tile {
            assert_eq!(
                codes.as_ref().len(),
                shape.in_ch * shape.in_h * shape.in_w,
                "activation size mismatch"
            );
        }
        assert_eq!(
            weights.len(),
            shape.out_ch * shape.in_ch * shape.kernel * shape.kernel,
            "weight size mismatch"
        );
        let mut columns = scratch.take_i32(tile[0].as_ref().len() * B);
        fill_columns::<_, B>(tile, &mut columns);
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(shape.out_ch * out_plane));
        }
        let mut taps = scratch.take_pairs();
        let terms = (shape.in_ch * shape.kernel * shape.kernel) as i64;
        if tile_fits_i32(tile, terms) {
            direct_tile::<i32, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        } else {
            direct_tile::<i64, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        }
        scratch.put_pairs(taps);
        scratch.put_i32(columns);
    }
}

/// The in-bounds spatial taps of one output pixel as
/// `(ky * kernel + kx, iy * in_w + ix)` pairs, in the solo kernels'
/// `(ky, kx)` visit order (padding taps contribute zero and are skipped
/// by both paths).
fn valid_spatial_taps(
    geo: &wp_tensor::Conv2dGeometry,
    kernel: usize,
    in_w: usize,
    oy: usize,
    ox: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for ky in 0..kernel {
        let Some(iy) = geo.input_row(oy, ky) else { continue };
        for kx in 0..kernel {
            let Some(ix) = geo.input_col(ox, kx) else { continue };
            out.push((ky * kernel + kx, iy * in_w + ix));
        }
    }
}

/// The direct-conv tile kernel at compile-time batch width `B`:
/// `columns` holds batch-minor activations (`pos * B + b`). Output pixels
/// are outermost and filters next, so each filter's accumulator row lives
/// in registers across all of its `C · R · S` weights, each loaded once
/// and swept across the whole tile.
fn direct_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (k_sz, in_ch) = (shape.kernel, shape.in_ch);
    let plane = shape.in_h * shape.in_w;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);

    for oy in 0..oh {
        for ox in 0..ow {
            valid_spatial_taps(&geo, k_sz, shape.in_w, oy, ox, taps);
            for k in 0..shape.out_ch {
                let mut row = [A::default(); B];
                for c in 0..in_ch {
                    let wrow = &weights[(k * in_ch + c) * k_sz * k_sz..][..k_sz * k_sz];
                    for &(t, sp) in taps.iter() {
                        let w = wrow[t] as i32;
                        let col = &cols[c * plane + sp];
                        for (a, &p) in row.iter_mut().zip(col) {
                            *a = a.madd(w, p);
                        }
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

/// Batched [`dwconv_acc`]: weight-stationary depthwise int8 convolution,
/// bit-identical to solo (same tiling, fast-path admission and exactness
/// argument as [`conv_direct_batch`]; a depthwise pixel sums at most
/// `R · S` terms, so the `i32` fast path almost always applies).
///
/// # Panics
///
/// Panics on any per-image shape mismatch, exactly as the solo path does.
pub fn dwconv_acc_batch<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    dwconv_acc_batch_core(batch, shape, weights, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// The batched depthwise engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn dwconv_acc_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
    let geo = shape.geometry();
    let out_plane = geo.out_h() * geo.out_w();
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                let mut acc = dwconv_acc_scratch(codes.as_ref(), shape, weights, scratch);
                w_out.finish_solo_in_place(&mut acc, out_plane);
                outs.push(acc);
            }
            continue;
        }
        for codes in tile {
            assert_eq!(
                codes.as_ref().len(),
                shape.in_ch * shape.in_h * shape.in_w,
                "activation size mismatch"
            );
        }
        assert_eq!(
            weights.len(),
            shape.in_ch * shape.kernel * shape.kernel,
            "weight size mismatch"
        );
        let mut columns = scratch.take_i32(tile[0].as_ref().len() * B);
        fill_columns::<_, B>(tile, &mut columns);
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(shape.in_ch * out_plane));
        }
        let mut taps = scratch.take_pairs();
        let terms = (shape.kernel * shape.kernel) as i64;
        if tile_fits_i32(tile, terms) {
            dw_tile::<i32, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        } else {
            dw_tile::<i64, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        }
        scratch.put_pairs(taps);
        scratch.put_i32(columns);
    }
}

/// The depthwise tile kernel at compile-time batch width `B` (one kernel
/// per channel; each weight loaded once per output pixel and swept across
/// the tile).
fn dw_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let k_sz = shape.kernel;
    let plane = shape.in_h * shape.in_w;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);

    for oy in 0..oh {
        for ox in 0..ow {
            valid_spatial_taps(&geo, k_sz, shape.in_w, oy, ox, taps);
            for ch in 0..shape.in_ch {
                let wrow = &weights[ch * k_sz * k_sz..][..k_sz * k_sz];
                let mut row = [A::default(); B];
                for &(t, sp) in taps.iter() {
                    let w = wrow[t] as i32;
                    let col = &cols[ch * plane + sp];
                    for (a, &p) in row.iter_mut().zip(col) {
                        *a = a.madd(w, p);
                    }
                }
                let o = (ch * oh + oy) * ow + ox;
                for (out, &a) in tile_outs.iter_mut().zip(&row) {
                    out[o] = w_out.emit(ch, a.widen());
                }
            }
        }
    }
}

/// Batched [`dense_acc`]: weight-stationary dense matmul over a batch,
/// bit-identical to solo. Full tiles load each of the `O · I` weights
/// once and apply it to the whole tile as one dense sweep over a
/// batch-minor feature column — the regime where a dense head's weight
/// traffic amortizes (same tiling, fast-path admission and exactness
/// argument as [`conv_direct_batch`]).
///
/// # Panics
///
/// Panics on any per-image size mismatch, exactly as the solo path does.
pub fn dense_acc_batch<S: AsRef<[i32]>>(
    batch: &[S],
    weights: &[i8],
    out_features: usize,
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    dense_acc_batch_core(batch, weights, out_features, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// A dense head whose weight matrix is at least this many entries (16 K
/// int8 weights = one typical L1's worth) routes batches through the
/// blocked kernel: smaller heads fit in cache anyway, so re-streaming
/// them per tile costs nothing and the plain tile kernel's simpler loop
/// wins.
const DENSE_BLOCK_MIN_WEIGHTS: usize = 16 * 1024;

/// Output-feature block height of the blocked dense kernel.
const DENSE_BLOCK_OUT: usize = 32;

/// Input-feature block depth of the blocked dense kernel:
/// `DENSE_BLOCK_OUT × DENSE_BLOCK_IN` int8 weights (8 KB) plus the
/// activation column block stay cache-resident while each weight is
/// applied to **every** lane of the batch.
const DENSE_BLOCK_IN: usize = 256;

/// The batched dense engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract). Large heads re-stream their weight matrix
/// once per [`NativeBackend::BATCH_TILE`]-wide tile in the plain tile
/// kernel — for a 2-tile-or-larger batch on a matrix past
/// [`DENSE_BLOCK_MIN_WEIGHTS`] the blocked kernel instead spans all full
/// tiles at once, loading each weight block **once per batch**.
pub(crate) fn dense_acc_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    weights: &[i8],
    out_features: usize,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    if batch.is_empty() {
        return;
    }
    let in_features = batch[0].as_ref().len();
    let full = batch.len() / B * B;
    if full >= 2 * B && in_features * out_features >= DENSE_BLOCK_MIN_WEIGHTS {
        for codes in batch {
            assert_eq!(codes.as_ref().len(), in_features, "activation size mismatch");
        }
        assert_eq!(weights.len(), in_features * out_features, "weight size mismatch");
        let lanes = &batch[..full];
        let mut columns = scratch.take_i32(in_features * full);
        fill_columns_dyn(lanes, &mut columns);
        let base = outs.len();
        for _ in 0..full {
            outs.push(scratch.take_i32(out_features));
        }
        if tile_fits_i32(lanes, in_features as i64) {
            dense_blocked::<i32>(
                &columns,
                weights,
                in_features,
                out_features,
                w_out,
                scratch,
                &mut outs[base..],
            );
        } else {
            dense_blocked::<i64>(
                &columns,
                weights,
                in_features,
                out_features,
                w_out,
                scratch,
                &mut outs[base..],
            );
        }
        scratch.put_i32(columns);
        for codes in &batch[full..] {
            let mut acc = dense_acc_scratch(codes.as_ref(), weights, out_features, scratch);
            w_out.finish_solo_in_place(&mut acc, 1);
            outs.push(acc);
        }
        return;
    }
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                let mut acc = dense_acc_scratch(codes.as_ref(), weights, out_features, scratch);
                w_out.finish_solo_in_place(&mut acc, 1);
                outs.push(acc);
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), in_features, "activation size mismatch");
        }
        assert_eq!(weights.len(), in_features * out_features, "weight size mismatch");
        let mut columns = scratch.take_i32(in_features * B);
        fill_columns::<_, B>(tile, &mut columns);
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(out_features));
        }
        if tile_fits_i32(tile, in_features as i64) {
            dense_tile::<i32, B>(
                &columns,
                weights,
                in_features,
                out_features,
                w_out,
                &mut outs[base..],
            );
        } else {
            dense_tile::<i64, B>(
                &columns,
                weights,
                in_features,
                out_features,
                w_out,
                &mut outs[base..],
            );
        }
        scratch.put_i32(columns);
    }
}

/// The dense tile kernel at compile-time batch width `B`.
fn dense_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    weights: &[i8],
    in_features: usize,
    out_features: usize,
    w_out: &impl WriteOut,
    tile_outs: &mut [Vec<i32>],
) {
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);
    for o in 0..out_features {
        let wrow = &weights[o * in_features..(o + 1) * in_features];
        let mut row = [A::default(); B];
        for (&w, col) in wrow.iter().zip(cols) {
            let w = w as i32;
            for (a, &p) in row.iter_mut().zip(col) {
                *a = a.madd(w, p);
            }
        }
        for (out, &a) in tile_outs.iter_mut().zip(&row) {
            out[o] = w_out.emit(o, a.widen());
        }
    }
}

/// The blocked dense kernel at run-time lane count: `columns` holds the
/// whole batch's activations batch-minor (`pos * lanes + b`), and the
/// `(out, in)` weight matrix is walked in `DENSE_BLOCK_OUT ×
/// DENSE_BLOCK_IN` blocks — each block's weights are loaded from memory
/// **once** and applied to every lane before moving on, instead of the
/// plain tile kernel's full-matrix re-stream per eight images. Per
/// `(output, lane)` pair the input features are still summed in
/// ascending order across blocks (the accumulator block persists over
/// `i`-blocks), so every output is bit-identical to the solo kernel's
/// sum.
fn dense_blocked<A: TileAcc>(
    columns: &[i32],
    weights: &[i8],
    in_features: usize,
    out_features: usize,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    lane_outs: &mut [Vec<i32>],
) {
    let lanes = lane_outs.len();
    debug_assert_eq!(columns.len(), in_features * lanes);
    let mut acc = A::take_buf(scratch, DENSE_BLOCK_OUT * lanes);
    for o_base in (0..out_features).step_by(DENSE_BLOCK_OUT) {
        let o_count = DENSE_BLOCK_OUT.min(out_features - o_base);
        acc[..o_count * lanes].fill(A::default());
        for i_base in (0..in_features).step_by(DENSE_BLOCK_IN) {
            let i_count = DENSE_BLOCK_IN.min(in_features - i_base);
            let col_block = &columns[i_base * lanes..(i_base + i_count) * lanes];
            for o_local in 0..o_count {
                let wrow = &weights[(o_base + o_local) * in_features + i_base..][..i_count];
                let arow = &mut acc[o_local * lanes..(o_local + 1) * lanes];
                for (&w, col) in wrow.iter().zip(col_block.chunks_exact(lanes)) {
                    let w = w as i32;
                    for (a, &p) in arow.iter_mut().zip(col) {
                        *a = a.madd(w, p);
                    }
                }
            }
        }
        for o_local in 0..o_count {
            let o = o_base + o_local;
            for (out, &a) in lane_outs.iter_mut().zip(&acc[o_local * lanes..]) {
                out[o] = w_out.emit(o, a.widen());
            }
        }
    }
    A::put_buf(scratch, acc);
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
    assert!(h >= size && w >= size, "pool window larger than input");
    let (oh, ow) = (h / size, w / size);
    let mut out = scratch.take_i32(ch * oh * ow);
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i32::MIN;
                for dy in 0..size {
                    for dx in 0..size {
                        best = best.max(codes[(c * h + oy * size + dy) * w + ox * size + dx]);
                    }
                }
                out[(c * oh + oy) * ow + ox] = best;
            }
        }
    }
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
    assert!(h >= size && w >= size, "pool window larger than input");
    let (oh, ow) = (h / size, w / size);
    let div = (size * size) as i32;
    let mut out = scratch.take_i32(ch * oh * ow);
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for dy in 0..size {
                    for dx in 0..size {
                        acc += codes[(c * h + oy * size + dy) * w + ox * size + dx];
                    }
                }
                out[(c * oh + oy) * ow + ox] = (acc + div / 2).div_euclid(div);
            }
        }
    }
    out
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

/// Batched [`maxpool`]: full tiles of [`NativeBackend::BATCH_TILE`] images
/// run the window loop once with the max taken across batch-minor lanes;
/// tail images fall back to the solo kernel. Bit-identical to mapping
/// [`maxpool`] over the batch.
///
/// # Panics
///
/// Panics if the window exceeds the input or an image's size does not
/// match `ch * h * w`.
pub fn maxpool_batch<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    maxpool_batch_core(batch, ch, h, w, size, &mut Scratch::new(), &mut outs);
    outs
}

/// The batched max-pool engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn maxpool_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    assert!(h >= size && w >= size, "pool window larger than input");
    const B: usize = NativeBackend::BATCH_TILE;
    let (oh, ow) = (h / size, w / size);
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                outs.push(maxpool_scratch(codes.as_ref(), ch, h, w, size, scratch));
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), ch * h * w, "activation size mismatch");
        }
        let mut columns = scratch.take_i32(ch * h * w * B);
        fill_columns::<_, B>(tile, &mut columns);
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(ch * oh * ow));
        }
        for c in 0..ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = [i32::MIN; B];
                    for dy in 0..size {
                        for dx in 0..size {
                            let col = &cols[(c * h + oy * size + dy) * w + ox * size + dx];
                            for (b, &p) in best.iter_mut().zip(col) {
                                *b = (*b).max(p);
                            }
                        }
                    }
                    let o = (c * oh + oy) * ow + ox;
                    for (out, &b) in outs[base..].iter_mut().zip(&best) {
                        out[o] = b;
                    }
                }
            }
        }
        scratch.put_i32(columns);
    }
}

/// Batched [`avgpool`]: lane-parallel window sums with the same rounded
/// integer division as the solo kernel. Bit-identical to mapping
/// [`avgpool`] over the batch.
///
/// # Panics
///
/// Panics if the window exceeds the input or an image's size does not
/// match `ch * h * w`.
pub fn avgpool_batch<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    avgpool_batch_core(batch, ch, h, w, size, &mut Scratch::new(), &mut outs);
    outs
}

/// The batched average-pool engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn avgpool_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    assert!(h >= size && w >= size, "pool window larger than input");
    const B: usize = NativeBackend::BATCH_TILE;
    let (oh, ow) = (h / size, w / size);
    let div = (size * size) as i32;
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                outs.push(avgpool_scratch(codes.as_ref(), ch, h, w, size, scratch));
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), ch * h * w, "activation size mismatch");
        }
        let mut columns = scratch.take_i32(ch * h * w * B);
        fill_columns::<_, B>(tile, &mut columns);
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(ch * oh * ow));
        }
        for c in 0..ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = [0i32; B];
                    for dy in 0..size {
                        for dx in 0..size {
                            let col = &cols[(c * h + oy * size + dy) * w + ox * size + dx];
                            for (a, &p) in acc.iter_mut().zip(col) {
                                *a += p;
                            }
                        }
                    }
                    let o = (c * oh + oy) * ow + ox;
                    for (out, &a) in outs[base..].iter_mut().zip(&acc) {
                        out[o] = (a + div / 2).div_euclid(div);
                    }
                }
            }
        }
        scratch.put_i32(columns);
    }
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

    #[test]
    fn batched_direct_conv_matches_solo_including_tail() {
        let shape =
            PooledConvShape { in_ch: 5, out_ch: 7, kernel: 3, stride: 2, pad: 1, in_h: 6, in_w: 5 };
        let mut s = 0xD1CE;
        let weights: Vec<i8> =
            (0..shape.out_ch * shape.in_ch * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        // A full tile plus a partial tail, to cover both code paths.
        let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE + 3)
            .map(|_| (0..5 * 6 * 5).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
        let batched = conv_direct_batch(&refs, &shape, &weights);
        assert_eq!(batched.len(), images.len());
        for (img, out) in images.iter().zip(&batched) {
            assert_eq!(&conv_direct(img, &shape, &weights), out);
        }
    }

    #[test]
    fn batched_dwconv_matches_solo() {
        let shape =
            PooledConvShape { in_ch: 6, out_ch: 6, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 7 };
        let mut s = 0xD3;
        let weights: Vec<i8> = (0..6 * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2 + 1)
            .map(|_| (0..6 * 4 * 7).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
        for (img, out) in images.iter().zip(&dwconv_acc_batch(&refs, &shape, &weights)) {
            assert_eq!(&dwconv_acc(img, &shape, &weights), out);
        }
    }

    #[test]
    fn batched_dense_matches_solo_on_both_accumulator_paths() {
        let mut s = 0x5EED;
        let (in_features, out_features) = (37usize, 11usize);
        let weights: Vec<i8> =
            (0..in_features * out_features).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();

        // Small codes: the proven-overflow-free i32 fast path.
        let small: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        // Huge codes (dense accepts arbitrary i32 activations): forces the
        // widened i64 path; mixed signs keep the final sums inside i32.
        let huge: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 400_001) - 200_000).collect())
            .collect();
        for images in [small, huge] {
            let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
            let batched = dense_acc_batch(&refs, &weights, out_features);
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&dense_acc(img, &weights, out_features), out);
            }
        }
    }

    #[test]
    fn blocked_dense_matches_solo_on_large_heads() {
        // in * out = 160 * 128 = 20480 >= DENSE_BLOCK_MIN_WEIGHTS and the
        // batch spans two full tiles plus a tail, so this exercises the
        // blocked kernel (with non-multiple block edges: 128 % 32 == 0 but
        // 160 % 256 != 0 covers the ragged i-block) and the solo tail.
        let mut s = 0xB10C;
        let (in_features, out_features) = (160usize, 128usize);
        assert!(in_features * out_features >= DENSE_BLOCK_MIN_WEIGHTS);
        let weights: Vec<i8> =
            (0..in_features * out_features).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let small: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2 + 3)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        // Huge codes force the i64 accumulator instantiation.
        let huge: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 400_001) - 200_000).collect())
            .collect();
        for images in [small, huge] {
            let batched = dense_acc_batch(&images, &weights, out_features);
            assert_eq!(batched.len(), images.len());
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&dense_acc(img, &weights, out_features), out);
            }
        }
    }

    #[test]
    fn popcount_limit_builder_overrides_resolved_default() {
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 4, ActEncoding::Unsigned);
        assert_eq!(backend.clone().with_popcount_limit(0).popcount_max_bits(), 0);
        assert_eq!(backend.with_popcount_limit(8).popcount_max_bits(), 8);
    }

    #[test]
    fn batched_kernels_handle_empty_batch() {
        let shape =
            PooledConvShape { in_ch: 2, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        assert!(conv_direct_batch::<&[i32]>(&[], &shape, &[1, 2, 3, 4]).is_empty());
        assert!(dwconv_acc_batch::<&[i32]>(&[], &shape, &[3, 4]).is_empty());
        assert!(dense_acc_batch::<&[i32]>(&[], &[1, -1], 2).is_empty());
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
