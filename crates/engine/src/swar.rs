//! Bit-plane tile kernels: int8×intM dot products as `u64` popcounts.
//!
//! The direct-conv and dense kernels multiply int8 weights by small
//! integer activation codes. Decompose both sides into bit planes and
//! the whole dot product collapses into AND+popcount over packed `u64`
//! lanes — 64 multiply-accumulates per word-op pair:
//!
//! Shift every weight by +128 so it is a *positive* 8-bit value
//! `w' = w + 128`, and every activation by its (data-derived) minimum
//! `lo` so `d = a - lo >= 0`. Then with `W'ₖ` the k-th weight bit plane
//! and `Dⱼ` the j-th activation bit plane of one weight row / activation
//! vector pair,
//!
//! ```text
//! Σᵢ wᵢ·aᵢ = Σₖ Σⱼ 2^(k+j) · popcount(W'ₖ & Dⱼ)
//!          + lo·Σᵢw'ᵢ − 128·Σᵢdᵢ − 128·lo·n
//! ```
//!
//! an **exact integer identity** — no approximation anywhere, so the
//! result is bit-for-bit the scalar kernel's accumulator (pinned by the
//! differential tests below and in `tests/backend_parity.rs`). The row
//! sums `Σw'` are precomputed at pack time; `Σd` costs one popcount
//! sweep per activation vector.
//!
//! The weight side always has 8 planes; the activation side has
//! `bits(max − lo)` planes, so the popcount work scales with the
//! *activation* bitwidth — the same bit-serial scaling the paper's MCU
//! kernels get, which is why the kernels engage this path at low
//! `act_bits` and fall back to the scalar MAC loops at high widths
//! (where a multiplier beats 8×8 plane passes).
//!
//! `and_popcount` is the only inner loop: portable SWAR `count_ones`
//! (which lowers to `POPCNT` where the target has it). Only the swar tier
//! routes here: the avx2 tier multiplies its int8 layers with `vpmaddwd`
//! instead ([`crate::backend::MacRoute::Madd`]), which beats AND+popcount
//! at every activation bitwidth because the weights stay 8 bits wide.

use crate::backend::{RawOut, WriteOut};
use crate::scratch::Scratch;
use wp_core::reference::PooledConvShape;
use wp_tensor::Conv2dGeometry;

/// Int8 weights packed into 8 bit planes per row, `u64`-lane major,
/// plus the per-row sums the offset correction needs. Built once at
/// plan-compile time (weights are static).
#[derive(Debug, Clone)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// `u64` words per plane: `ceil(cols / 64)`.
    words: usize,
    /// Plane `k` of row `r` occupies `words` words at
    /// `(r * 8 + k) * words`.
    planes: Vec<u64>,
    /// `Σᵢ (wᵢ + 128)` per row.
    row_sums: Vec<i64>,
}

impl PackedWeights {
    /// Packs a `[rows, cols]` int8 weight matrix (row-major, the same
    /// layout the scalar kernels read).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols`.
    pub fn pack(weights: &[i8], rows: usize, cols: usize) -> Self {
        assert_eq!(weights.len(), rows * cols, "weight size mismatch");
        let words = cols.div_ceil(64).max(1);
        let mut planes = vec![0u64; rows * 8 * words];
        let mut row_sums = vec![0i64; rows];
        for r in 0..rows {
            let row_planes = &mut planes[r * 8 * words..(r + 1) * 8 * words];
            for (i, &w) in weights[r * cols..(r + 1) * cols].iter().enumerate() {
                let shifted = (w as i32 + 128) as u64; // 1..=255
                row_sums[r] += shifted as i64;
                let (word, bit) = (i / 64, i % 64);
                for k in 0..8 {
                    if (shifted >> k) & 1 == 1 {
                        row_planes[k * words + word] |= 1u64 << bit;
                    }
                }
            }
        }
        Self { rows, cols, words, planes, row_sums }
    }

    /// Row count (output features / filters).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count (reduction length).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// One activation vector decomposed into bit planes over its own value
/// range. Reusable across repacks (the per-pixel im2col loop repacks
/// into the same allocation).
#[derive(Debug, Clone, Default)]
pub struct BitPlanes {
    words: usize,
    plane_count: usize,
    /// Plane `j` occupies `words` words at `j * words`.
    planes: Vec<u64>,
    /// Offset subtracted from every value: `min(0, min(vals))`, so the
    /// shifted values are non-negative and an all-zero (padding) slot
    /// shifts to exactly `-lo`.
    lo: i64,
    /// `Σᵢ (vᵢ - lo)`.
    sum_shifted: i64,
    len: usize,
}

impl BitPlanes {
    /// An empty pack (repack with [`BitPlanes::pack`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decomposes `vals` into bit planes, reusing this pack's storage.
    /// The plane count is derived from the values' actual span, so any
    /// `i32` input is represented exactly (at most 32 planes).
    pub fn pack(&mut self, vals: &[i32]) {
        let lo = vals.iter().copied().min().unwrap_or(0).min(0) as i64;
        let hi = vals.iter().copied().max().unwrap_or(0).max(0) as i64;
        let span = (hi - lo) as u64;
        let plane_count = (64 - span.leading_zeros()) as usize;
        let words = vals.len().div_ceil(64).max(1);
        self.words = words;
        self.plane_count = plane_count;
        self.lo = lo;
        self.len = vals.len();
        self.planes.clear();
        self.planes.resize(plane_count * words, 0);
        let mut sum = 0i64;
        for (i, &v) in vals.iter().enumerate() {
            let d = (v as i64 - lo) as u64;
            sum += d as i64;
            let (word, bit) = (i / 64, i % 64);
            for (j, plane) in self.planes.chunks_mut(words).enumerate() {
                if (d >> j) & 1 == 1 {
                    plane[word] |= 1u64 << bit;
                }
            }
        }
        self.sum_shifted = sum;
    }

    /// Activation bit planes in use (`bits(max - lo)`).
    pub fn plane_count(&self) -> usize {
        self.plane_count
    }
}

/// How many images a batched bit-plane tile packs together — one `u64`
/// lane slot per image, so a weight word is loaded once and
/// AND+popcounted against all eight lanes. Matches the tile width of the
/// int8 batch kernels ([`crate::NativeBackend::BATCH_TILE`]) so the two
/// paths tile a batch identically.
pub const LANES: usize = 8;

/// A full tile of [`LANES`] activation vectors decomposed into bit
/// planes, stored **batch-minor**: plane `j`, word `w` holds the eight
/// images' words adjacent at `(j * words + w) * LANES`, so one weight
/// word ANDs against all lanes with consecutive loads. Each lane keeps
/// its own offset/sum correction terms — the identity is applied per
/// lane, so every lane's dot product is exactly its solo value.
#[derive(Debug, Clone, Default)]
pub struct BatchBitPlanes {
    words: usize,
    /// Shared plane count: `max` over lanes of `bits(max - lo)` (a lane
    /// narrower than the tile just has zero high planes, contributing
    /// nothing — exactness is per lane).
    plane_count: usize,
    planes: Vec<u64>,
    lo: [i64; LANES],
    sum_shifted: [i64; LANES],
    len: usize,
}

impl BatchBitPlanes {
    /// An empty pack (repack with [`BatchBitPlanes::pack`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decomposes a tile of exactly [`LANES`] equal-length vectors into
    /// batch-minor bit planes, reusing this pack's storage. Per lane the
    /// decomposition (offset, shifted sum, plane bits) is identical to
    /// [`BitPlanes::pack`] on that lane alone.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` holds exactly [`LANES`] vectors of one
    /// common length.
    pub fn pack<S: AsRef<[i32]>>(&mut self, lanes: &[S]) {
        assert_eq!(lanes.len(), LANES, "batch bit-plane tile must be {LANES} wide");
        let len = lanes[0].as_ref().len();
        let mut plane_count = 0usize;
        for (b, lane) in lanes.iter().enumerate() {
            let vals = lane.as_ref();
            assert_eq!(vals.len(), len, "tile lanes must have one common length");
            let lo = vals.iter().copied().min().unwrap_or(0).min(0) as i64;
            let hi = vals.iter().copied().max().unwrap_or(0).max(0) as i64;
            let span = (hi - lo) as u64;
            plane_count = plane_count.max((64 - span.leading_zeros()) as usize);
            self.lo[b] = lo;
        }
        let words = len.div_ceil(64).max(1);
        self.words = words;
        self.plane_count = plane_count;
        self.len = len;
        self.planes.clear();
        self.planes.resize(plane_count * words * LANES, 0);
        for (b, lane) in lanes.iter().enumerate() {
            let lo = self.lo[b];
            let mut sum = 0i64;
            for (i, &v) in lane.as_ref().iter().enumerate() {
                let mut d = (v as i64 - lo) as u64;
                sum += d as i64;
                let (word, bit) = (i / 64, i % 64);
                let mut j = 0usize;
                while d != 0 {
                    if d & 1 == 1 {
                        self.planes[(j * words + word) * LANES + b] |= 1u64 << bit;
                    }
                    d >>= 1;
                    j += 1;
                }
            }
            self.sum_shifted[b] = sum;
        }
    }

    /// Activation bit planes in use (the widest lane's).
    pub fn plane_count(&self) -> usize {
        self.plane_count
    }
}

/// `popcount(Σ a & b)` over two equal-length word runs — the single
/// inner loop of every bit-plane kernel (`u64::count_ones` lowers to the
/// Hacker's Delight bit-parallel count or a POPCNT instruction, whichever
/// the target has).
#[inline]
fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as u64).sum()
}

/// The exact dot product of packed weight row `r` with a packed
/// activation vector (see the module docs for the identity).
///
/// # Panics
///
/// Panics (in debug) if the pack lengths disagree.
fn dot(w: &PackedWeights, r: usize, a: &BitPlanes) -> i64 {
    debug_assert_eq!(w.cols, a.len, "reduction length mismatch");
    debug_assert_eq!(w.words, a.words);
    let words = w.words;
    let row_planes = &w.planes[r * 8 * words..(r + 1) * 8 * words];
    let mut weighted = 0i64;
    for k in 0..8 {
        let wrow = &row_planes[k * words..(k + 1) * words];
        for j in 0..a.plane_count {
            let arow = &a.planes[j * words..(j + 1) * words];
            let c = and_popcount(wrow, arow);
            weighted += (c as i64) << (k + j);
        }
    }
    weighted + a.lo * w.row_sums[r] - 128 * a.sum_shifted - 128 * a.lo * (w.cols as i64)
}

/// Eight-lane `popcount(a & b)`: ANDs one weight word run against a
/// batch-minor run of [`LANES`] activation lanes and accumulates each
/// lane's count separately.
#[inline]
fn and_popcount8(wrow: &[u64], arows: &[u64], counts: &mut [u64; LANES]) {
    debug_assert_eq!(arows.len(), wrow.len() * LANES);
    counts.fill(0);
    for (&w, lanes) in wrow.iter().zip(arows.chunks_exact(LANES)) {
        for (c, &a) in counts.iter_mut().zip(lanes) {
            *c += (w & a).count_ones() as u64;
        }
    }
}

/// The exact dot products of packed weight row `r` with all [`LANES`]
/// lanes of a batched activation pack — per lane, bit-identical to
/// [`dot`] on that lane alone (same popcount identity, per-lane
/// correction terms).
fn dot8(w: &PackedWeights, r: usize, a: &BatchBitPlanes, out: &mut [i64; LANES]) {
    debug_assert_eq!(w.cols, a.len, "reduction length mismatch");
    debug_assert_eq!(w.words, a.words);
    let words = w.words;
    let row_planes = &w.planes[r * 8 * words..(r + 1) * 8 * words];
    let mut weighted = [0i64; LANES];
    let mut counts = [0u64; LANES];
    for k in 0..8 {
        let wrow = &row_planes[k * words..(k + 1) * words];
        for j in 0..a.plane_count {
            let arows = &a.planes[j * words * LANES..(j + 1) * words * LANES];
            and_popcount8(wrow, arows, &mut counts);
            for (wt, &c) in weighted.iter_mut().zip(&counts) {
                *wt += (c as i64) << (k + j);
            }
        }
    }
    for (b, slot) in out.iter_mut().enumerate() {
        *slot = weighted[b] + a.lo[b] * w.row_sums[r]
            - 128 * a.sum_shifted[b]
            - 128 * a.lo[b] * (w.cols as i64);
    }
}

/// Bit-plane dense accumulators: bit-identical to
/// [`crate::backend::dense_acc`] with the weights `packed` was built
/// from (same values, same `i32` narrowing check).
///
/// # Panics
///
/// Panics if `codes.len() != packed.cols()`, or on `i32` accumulator
/// overflow exactly where the scalar kernel would.
pub fn dense_acc(codes: &[i32], packed: &PackedWeights) -> Vec<i32> {
    dense_acc_scratch(codes, packed, &mut Scratch::new())
}

/// [`dense_acc`] drawing its working set (bit-plane pack, output buffer)
/// from a scratch arena — the allocation-free form the kernels call. The
/// returned buffer comes from the arena; callers on the hot path return
/// it with [`Scratch::put_i32`] when done.
pub(crate) fn dense_acc_scratch(
    codes: &[i32],
    packed: &PackedWeights,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(codes.len(), packed.cols, "weight size mismatch");
    let mut a = scratch.take_bitplanes();
    a.pack(codes);
    let mut out = scratch.take_i32(packed.rows);
    for (r, slot) in out.iter_mut().enumerate() {
        *slot = i32::try_from(dot(packed, r, &a)).expect("accumulator overflow");
    }
    scratch.put_bitplanes(a);
    out
}

/// Bit-plane direct convolution: per output pixel, gather the receptive
/// field im2col-style — **padding taps as literal zero activations**,
/// which contribute exactly nothing to the sum, the same as the scalar
/// kernel skipping them — then run every filter as a packed dot
/// product. `packed` must hold the `[K, C·R·S]` filter matrix in the
/// scalar `[K, C, R, S]` weight order.
///
/// Bit-identical to [`crate::backend::conv_direct`] on the same weights
/// (pinned by test), including the per-pixel `i32` narrowing panic.
///
/// # Panics
///
/// Panics on shape mismatches or `i32` accumulator overflow.
pub fn conv_direct(codes: &[i32], shape: &PooledConvShape, packed: &PackedWeights) -> Vec<i32> {
    conv_direct_scratch(codes, shape, packed, &mut Scratch::new())
}

/// Copies one output pixel's receptive field into `gather` in the
/// `[C, R, S]` im2col order the packed filter matrix expects, with
/// padding taps as literal zeros.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gather_window(
    codes: &[i32],
    in_ch: usize,
    in_h: usize,
    in_w: usize,
    k_sz: usize,
    geo: &Conv2dGeometry,
    oy: usize,
    ox: usize,
    gather: &mut [i32],
) {
    for ky in 0..k_sz {
        let iy = geo.input_row(oy, ky);
        for kx in 0..k_sz {
            let src = iy.and_then(|iy| geo.input_col(ox, kx).map(|ix| iy * in_w + ix));
            for c in 0..in_ch {
                gather[(c * k_sz + ky) * k_sz + kx] = match src {
                    Some(sp) => codes[c * in_h * in_w + sp],
                    None => 0,
                };
            }
        }
    }
}

/// [`conv_direct`] drawing its working set (gather window, bit-plane
/// pack, output buffer) from a scratch arena — the allocation-free form
/// the kernels call. The returned buffer comes from the arena.
pub(crate) fn conv_direct_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    packed: &PackedWeights,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let (in_ch, in_h, in_w) = (shape.in_ch, shape.in_h, shape.in_w);
    let k_sz = shape.kernel;
    assert_eq!(codes.len(), in_ch * in_h * in_w, "activation size mismatch");
    assert_eq!(packed.rows, shape.out_ch, "filter count mismatch");
    assert_eq!(packed.cols, in_ch * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());

    let mut gather = scratch.take_i32(packed.cols);
    let mut a = scratch.take_bitplanes();
    let mut out = scratch.take_i32(shape.out_ch * oh * ow);
    for oy in 0..oh {
        for ox in 0..ow {
            gather_window(codes, in_ch, in_h, in_w, k_sz, &geo, oy, ox, &mut gather);
            a.pack(&gather);
            for k in 0..shape.out_ch {
                out[(k * oh + oy) * ow + ox] =
                    i32::try_from(dot(packed, k, &a)).expect("accumulator overflow");
            }
        }
    }
    scratch.put_i32(gather);
    scratch.put_bitplanes(a);
    out
}

/// Batched bit-plane dense: each full tile of [`LANES`] images is packed
/// batch-minor so every weight row streams through memory **once per
/// eight images**; the tail (batch not a multiple of eight) runs the
/// solo kernel, which is bit-identical by the per-lane exactness of
/// [`BatchBitPlanes`]. Outputs (one finished plane per image, written
/// through `w_out`) are appended to `outs` from arena buffers.
pub(crate) fn dense_acc_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    packed: &PackedWeights,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    let full = batch.len() / LANES * LANES;
    let mut a = scratch.take_batch_bitplanes();
    let mut dots = [0i64; LANES];
    for tile in batch[..full].chunks_exact(LANES) {
        a.pack(tile);
        let base = outs.len();
        for _ in 0..LANES {
            outs.push(scratch.take_i32(packed.rows));
        }
        #[allow(clippy::needless_range_loop)] // `r` indexes eight outs, not one slice
        for r in 0..packed.rows {
            dot8(packed, r, &a, &mut dots);
            for b in 0..LANES {
                outs[base + b][r] = w_out.emit(r, dots[b]);
            }
        }
    }
    scratch.put_batch_bitplanes(a);
    for codes in &batch[full..] {
        let mut acc = dense_acc_scratch(codes.as_ref(), packed, scratch);
        w_out.finish_solo_in_place(&mut acc, 1);
        outs.push(acc);
    }
}

/// Batched bit-plane direct conv: per output pixel, all [`LANES`]
/// images' receptive fields are gathered and packed together, so every
/// filter's weight planes are loaded once and AND+popcounted against
/// eight images. Tail images run the solo kernel. See
/// [`dense_acc_batch_core`] for the output contract.
pub(crate) fn conv_direct_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    packed: &PackedWeights,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    let (in_ch, in_h, in_w) = (shape.in_ch, shape.in_h, shape.in_w);
    let k_sz = shape.kernel;
    assert_eq!(packed.rows, shape.out_ch, "filter count mismatch");
    assert_eq!(packed.cols, in_ch * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let out_plane = oh * ow;

    let full = batch.len() / LANES * LANES;
    let mut a = scratch.take_batch_bitplanes();
    let mut gathers = scratch.take_planes(LANES);
    for _ in 0..LANES {
        gathers.push(scratch.take_i32(packed.cols));
    }
    let mut dots = [0i64; LANES];
    for tile in batch[..full].chunks_exact(LANES) {
        let base = outs.len();
        for codes in tile {
            assert_eq!(codes.as_ref().len(), in_ch * in_h * in_w, "activation size mismatch");
            outs.push(scratch.take_i32(shape.out_ch * out_plane));
        }
        for oy in 0..oh {
            for ox in 0..ow {
                for (codes, gather) in tile.iter().zip(gathers.iter_mut()) {
                    gather_window(codes.as_ref(), in_ch, in_h, in_w, k_sz, &geo, oy, ox, gather);
                }
                a.pack(&gathers);
                for k in 0..shape.out_ch {
                    dot8(packed, k, &a, &mut dots);
                    for b in 0..LANES {
                        outs[base + b][(k * oh + oy) * ow + ox] = w_out.emit(k, dots[b]);
                    }
                }
            }
        }
    }
    scratch.put_planes(gathers);
    scratch.put_batch_bitplanes(a);
    for codes in &batch[full..] {
        let mut acc = conv_direct_scratch(codes.as_ref(), shape, packed, scratch);
        w_out.finish_solo_in_place(&mut acc, out_plane);
        outs.push(acc);
    }
}

/// Raw-accumulator batched dense over a whole batch (any size;
/// non-multiple-of-[`LANES`] tails run solo). Bit-identical per image to
/// [`dense_acc`] — the differential-test surface for the batched path.
pub fn dense_acc_batch<S: AsRef<[i32]>>(batch: &[S], packed: &PackedWeights) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    dense_acc_batch_core(batch, packed, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// Raw-accumulator batched direct conv (see [`dense_acc_batch`]).
/// Bit-identical per image to [`conv_direct`].
pub fn conv_direct_batch<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    packed: &PackedWeights,
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    conv_direct_batch_core(batch, shape, packed, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// Largest activation bitwidth at which the swar tier routes solo
/// direct/dense work through the bit-plane path: the popcount work is
/// `8 × plane_count` word-ops per 64 lanes, so at 4 bits and below it
/// beats the scalar MAC loop; above, the multiplier wins and the
/// kernels use the scalar path (still bit-identical — the tiers differ
/// only in speed).
pub const POPCOUNT_MAX_BITS: u8 = 4;

/// Largest activation bitwidth at which the swar tier routes **batched**
/// direct/dense work through the bit-plane path. Batched execution
/// competes with the int8 tile kernels (already weight-stationary and
/// batch-minor), a much stronger baseline than the solo scalar loop:
/// measured on the stem-heavy demo regime (`engine_throughput` section
/// 5, one thread), the batched popcount tiles ran 2.04x / 1.27x / 0.88x /
/// 0.65x the int8 tiles at 1–4 bits with batch 64, and 2.10x / 1.25x /
/// 0.83x / 0.64x with batch 16, so batches route here up to 2 bits only.
/// Always further capped by the backend's (possibly
/// `WP_POPCOUNT_MAX_BITS`-overridden) threshold, which also turns the
/// path off entirely when set to 0.
pub const POPCOUNT_BATCH_MAX_BITS: u8 = 2;

/// Environment variable overriding the popcount routing threshold
/// (mirrors `WP_BACKEND`): `0` disables the bit-plane path entirely,
/// `1..=8` routes act_bits up to that value through it.
pub const POPCOUNT_MAX_BITS_ENV: &str = "WP_POPCOUNT_MAX_BITS";

/// Resolves the popcount routing threshold: an explicit engine-option
/// value wins, else `WP_POPCOUNT_MAX_BITS` from the environment, else
/// the built-in [`POPCOUNT_MAX_BITS`]. Unparseable or out-of-range
/// (`> 8`) env values fall back to the default rather than panicking —
/// an env override must never take down a server.
///
/// # Panics
///
/// Panics if an **explicit** value is out of range (`> 8`) — that is a
/// configuration bug, not an environment typo.
pub fn resolve_popcount_max_bits(explicit: Option<u8>) -> u8 {
    if let Some(bits) = explicit {
        assert!(bits <= 8, "popcount bit threshold must be 0..=8, got {bits}");
        return bits;
    }
    match std::env::var(POPCOUNT_MAX_BITS_ENV) {
        Ok(s) => match s.trim().parse::<u8>() {
            Ok(bits) if bits <= 8 => bits,
            _ => POPCOUNT_MAX_BITS,
        },
        Err(_) => POPCOUNT_MAX_BITS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend;

    /// Deterministic LCG, same constants as the backend's test fuzzer.
    fn lcg(state: &mut u64, m: i32) -> i32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as i32).rem_euclid(m)
    }

    #[test]
    fn dense_matches_scalar_across_bitwidths() {
        let mut s = 0xB17;
        let (rows, cols) = (13usize, 100usize);
        let weights: Vec<i8> = (0..rows * cols).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, rows, cols);
        for bits in 1..=8u32 {
            let hi = (1i32 << bits) - 1;
            // Unsigned-style codes and signed-style codes both pack
            // exactly (lo is derived from the data).
            let unsigned: Vec<i32> = (0..cols).map(|_| lcg(&mut s, hi + 1)).collect();
            let signed: Vec<i32> = (0..cols).map(|_| lcg(&mut s, hi + 1) - (hi + 1) / 2).collect();
            for codes in [unsigned, signed] {
                let expect = backend::dense_acc(&codes, &weights, rows);
                assert_eq!(dense_acc(&codes, &packed), expect, "bits={bits}");
            }
        }
    }

    #[test]
    fn dense_matches_scalar_on_huge_codes() {
        // Dense inputs are arbitrary i32 (e.g. after global pooling of a
        // wide range); the pack derives its plane count from the data, so
        // even ±200k values are exact.
        let mut s = 0x806E;
        let (rows, cols) = (5usize, 70usize);
        let weights: Vec<i8> = (0..rows * cols).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, rows, cols);
        let codes: Vec<i32> = (0..cols).map(|_| lcg(&mut s, 400_001) - 200_000).collect();
        let expect = backend::dense_acc(&codes, &weights, rows);
        assert_eq!(dense_acc(&codes, &packed), expect);
    }

    #[test]
    fn direct_conv_matches_scalar_with_padding_and_stride() {
        let mut s = 0xC04Fu64;
        for (stride, pad, in_h, in_w) in [(1, 1, 6, 5), (2, 0, 7, 7), (2, 1, 5, 9)] {
            let shape = PooledConvShape { in_ch: 5, out_ch: 7, kernel: 3, stride, pad, in_h, in_w };
            let weights: Vec<i8> = (0..shape.out_ch * shape.in_ch * 9)
                .map(|_| (lcg(&mut s, 255) - 127) as i8)
                .collect();
            let packed = PackedWeights::pack(&weights, shape.out_ch, shape.in_ch * 9);
            for bits in [1u32, 3, 8] {
                let hi = (1i32 << bits) - 1;
                let codes: Vec<i32> =
                    (0..shape.in_ch * in_h * in_w).map(|_| lcg(&mut s, hi + 1)).collect();
                let expect = backend::conv_direct(&codes, &shape, &weights);
                assert_eq!(
                    conv_direct(&codes, &shape, &packed),
                    expect,
                    "stride={stride} pad={pad} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn direct_conv_matches_scalar_on_signed_codes() {
        let shape =
            PooledConvShape { in_ch: 3, out_ch: 4, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 4 };
        let mut s = 0x51;
        let weights: Vec<i8> = (0..4 * 3 * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, 4, 3 * 9);
        // Signed codes make the padding slots (exact zero) sit strictly
        // inside the data range — the case the `lo` offset handles.
        let codes: Vec<i32> = (0..3 * 4 * 4).map(|_| lcg(&mut s, 256) - 128).collect();
        let expect = backend::conv_direct(&codes, &shape, &weights);
        assert_eq!(conv_direct(&codes, &shape, &packed), expect);
    }

    #[test]
    fn all_zero_and_all_negative_activations_pack_exactly() {
        let weights: Vec<i8> = vec![-128, -1, 0, 1, 127, 64, -64, 3];
        let packed = PackedWeights::pack(&weights, 1, 8);
        for codes in [vec![0i32; 8], vec![-5i32; 8], vec![-3, -3, -3, -1, -1, -1, -2, -2]] {
            let expect = backend::dense_acc(&codes, &weights, 1);
            assert_eq!(dense_acc(&codes, &packed), expect, "codes={codes:?}");
        }
    }

    #[test]
    fn batch_pack_lanes_match_solo_packs() {
        let mut s = 0xBA7C4;
        let len = 77usize;
        let lanes: Vec<Vec<i32>> = (0..LANES)
            .map(|b| (0..len).map(|_| lcg(&mut s, 37) - (b as i32 * 3)).collect())
            .collect();
        let mut batch = BatchBitPlanes::new();
        batch.pack(&lanes);
        for (b, lane) in lanes.iter().enumerate() {
            let mut solo = BitPlanes::new();
            solo.pack(lane);
            assert_eq!(batch.lo[b], solo.lo, "lane {b} lo");
            assert_eq!(batch.sum_shifted[b], solo.sum_shifted, "lane {b} sum");
            assert!(batch.plane_count >= solo.plane_count);
            // Every solo plane bit appears at the batch-minor slot; batch
            // planes above the solo count are zero for this lane.
            for j in 0..batch.plane_count {
                for w in 0..batch.words {
                    let got = batch.planes[(j * batch.words + w) * LANES + b];
                    let expect =
                        if j < solo.plane_count { solo.planes[j * solo.words + w] } else { 0 };
                    assert_eq!(got, expect, "lane {b} plane {j} word {w}");
                }
            }
        }
    }

    #[test]
    fn batched_dense_matches_solo_across_batch_sizes() {
        let mut s = 0xD075u64;
        let (rows, cols) = (9usize, 130usize);
        let weights: Vec<i8> = (0..rows * cols).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, rows, cols);
        for batch_n in [1usize, 2, 7, 8, 9, 16, 17] {
            for bits in [1u32, 2, 4] {
                let hi = (1i32 << bits) - 1;
                let batch: Vec<Vec<i32>> = (0..batch_n)
                    .map(|_| (0..cols).map(|_| lcg(&mut s, hi + 1) - (hi + 1) / 2).collect())
                    .collect();
                let got = dense_acc_batch(&batch, &packed);
                assert_eq!(got.len(), batch_n);
                for (i, codes) in batch.iter().enumerate() {
                    assert_eq!(
                        got[i],
                        dense_acc(codes, &packed),
                        "n={batch_n} bits={bits} image {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_conv_matches_solo_with_padding_and_stride() {
        let mut s = 0xC0B47u64;
        for (stride, pad) in [(1usize, 1usize), (2, 0)] {
            let shape =
                PooledConvShape { in_ch: 3, out_ch: 5, kernel: 3, stride, pad, in_h: 6, in_w: 5 };
            for batch_n in [2usize, 8, 11] {
                let hi = 3i32;
                let batch: Vec<Vec<i32>> = (0..batch_n)
                    .map(|_| {
                        (0..shape.in_ch * shape.in_h * shape.in_w)
                            .map(|_| lcg(&mut s, hi + 1))
                            .collect()
                    })
                    .collect();
                let weights: Vec<i8> = (0..shape.out_ch * shape.in_ch * 9)
                    .map(|_| (lcg(&mut s, 255) - 127) as i8)
                    .collect();
                let packed = PackedWeights::pack(&weights, shape.out_ch, shape.in_ch * 9);
                let got = conv_direct_batch(&batch, &shape, &packed);
                for (i, codes) in batch.iter().enumerate() {
                    assert_eq!(
                        got[i],
                        conv_direct(codes, &shape, &packed),
                        "stride={stride} pad={pad} n={batch_n} image {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_threshold_wins_and_rejects_out_of_range() {
        assert_eq!(resolve_popcount_max_bits(Some(0)), 0);
        assert_eq!(resolve_popcount_max_bits(Some(7)), 7);
        let err = std::panic::catch_unwind(|| resolve_popcount_max_bits(Some(9)));
        assert!(err.is_err(), "explicit out-of-range threshold must panic");
    }

    #[test]
    fn env_threshold_overrides_and_bad_values_fall_back() {
        // Sequential set/remove on one thread; the routing threshold only
        // affects which (bit-identical) path runs, so concurrent tests
        // observing a transient override still pass.
        for (raw, expect) in [
            ("2", 2u8),
            ("0", 0),
            (" 3 ", 3),
            ("9", POPCOUNT_MAX_BITS),
            ("banana", POPCOUNT_MAX_BITS),
        ] {
            std::env::set_var(POPCOUNT_MAX_BITS_ENV, raw);
            assert_eq!(resolve_popcount_max_bits(None), expect, "raw={raw:?}");
        }
        std::env::remove_var(POPCOUNT_MAX_BITS_ENV);
        assert_eq!(resolve_popcount_max_bits(None), POPCOUNT_MAX_BITS);
    }
}
