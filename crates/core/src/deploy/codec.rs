//! Bundle serialization: JSON and the entropy-coded binary **WPB** format.
//!
//! A [`DeployBundle`]'s dominant storage term is its pool-index streams
//! (SWIS and CIMPool make the same observation), and
//! [`DeployBundle::index_entropy_bits`] measures how far the fixed-width
//! encoding sits above the empirical entropy. WPB closes that gap: each
//! pooled layer's index stream is tabled-rANS coded under the layer's own
//! histogram, or stored raw at fixed width when that is no larger (see
//! [`IndexCoding`]); the LUT is bit-packed at its entry width, and pool
//! vectors and direct weights are stored as raw little-endian bytes.
//!
//! [`DeployBundle`]'s `save`, `load`, `to_bytes`, `from_bytes`,
//! `from_reader` and `from_reader_with_stats` are the entry points; this
//! module holds the encoders and decoders they dispatch to.
//!
//! # WPB layout
//!
//! ```text
//! "WPB1"  magic (4 bytes)
//! u8      version (always 2)
//! u8      act_bits
//! u32le   CRC-32 of the six header bytes above
//! then sections, each:
//!   u8      tag        1=spec  2=pool  3=lut  4=convs
//!   varint  payload length (LEB128)
//!   [...]   payload
//!   u32le   CRC-32 (IEEE) of the payload
//! ```
//!
//! Unknown section tags are skipped (forward compatibility); a missing or
//! duplicated known section, a failed checksum, or a truncated stream all
//! fail loudly with a typed [`CodecError`]. Multi-byte integers are
//! little-endian; bitstreams fill bytes LSB-first.
//!
//! Decoding is **streaming and section-oriented**: the one WPB decoder
//! pulls sections from any [`std::io::Read`] through a
//! [`super::stream::SectionReader`], verifying each CRC and decoding into
//! destinations preallocated from validated counts — peak transient memory
//! is bounded by the largest section, never the whole file.
//! [`DeployBundle::from_bytes`] runs the same decoder over the slice, so
//! the buffer and stream paths cannot drift apart.
//!
//! Section payloads:
//!
//! * **spec** — the [`NetSpec`] as JSON bytes (shapes are tiny; keeping
//!   them readable costs nothing next to the index streams).
//! * **pool** — `varint S`, `varint G`, then `S·G` f32 bit patterns.
//! * **lut** — `varint G`, `varint S`, `u8 bits`, `u8 order`, `f32 scale`,
//!   then the codes bit-packed at `bits`-bit two's complement in storage
//!   order.
//! * **convs** — `varint n`, then per conv a `u8` kind: direct convs store
//!   `varint n`, `f32 scale` and raw int8 bytes; pooled convs store
//!   `varint n`, a coding-mode header and the coded bitstream (see
//!   [`IndexCoding`]). The encoder always writes spec, pool, lut, convs in
//!   that order, and a convs section that arrives before the spec and pool
//!   is malformed: every pooled index count is checked against its spec
//!   shape before anything is allocated.

use super::ans;
use super::stream::{DecodeStats, SectionReader};
use super::{ConvPayload, DeployBundle};
use crate::netspec::{ConvSpec, LayerSpec, NetSpec};
use crate::{LookupTable, LutOrder, WeightPool};
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Magic bytes opening every WPB file.
pub const WPB_MAGIC: [u8; 4] = *b"WPB1";

/// The WPB format version this codec writes and reads. Its index streams
/// are raw (mode tag 0) or tabled rANS (mode tag 3).
pub const WPB_VERSION: u8 = 2;

/// Section tags.
const SEC_SPEC: u8 = 1;
const SEC_POOL: u8 = 2;
const SEC_LUT: u8 = 3;
const SEC_CONVS: u8 = 4;

/// Why encoding or decoding a bundle failed.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The file's version is not the one this codec reads.
    UnsupportedVersion(u8),
    /// The buffer ended before the named piece could be read.
    Truncated(&'static str),
    /// A section's checksum did not match its payload.
    Checksum(&'static str),
    /// The bytes parsed but violate the format's invariants.
    Malformed(String),
    /// The underlying stream failed with a real I/O error (not EOF —
    /// running dry is [`CodecError::Truncated`]).
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a WPB bundle (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported WPB version {v} (this codec reads version {WPB_VERSION})")
            }
            CodecError::Truncated(what) => write!(f, "truncated bundle: {what}"),
            CodecError::Checksum(section) => {
                write!(f, "checksum mismatch in {section} section (corrupt or truncated file)")
            }
            CodecError::Malformed(m) => write!(f, "malformed bundle: {m}"),
            CodecError::Io(e) => write!(f, "bundle stream i/o error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bundle serialization format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable JSON (the original interchange format).
    Json,
    /// Entropy-coded binary WPB.
    Wpb,
}

impl Format {
    /// Detects the format of serialized bytes from their magic prefix.
    pub fn sniff(bytes: &[u8]) -> Self {
        if bytes.starts_with(&WPB_MAGIC) {
            Format::Wpb
        } else {
            Format::Json
        }
    }

    /// Picks a format from a path's extension: `.wpb` (case-insensitive)
    /// is WPB, anything else JSON.
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext.eq_ignore_ascii_case("wpb") => Format::Wpb,
            _ => Format::Json,
        }
    }
}

/// Serializes `bundle` as JSON.
pub(super) fn encode_json(bundle: &DeployBundle) -> Result<Vec<u8>, CodecError> {
    serde_json::to_string(bundle)
        .map(String::into_bytes)
        .map_err(|e| CodecError::Malformed(format!("json: {e}")))
}

/// Parses a JSON bundle and runs the checks every decoded bundle passes.
pub(super) fn decode_json(bytes: &[u8]) -> Result<DeployBundle, CodecError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| CodecError::Malformed("json bundle is not UTF-8".into()))?;
    let bundle =
        serde_json::from_str(text).map_err(|e| CodecError::Malformed(format!("json: {e}")))?;
    check_pool_indices(&bundle)?;
    Ok(bundle)
}

/// Serializes `bundle` as WPB (see the module docs for the layout).
///
/// # Errors
///
/// [`CodecError::Malformed`] when the bundle violates the format's
/// representable range (a LUT code outside its stated bitwidth).
pub(super) fn encode_wpb(bundle: &DeployBundle) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    out.extend_from_slice(&WPB_MAGIC);
    out.push(WPB_VERSION);
    out.push(bundle.act_bits);
    // The header gets its own checksum: act_bits lives outside every
    // section, and a flipped bit there would otherwise decode into a
    // quietly wrong bundle.
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    write_section(&mut out, SEC_SPEC, &encode_spec(&bundle.spec)?);
    write_section(&mut out, SEC_POOL, &encode_pool(&bundle.pool));
    write_section(&mut out, SEC_LUT, &encode_lut(&bundle.lut)?);
    write_section(&mut out, SEC_CONVS, &encode_convs(&bundle.convs));
    Ok(out)
}

/// Streaming WPB decode from any [`Read`] positioned at the magic bytes:
/// sections are pulled one at a time through a [`SectionReader`], so peak
/// transient memory is bounded by the largest section rather than the
/// whole stream. Also returns the [`DecodeStats`] accounting of what the
/// decode buffered.
///
/// # Errors
///
/// A typed [`CodecError`]; truncated or corrupted streams fail loudly
/// rather than yielding a partial bundle.
pub(super) fn decode_wpb<R: Read>(reader: R) -> Result<(DeployBundle, DecodeStats), CodecError> {
    let mut r = SectionReader::new(reader);
    let act_bits = read_wpb_prologue(&mut r)?;

    let mut spec: Option<NetSpec> = None;
    let mut pool: Option<WeightPool> = None;
    let mut lut: Option<LookupTable> = None;
    let mut convs: Option<Vec<ConvPayload>> = None;
    while let Some(header) = r.next_section()? {
        let name = section_name(header.tag);
        match header.tag {
            SEC_SPEC => {
                let payload = r.payload(&header, name)?;
                let decoded = decode_spec(payload)?;
                store(&mut spec, decoded, name)?;
            }
            SEC_POOL => {
                let payload = r.payload(&header, name)?;
                let decoded = decode_pool(payload)?;
                store(&mut pool, decoded, name)?;
            }
            SEC_LUT => {
                let payload = r.payload(&header, name)?;
                let decoded = decode_lut(payload)?;
                store(&mut lut, decoded, name)?;
            }
            SEC_CONVS => {
                // Every pooled index count is checked against its spec
                // shape before allocation, so the spec and pool must
                // already be known.
                let (Some(spec), Some(pool)) = (spec.as_ref(), pool.as_ref()) else {
                    return Err(CodecError::Malformed(
                        "convs section before the spec and pool sections".into(),
                    ));
                };
                let ctx = ConvContext::new(spec, pool)?;
                let payload = r.payload(&header, name)?;
                let decoded = decode_convs(payload, &ctx)?;
                store(&mut convs, decoded, name)?;
            }
            // Unknown sections are CRC-checked and skipped in chunks
            // (never buffered) so older readers survive additive
            // format growth without paying for it.
            _ => r.skip_payload(&header)?,
        }
    }
    let missing = |name: &'static str| CodecError::Truncated(name);
    let bundle = DeployBundle {
        spec: spec.ok_or_else(|| missing("missing spec section"))?,
        pool: pool.ok_or_else(|| missing("missing pool section"))?,
        lut: lut.ok_or_else(|| missing("missing lut section"))?,
        convs: convs.ok_or_else(|| missing("missing convs section"))?,
        act_bits,
    };
    check_pool_indices(&bundle)?;
    Ok((bundle, r.stats()))
}

/// Reads and validates the fixed WPB prologue (magic, version, act_bits,
/// header CRC), returning `act_bits`.
fn read_wpb_prologue<R: Read>(r: &mut SectionReader<R>) -> Result<u8, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic, "magic")?;
    if magic != WPB_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.read_u8("version")?;
    if version != WPB_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let act_bits = r.read_u8("act_bits")?;
    let header_crc = r.read_u32le("header checksum")?;
    if crc32(&[magic.as_slice(), &[version, act_bits]].concat()) != header_crc {
        return Err(CodecError::Checksum("header"));
    }
    Ok(act_bits)
}

/// The checks every decoded bundle passes, whichever format it came in:
/// one conv payload per spec conv, each pooled payload holding exactly
/// the indices its spec shape needs and each direct one exactly its
/// weights, pool and LUT agreeing on the group size, and every index
/// inside the pool (and the LUT, should the two disagree on size). The
/// engine would otherwise panic compiling the bundle or, for an
/// out-of-pool index, have its batched scatter read a neighbouring
/// position's partials.
fn check_pool_indices(bundle: &DeployBundle) -> Result<(), CodecError> {
    let ctx = ConvContext::new(&bundle.spec, &bundle.pool)?;
    ctx.check_len(bundle.convs.len())?;
    if bundle.lut.group_size() != ctx.group {
        return Err(CodecError::Malformed(format!(
            "the pool's vectors have {} weights but the lut is built for groups of {}",
            ctx.group,
            bundle.lut.group_size()
        )));
    }
    let pool = bundle.pool.len().min(bundle.lut.pool_size());
    for (position, conv) in bundle.convs.iter().enumerate() {
        let indices = match conv {
            ConvPayload::Pooled { indices } => indices,
            ConvPayload::Direct { weights, .. } => {
                ctx.check_weights(position, weights.len())?;
                continue;
            }
        };
        ctx.check_count(position, indices.len())?;
        if let Some(&bad) = indices.iter().find(|&&i| usize::from(i) >= pool) {
            return Err(CodecError::Malformed(format!(
                "conv {position} uses pool index {bad}; the pool holds {pool} vectors"
            )));
        }
    }
    Ok(())
}

/// Fills a section slot, rejecting duplicates.
fn store<T>(slot: &mut Option<T>, value: T, name: &'static str) -> Result<(), CodecError> {
    if slot.replace(value).is_some() {
        return Err(CodecError::Malformed(format!("duplicate {name} section")));
    }
    Ok(())
}

fn section_name(tag: u8) -> &'static str {
    match tag {
        SEC_SPEC => "spec",
        SEC_POOL => "pool",
        SEC_LUT => "lut",
        SEC_CONVS => "convs",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

fn encode_spec(spec: &NetSpec) -> Result<Vec<u8>, CodecError> {
    serde_json::to_string(spec)
        .map(String::into_bytes)
        .map_err(|e| CodecError::Malformed(format!("spec: {e}")))
}

fn decode_spec(payload: &[u8]) -> Result<NetSpec, CodecError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| CodecError::Malformed("spec section is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| CodecError::Malformed(format!("spec: {e}")))
}

fn encode_pool(pool: &WeightPool) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, pool.len() as u64);
    write_varint(&mut out, pool.group_size() as u64);
    for v in pool.vectors() {
        for &x in v {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    out
}

fn decode_pool(payload: &[u8]) -> Result<WeightPool, CodecError> {
    let mut r = ByteReader::new(payload);
    let s = r.varint("pool size")? as usize;
    let g = r.varint("pool group size")? as usize;
    if s == 0 || g == 0 {
        return Err(CodecError::Malformed(format!("empty pool ({s} vectors of {g})")));
    }
    // Claimed element count must fit the remaining payload *before* any
    // allocation: a crafted varint must be a typed error, not a
    // capacity-overflow panic or a huge allocation.
    let needed = s
        .checked_mul(g)
        .and_then(|e| e.checked_mul(4))
        .ok_or_else(|| CodecError::Malformed(format!("pool of {s}x{g} overflows")))?;
    if needed > r.remaining() {
        return Err(CodecError::Truncated("pool vector elements"));
    }
    let mut vectors = Vec::with_capacity(s);
    for _ in 0..s {
        let mut v = Vec::with_capacity(g);
        for _ in 0..g {
            v.push(f32::from_bits(r.u32le("pool vector element")?));
        }
        vectors.push(v);
    }
    r.expect_empty("pool")?;
    Ok(WeightPool::from_vectors(vectors))
}

fn encode_lut(lut: &LookupTable) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    write_varint(&mut out, lut.group_size() as u64);
    write_varint(&mut out, lut.pool_size() as u64);
    out.push(lut.bits());
    out.push(match lut.order() {
        LutOrder::InputOriented => 0,
        LutOrder::WeightOriented => 1,
    });
    out.extend_from_slice(&lut.scale().to_bits().to_le_bytes());
    let bits = u32::from(lut.bits());
    let (lo, hi) = (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1);
    let mut w = BitWriter::new();
    for &code in lut.codes() {
        if i64::from(code) < lo || i64::from(code) > hi {
            return Err(CodecError::Malformed(format!(
                "lut code {code} does not fit the table's {bits}-bit width"
            )));
        }
        w.write_bits(code as u32 as u64, bits);
    }
    out.extend_from_slice(&w.into_bytes());
    Ok(out)
}

fn decode_lut(payload: &[u8]) -> Result<LookupTable, CodecError> {
    let mut r = ByteReader::new(payload);
    let group = r.varint("lut group size")? as usize;
    let pool_size = r.varint("lut pool size")? as usize;
    let bits = r.u8("lut bits")?;
    let order = match r.u8("lut order")? {
        0 => LutOrder::InputOriented,
        1 => LutOrder::WeightOriented,
        other => return Err(CodecError::Malformed(format!("unknown lut order {other}"))),
    };
    let scale = f32::from_bits(r.u32le("lut scale")?);
    if group == 0 || group > 12 || pool_size == 0 || !(2..=16).contains(&bits) {
        return Err(CodecError::Malformed(format!(
            "implausible lut shape: group {group}, pool {pool_size}, {bits} bits"
        )));
    }
    // Shape is bounded (group <= 12 checked above), but pool_size comes
    // from the wire: the code count and its bit cost must fit the
    // remaining payload before allocating.
    let count = pool_size
        .checked_mul(1usize << group)
        .ok_or_else(|| CodecError::Malformed(format!("lut of {pool_size} << {group} overflows")))?;
    let width = u32::from(bits);
    let needed_bits = (count as u64)
        .checked_mul(u64::from(width))
        .ok_or_else(|| CodecError::Malformed(format!("lut of {count} codes overflows")))?;
    if needed_bits.div_ceil(8) > r.remaining() as u64 {
        return Err(CodecError::Truncated("lut codes"));
    }
    let mut b = BitReader::new(r.rest());
    let mut codes = Vec::with_capacity(count);
    for _ in 0..count {
        let raw = b.read_bits(width, "lut code")? as u32;
        codes.push(sign_extend(raw, width));
    }
    LookupTable::from_parts(group, pool_size, bits, scale, order, codes)
        .map_err(CodecError::Malformed)
}

fn encode_convs(convs: &[ConvPayload]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, convs.len() as u64);
    for conv in convs {
        match conv {
            ConvPayload::Pooled { indices } => {
                out.push(0);
                write_varint(&mut out, indices.len() as u64);
                let (coding, stream) = IndexCoding::encode(indices);
                coding.write_header(&mut out);
                write_varint(&mut out, stream.len() as u64);
                out.extend_from_slice(&stream);
            }
            ConvPayload::Direct { weights, scale } => {
                out.push(1);
                write_varint(&mut out, weights.len() as u64);
                out.extend_from_slice(&scale.to_bits().to_le_bytes());
                out.extend(weights.iter().map(|&w| w as u8));
            }
        }
    }
    out
}

/// What the spec and pool require of the conv payloads: one per spec
/// conv and, for each pooled one, exactly `out_ch·(in_ch/G)·k²` indices
/// (each direct one, exactly `out_ch·in_ch·k²` weights).
/// The WPB decoder checks a convs section against it before allocating;
/// [`check_pool_indices`] runs the same checks on every decoded bundle,
/// so both formats fail with the same message.
struct ConvContext<'a> {
    /// The spec's convs, in payload order.
    convs: Vec<&'a ConvSpec>,
    /// The pool's group size `G`.
    group: usize,
}

impl<'a> ConvContext<'a> {
    fn new(spec: &'a NetSpec, pool: &WeightPool) -> Result<Self, CodecError> {
        if pool.is_empty() {
            return Err(CodecError::Malformed("the pool holds no vectors".into()));
        }
        let convs = spec
            .layers
            .iter()
            .filter_map(|layer| match layer {
                LayerSpec::Conv(cs) => Some(cs),
                _ => None,
            })
            .collect();
        Ok(Self { convs, group: pool.group_size() })
    }

    fn check_len(&self, n: usize) -> Result<(), CodecError> {
        if n != self.convs.len() {
            return Err(CodecError::Malformed(format!(
                "{n} conv payloads but the spec declares {} convs",
                self.convs.len()
            )));
        }
        Ok(())
    }

    /// Checks a pooled payload's index count at `position` (which
    /// [`ConvContext::check_len`] has bounded).
    fn check_count(&self, position: usize, count: usize) -> Result<(), CodecError> {
        let cs = self.convs[position];
        let group = self.group;
        if group == 0 || !cs.in_ch.is_multiple_of(group) {
            return Err(CodecError::Malformed(format!(
                "conv {position} is pooled, but its {} input channels do not split into \
                 groups of {group}",
                cs.in_ch
            )));
        }
        let expected = cs
            .out_ch
            .checked_mul(cs.in_ch / group)
            .and_then(|n| n.checked_mul(cs.kernel))
            .and_then(|n| n.checked_mul(cs.kernel))
            .ok_or_else(|| {
                CodecError::Malformed(format!("conv {position}'s spec shape overflows"))
            })?;
        if count != expected {
            return Err(CodecError::Malformed(format!(
                "conv {position} holds {count} pool indices; its spec shape needs {expected}"
            )));
        }
        Ok(())
    }

    /// Checks a direct payload's weight count at `position` (which
    /// [`ConvContext::check_len`] has bounded).
    fn check_weights(&self, position: usize, count: usize) -> Result<(), CodecError> {
        let cs = self.convs[position];
        let expected = cs
            .out_ch
            .checked_mul(cs.in_ch)
            .and_then(|n| n.checked_mul(cs.kernel))
            .and_then(|n| n.checked_mul(cs.kernel))
            .ok_or_else(|| {
                CodecError::Malformed(format!("conv {position}'s spec shape overflows"))
            })?;
        if count != expected {
            return Err(CodecError::Malformed(format!(
                "conv {position} holds {count} direct weights; its spec shape needs {expected}"
            )));
        }
        Ok(())
    }
}

fn decode_convs(payload: &[u8], ctx: &ConvContext<'_>) -> Result<Vec<ConvPayload>, CodecError> {
    let mut r = ByteReader::new(payload);
    let n = r.varint("conv count")? as usize;
    ctx.check_len(n)?;
    let mut convs = Vec::with_capacity(n);
    for position in 0..n {
        match r.u8("conv kind")? {
            0 => {
                let count = r.varint("index count")? as usize;
                // The count is the spec's, whatever the coded stream
                // claims to hold, so a crafted one cannot balloon the
                // decode.
                ctx.check_count(position, count)?;
                let coding = IndexCoding::read_header(&mut r)?;
                let stream_len = r.varint("index stream length")? as usize;
                let stream = r.take(stream_len, "index stream")?;
                let indices = coding.decode_stream(stream, count)?;
                convs.push(ConvPayload::Pooled { indices });
            }
            1 => {
                let count = r.varint("weight count")? as usize;
                ctx.check_weights(position, count)?;
                let scale = f32::from_bits(r.u32le("weight scale")?);
                let bytes = r.take(count, "direct weights")?;
                let weights = bytes.iter().map(|&b| b as i8).collect();
                convs.push(ConvPayload::Direct { weights, scale });
            }
            other => {
                return Err(CodecError::Malformed(format!("unknown conv payload kind {other}")))
            }
        }
    }
    r.expect_empty("convs")?;
    Ok(convs)
}

// ---------------------------------------------------------------------------
// Index-stream coding
// ---------------------------------------------------------------------------

/// How one pooled layer's index stream is coded.
///
/// * `Raw` — fixed width at the stream's own `ceil(log2(max+1))` bits:
///   taken for empty streams and whenever the ANS stream would be no
///   smaller (near-uniform index usage, where fixed width already sits on
///   the entropy).
/// * `Ans` — tabled rANS over the raw index values (see [`super::ans`]):
///   fractional bits per index under the layer's own normalized
///   histogram, so it reaches the per-layer entropy bound for any
///   histogram shape, below 1 bit per index included. The normalized
///   frequency table ships with the layer and is charged against the mode
///   when choosing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexCoding {
    /// Fixed-width indices at `width` bits each.
    Raw {
        /// Bits per index (0 when every index is 0).
        width: u8,
    },
    /// Tabled rANS under a per-layer normalized histogram.
    Ans {
        /// Normalized frequencies summing to [`ans::ANS_TOTAL`],
        /// truncated after the last occurring symbol.
        freqs: Vec<u16>,
    },
}

impl IndexCoding {
    /// Codes one index stream, returning the coding and the stream that
    /// follows its header: the real ANS stream when it, frequency table
    /// included, is smaller than fixed width, and the raw stream
    /// otherwise.
    fn encode(indices: &[u8]) -> (Self, Vec<u8>) {
        let Some(&max) = indices.iter().max() else {
            return (IndexCoding::Raw { width: 0 }, Vec::new());
        };
        let width = bits_for(u32::from(max)) as u8;
        let freqs = ans::normalize_freqs(&histogram(indices)).expect("non-empty stream");
        let stream = ans::encode(indices, &freqs);
        let ans = IndexCoding::Ans { freqs };
        let raw = IndexCoding::Raw { width };
        if ans.coded_bits(indices.len(), stream.len()) < raw.coded_bits(indices.len(), 0) {
            return (ans, stream);
        }
        let mut w = BitWriter::new();
        for &v in indices {
            w.write_bits(u64::from(v), u32::from(width));
        }
        (raw, w.into_bytes())
    }

    /// The coding WPB writes for `indices`: ANS when its real stream,
    /// frequency table included, is smaller than fixed width, raw
    /// otherwise.
    pub fn choose(indices: &[u8]) -> Self {
        Self::encode(indices).0
    }

    /// Bits this coding spends on `count` indices whose coded stream is
    /// `stream_len` bytes: `count · width` for raw (byte padding
    /// excluded), the frequency table plus the real stream for ANS.
    fn coded_bits(&self, count: usize, stream_len: usize) -> u64 {
        match self {
            IndexCoding::Raw { width } => count as u64 * u64::from(*width),
            IndexCoding::Ans { freqs } => {
                let mut table = Vec::new();
                write_freqs(&mut table, freqs);
                8 * (table.len() + stream_len) as u64
            }
        }
    }

    /// Short human-readable description (`raw[4b]`, `ans[11 syms]`).
    pub fn describe(&self) -> String {
        match self {
            IndexCoding::Raw { width } => format!("raw[{width}b]"),
            IndexCoding::Ans { freqs } => {
                format!("ans[{} syms]", freqs.iter().filter(|&&f| f > 0).count())
            }
        }
    }

    fn write_header(&self, out: &mut Vec<u8>) {
        match self {
            IndexCoding::Raw { width } => {
                out.push(0);
                out.push(*width);
            }
            IndexCoding::Ans { freqs } => {
                out.push(3);
                write_freqs(out, freqs);
            }
        }
    }

    fn read_header(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8("index coding mode")? {
            0 => {
                let width = r.u8("raw index width")?;
                if width > 8 {
                    return Err(CodecError::Malformed(format!("raw index width {width} > 8")));
                }
                Ok(IndexCoding::Raw { width })
            }
            3 => {
                let len = r.varint("ans frequency table length")? as usize;
                if len == 0 || len > 256 {
                    return Err(CodecError::Malformed(format!(
                        "ans frequency table of {len} entries"
                    )));
                }
                let mut freqs = Vec::with_capacity(len);
                for _ in 0..len {
                    let f = r.varint("ans frequency")?;
                    let f = u16::try_from(f).map_err(|_| {
                        CodecError::Malformed(format!("ans frequency {f} exceeds 16 bits"))
                    })?;
                    freqs.push(f);
                }
                ans::validate_freqs(&freqs)?;
                Ok(IndexCoding::Ans { freqs })
            }
            other => Err(CodecError::Malformed(format!("unknown index coding mode {other}"))),
        }
    }

    fn decode_stream(&self, stream: &[u8], count: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(count);
        match self {
            IndexCoding::Raw { width } => {
                let mut b = BitReader::new(stream);
                for _ in 0..count {
                    out.push(b.read_bits(u32::from(*width), "raw index")? as u8);
                }
            }
            IndexCoding::Ans { freqs } => ans::decode_into(stream, freqs, count, &mut out)?,
        }
        Ok(out)
    }
}

/// Appends an ANS frequency table: varint length, then one varint per
/// entry.
fn write_freqs(out: &mut Vec<u8>, freqs: &[u16]) {
    write_varint(out, freqs.len() as u64);
    for &f in freqs {
        write_varint(out, u64::from(f));
    }
}

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u32) -> u32 {
    32 - max.leading_zeros()
}

/// Sign-extends a `width`-bit two's-complement value.
fn sign_extend(raw: u32, width: u32) -> i32 {
    if width == 32 || raw & (1 << (width - 1)) == 0 {
        raw as i32
    } else {
        (raw | !((1u32 << width) - 1)) as i32
    }
}

// ---------------------------------------------------------------------------
// Per-layer statistics (wp_bundle inspect, bundle_size bench)
// ---------------------------------------------------------------------------

/// One pooled layer's index-stream coding report.
#[derive(Debug, Clone)]
pub struct IndexStreamStats {
    /// Position in [`DeployBundle::convs`].
    pub conv: usize,
    /// Indices in the stream.
    pub count: usize,
    /// Empirical entropy in bits per index ([`stream_entropy_bits`]).
    pub entropy_bits: f64,
    /// WPB coded size in bits per index (ANS frequency table amortized
    /// in).
    pub coded_bits: f64,
    /// The coding WPB writes for this layer, human readable.
    pub coding: String,
}

/// Per-pooled-layer coding statistics for `bundle` (direct convs carry no
/// index stream and are omitted).
pub fn index_stream_stats(bundle: &DeployBundle) -> Vec<IndexStreamStats> {
    bundle
        .convs
        .iter()
        .enumerate()
        .filter_map(|(conv, payload)| match payload {
            ConvPayload::Pooled { indices } => {
                let (coding, stream) = IndexCoding::encode(indices);
                let coded = coding.coded_bits(indices.len(), stream.len());
                let per_index =
                    if indices.is_empty() { 0.0 } else { coded as f64 / indices.len() as f64 };
                Some(IndexStreamStats {
                    conv,
                    count: indices.len(),
                    entropy_bits: stream_entropy_bits(indices),
                    coded_bits: per_index,
                    coding: coding.describe(),
                })
            }
            ConvPayload::Direct { .. } => None,
        })
        .collect()
}

/// Empirical entropy of one index stream in bits per index.
///
/// An empty stream has zero entropy (not NaN): there is nothing to code.
pub fn stream_entropy_bits(indices: &[u8]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    let total = indices.len() as f64;
    histogram(indices)
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Byte-value histogram of one index stream.
fn histogram(indices: &[u8]) -> [u64; 256] {
    let mut hist = [0u64; 256];
    for &i in indices {
        hist[i as usize] += 1;
    }
    hist
}

// ---------------------------------------------------------------------------
// Primitives: varints, checksums, bitstreams
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `tag`, varint length, `payload`, and the payload's CRC-32.
fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// CRC-32 (IEEE 802.3, reflected) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            j += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Initial CRC-32 state for [`crc32_update`] (finalize by XORing with
/// `0xFFFF_FFFF`).
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a running CRC-32 (IEEE) state — how the streaming
/// reader checksums skipped sections chunk-by-chunk without buffering.
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(CRC_INIT, bytes) ^ 0xFFFF_FFFF
}

/// A bounds-checked byte cursor; every overrun is a loud
/// [`CodecError::Truncated`] naming what was being read.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    fn expect_empty(&self, section: &'static str) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed(format!(
                "{} trailing bytes in {section} section",
                self.bytes.len() - self.pos
            )))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated(what));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32le(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4-byte slice")))
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Malformed(format!("varint too long reading {what}")))
    }
}

/// LSB-first bit appender.
struct BitWriter {
    bytes: Vec<u8>,
    used: u8,
}

impl BitWriter {
    fn new() -> Self {
        Self { bytes: Vec::new(), used: 0 }
    }

    fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().expect("pushed above") |= 1 << self.used;
        }
        self.used = (self.used + 1) & 7;
    }

    /// Writes the low `n` bits of `v`, LSB first.
    fn write_bits(&mut self, v: u64, n: u32) {
        for i in 0..n {
            self.push_bit((v >> i) & 1 == 1);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// LSB-first bit cursor over a byte slice.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn read_bit(&mut self, what: &'static str) -> Result<bool, CodecError> {
        let byte = (self.pos / 8) as usize;
        if byte >= self.bytes.len() {
            return Err(CodecError::Truncated(what));
        }
        let bit = (self.bytes[byte] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    fn read_bits(&mut self, n: u32, what: &'static str) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for i in 0..n {
            if self.read_bit(what)? {
                v |= 1 << i;
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netspec::{ConvSpec, LayerSpec};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A hand-built bundle exercising both payload kinds and a controllable
    /// index distribution (`skew` 0 = uniform, larger = more peaked). Its
    /// 144 indices code raw for the fixed seeds used here; see
    /// [`with_hot_vector`] for a stream that codes as ANS.
    fn fabricated_bundle(seed: u64, pool_size: usize, order: LutOrder, skew: u32) -> DeployBundle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let group = 8usize;
        let vectors: Vec<Vec<f32>> = (0..pool_size)
            .map(|_| (0..group).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
            .collect();
        let pool = WeightPool::from_vectors(vectors);
        let lut = LookupTable::build(&pool, 8, order);
        let spec = NetSpec {
            name: format!("fab-{seed}"),
            input: (3, 6, 6),
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
                LayerSpec::GlobalAvgPool,
                LayerSpec::Dense { in_features: 16, out_features: 4, compressed: false },
            ],
        };
        let direct: Vec<i8> = (0..8 * 3 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
        let indices: Vec<u8> = (0..16 * 9)
            .map(|_| {
                let mut v = rng.gen_range(0..pool_size);
                for _ in 0..skew {
                    v = v.min(rng.gen_range(0..pool_size));
                }
                v as u8
            })
            .collect();
        DeployBundle {
            spec,
            pool,
            lut,
            convs: vec![
                ConvPayload::Direct { weights: direct, scale: 0.0625 },
                ConvPayload::Pooled { indices },
            ],
            act_bits: 8,
        }
    }

    /// The fabricated bundle's pooled index map.
    fn pooled_indices(b: &mut DeployBundle) -> &mut Vec<u8> {
        match &mut b.convs[1] {
            ConvPayload::Pooled { indices } => indices,
            ConvPayload::Direct { .. } => panic!("fabricated conv 1 is pooled"),
        }
    }

    /// Points about 7 in 8 of the pooled indices at one hot vector: a
    /// low-entropy stream that codes as ANS on a 16- or 32-vector pool.
    fn with_hot_vector(mut b: DeployBundle, seed: u64) -> DeployBundle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
        let hot = rng.gen_range(0..b.pool.len()) as u8;
        for v in pooled_indices(&mut b) {
            if rng.gen_range(0..8) != 0 {
                *v = hot;
            }
        }
        b
    }

    /// The coding WPB writes for the fabricated bundle's pooled conv.
    fn pooled_coding(b: &DeployBundle) -> IndexCoding {
        let ConvPayload::Pooled { indices } = &b.convs[1] else {
            panic!("fabricated conv 1 is pooled");
        };
        IndexCoding::choose(indices)
    }

    fn is_ans(coding: &IndexCoding) -> bool {
        matches!(coding, IndexCoding::Ans { .. })
    }

    #[test]
    fn wpb_round_trips_both_orders_and_payload_kinds() {
        for order in [LutOrder::InputOriented, LutOrder::WeightOriented] {
            let hot = with_hot_vector(fabricated_bundle(7, 16, order, 0), 7);
            assert!(is_ans(&pooled_coding(&hot)));
            for b in [fabricated_bundle(7, 16, order, 0), fabricated_bundle(7, 16, order, 3), hot] {
                let bytes = b.to_bytes(Format::Wpb).unwrap();
                assert_eq!(Format::sniff(&bytes), Format::Wpb);
                assert_eq!(DeployBundle::from_bytes(&bytes).unwrap(), b);
            }
        }
    }

    #[test]
    fn json_and_wpb_decode_to_the_same_bundle() {
        let b = fabricated_bundle(9, 8, LutOrder::InputOriented, 2);
        let json = b.to_bytes(Format::Json).unwrap();
        let wpb = b.to_bytes(Format::Wpb).unwrap();
        assert_eq!(
            DeployBundle::from_bytes(&json).unwrap(),
            DeployBundle::from_bytes(&wpb).unwrap()
        );
        assert!(wpb.len() < json.len(), "wpb {} vs json {}", wpb.len(), json.len());
    }

    #[test]
    fn empty_index_stream_round_trips() {
        // An empty stream codes as zero-width raw with no stream bytes.
        assert_eq!(IndexCoding::encode(&[]), (IndexCoding::Raw { width: 0 }, Vec::new()));
        // A pooled conv with no filters needs no indices, and round trips.
        let mut b = fabricated_bundle(3, 4, LutOrder::InputOriented, 0);
        let LayerSpec::Conv(cs) = &mut b.spec.layers[1] else { panic!("layer 1 is a conv") };
        cs.out_ch = 0;
        pooled_indices(&mut b).clear();
        let bytes = b.to_bytes(Format::Wpb).unwrap();
        assert_eq!(DeployBundle::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn stream_entropy_of_empty_stream_is_zero() {
        assert_eq!(stream_entropy_bits(&[]), 0.0);
        // Single-symbol streams are also zero-entropy, not NaN.
        assert_eq!(stream_entropy_bits(&[5; 100]), 0.0);
    }

    #[test]
    fn uniform_streams_fall_back_to_raw_fixed_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let uniform: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..16) as u8).collect();
        let (coding, stream) = IndexCoding::encode(&uniform);
        assert_eq!(coding, IndexCoding::Raw { width: 4 }, "uniform: {}", coding.describe());
        assert_eq!(coding.coded_bits(uniform.len(), stream.len()), 4 * 4096);
        assert_eq!(coding.decode_stream(&stream, uniform.len()).unwrap(), uniform);
    }

    /// Encodes a skewed `stream`, asserts it takes ANS, beats `fixed`
    /// bits per index, lands within 15% (plus `slack`) of its entropy,
    /// and decodes back bit-identically.
    fn assert_ans_beats_fixed_width(stream: &[u8], fixed: f64, slack: f64) {
        let (coding, bytes) = IndexCoding::encode(stream);
        assert!(is_ans(&coding), "skewed stream should take ans, chose {}", coding.describe());
        let coded = coding.coded_bits(stream.len(), bytes.len()) as f64 / stream.len() as f64;
        let entropy = stream_entropy_bits(stream);
        assert!(coded < fixed, "coded {coded:.3} must beat fixed {fixed}");
        assert!(coded <= entropy * 1.15 + slack, "coded {coded:.3} vs entropy {entropy:.3}");
        assert_eq!(coding.decode_stream(&bytes, stream.len()).unwrap(), stream);
    }

    #[test]
    fn skewed_streams_choose_ans_and_beat_fixed_width() {
        // Geometric-ish: symbol v with probability ~2^-v.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let geometric: Vec<u8> = (0..4096)
            .map(|_| {
                let mut v = 0u8;
                while v < 15 && rng.gen_range(0..2) == 0 {
                    v += 1;
                }
                v
            })
            .collect();
        assert_ans_beats_fixed_width(&geometric, 4.0, 0.2);
    }

    #[test]
    fn ans_handles_skew_on_arbitrary_symbols() {
        // Heavy mass on high, arbitrary symbols: the frequency table
        // carries the 201 entries up to symbol 200 and still pays off.
        let mut stream = vec![200u8; 1000];
        stream.extend(std::iter::repeat_n(13u8, 100));
        stream.extend(std::iter::repeat_n(77u8, 10));
        assert_ans_beats_fixed_width(&stream, 8.0, 2.0);
    }

    #[test]
    fn truncated_files_fail_loudly() {
        let b = fabricated_bundle(5, 8, LutOrder::WeightOriented, 1);
        let bytes = b.to_bytes(Format::Wpb).unwrap();
        // Every proper prefix must error, never yield a bundle.
        for cut in [3, 5, 7, bytes.len() / 4, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            let err = DeployBundle::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let b = fabricated_bundle(6, 8, LutOrder::InputOriented, 0);
        let mut bytes = b.to_bytes(Format::Wpb).unwrap();
        // Flip a bit inside the convs payload (late in the buffer, past
        // every header byte).
        let at = bytes.len() - 40;
        bytes[at] ^= 0x10;
        match DeployBundle::from_bytes(&bytes) {
            Err(CodecError::Checksum(_)) | Err(CodecError::Malformed(_)) => {}
            other => panic!("corruption must fail, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_fails_the_header_checksum() {
        // act_bits lives outside every section; a flipped bit there must
        // not decode into a quietly wrong bundle.
        let b = fabricated_bundle(6, 8, LutOrder::InputOriented, 0);
        let mut bytes = b.to_bytes(Format::Wpb).unwrap();
        bytes[5] ^= 0x04; // act_bits
        assert!(matches!(DeployBundle::from_bytes(&bytes), Err(CodecError::Checksum("header"))));
    }

    #[test]
    fn hostile_counts_are_errors_not_panics() {
        // Hand-build sections whose varint counts claim far more elements
        // than the payload holds; decode must return typed errors (never
        // a capacity-overflow panic or a giant allocation).
        let huge_pool = {
            let mut p = Vec::new();
            write_varint(&mut p, 1 << 62); // S
            write_varint(&mut p, 8); // G
            p
        };
        assert!(decode_pool(&huge_pool).is_err());

        let huge_lut = {
            let mut p = Vec::new();
            write_varint(&mut p, 12); // group
            write_varint(&mut p, 1 << 60); // pool_size
            p.push(8); // bits
            p.push(0); // order
            p.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
            p
        };
        assert!(decode_lut(&huge_lut).is_err());

        // Convs are decoded against the spec and pool sections: the spec
        // fixes the conv count and every pooled index count.
        let b = fabricated_bundle(4, 16, LutOrder::InputOriented, 0);
        let ctx = ConvContext::new(&b.spec, &b.pool).unwrap();
        let huge_convs = {
            let mut p = Vec::new();
            write_varint(&mut p, 2); // the spec's two convs
            p.push(1); // direct, no weights
            write_varint(&mut p, 0);
            p.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
            p.push(0); // pooled
            write_varint(&mut p, 1 << 50); // indices "count"
            p.push(0); // raw mode
            p.push(0); // width 0 (zero stream bits per index)
            write_varint(&mut p, 0); // empty stream
            p
        };
        assert!(matches!(decode_convs(&huge_convs, &ctx), Err(CodecError::Malformed(_))));

        let many_convs = {
            let mut p = Vec::new();
            write_varint(&mut p, 1 << 55);
            p
        };
        assert!(matches!(decode_convs(&many_convs, &ctx), Err(CodecError::Malformed(_))));

        // A CRC-valid file whose convs section comes first: three pooled
        // convs, each a 4-byte one-symbol ANS stream claiming 959,000
        // indices. Before the spec is known, nothing bounds such a count
        // but what the stream could hold, which for a one-symbol table is
        // about 10^4 indices per stream bit.
        let crafted_convs = {
            let mut p = Vec::new();
            write_varint(&mut p, 3);
            for _ in 0..3 {
                p.push(0); // pooled
                write_varint(&mut p, 959_000);
                p.push(3); // ans
                write_varint(&mut p, 1); // one-entry frequency table
                write_varint(&mut p, u64::from(ans::ANS_TOTAL));
                write_varint(&mut p, 4); // stream: the seed state alone
                p.extend_from_slice(&ans::ANS_LOWER_BOUND.to_le_bytes());
            }
            p
        };
        let mut crafted = b.to_bytes(Format::Wpb).unwrap()[..10].to_vec(); // header
        write_section(&mut crafted, SEC_CONVS, &crafted_convs);
        write_section(&mut crafted, SEC_SPEC, &encode_spec(&b.spec).unwrap());
        write_section(&mut crafted, SEC_POOL, &encode_pool(&b.pool));
        write_section(&mut crafted, SEC_LUT, &encode_lut(&b.lut).unwrap());
        let expect = "convs section before the spec and pool sections";
        for result in [DeployBundle::from_bytes(&crafted), DeployBundle::from_reader(&crafted[..])]
        {
            match result {
                Err(CodecError::Malformed(m)) => assert_eq!(m, expect),
                other => panic!("expected a malformed-bundle error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let b = fabricated_bundle(8, 4, LutOrder::InputOriented, 0);
        let bytes = b.to_bytes(Format::Wpb).unwrap();
        let mut reader = SectionReader::new(&b"JSON{}"[..]);
        assert!(matches!(read_wpb_prologue(&mut reader), Err(CodecError::BadMagic)));
        // Any version byte but 2 is refused, and the message names the
        // one version this codec reads.
        for version in [99, 3, 1] {
            let mut wrong_version = bytes.clone();
            wrong_version[4] = version;
            let err = DeployBundle::from_bytes(&wrong_version).unwrap_err();
            assert!(matches!(err, CodecError::UnsupportedVersion(v) if v == version), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!("unsupported WPB version {version} (this codec reads version 2)")
            );
        }
    }

    /// A pooled index past the pool encodes fine (the codecs are
    /// symbol-agnostic) but must not decode, in either format and through
    /// the streaming path too.
    #[test]
    fn out_of_pool_indices_are_malformed_in_both_formats() {
        let mut b = fabricated_bundle(21, 16, LutOrder::InputOriented, 2);
        pooled_indices(&mut b)[7] = 16;
        let expect = "conv 1 uses pool index 16; the pool holds 16 vectors";
        for format in [Format::Json, Format::Wpb] {
            let bytes = b.to_bytes(format).unwrap();
            for result in [DeployBundle::from_bytes(&bytes), DeployBundle::from_reader(&bytes[..])]
            {
                match result {
                    Err(CodecError::Malformed(m)) => assert_eq!(m, expect, "{format:?}"),
                    other => panic!("{format:?}: expected a malformed-bundle error, got {other:?}"),
                }
            }
        }
    }

    /// Conv payloads must match the spec one for one, a pooled one must
    /// hold exactly the `out_ch·(in_ch/G)·k²` indices its shape needs, a
    /// direct one exactly its `out_ch·in_ch·k²` weights, and pool and LUT
    /// must agree on `G` — or the engine panics compiling the bundle.
    /// Each violation is the same malformed-bundle error in both formats,
    /// buffered and streamed.
    #[test]
    fn pooled_counts_must_match_the_spec_in_both_formats() {
        let base = fabricated_bundle(22, 16, LutOrder::InputOriented, 2);
        let mut short = base.clone();
        pooled_indices(&mut short).truncate(135);
        let mut long = base.clone();
        pooled_indices(&mut long).extend([0; 9]);
        let mut extra = base.clone();
        extra.convs.push(base.convs[1].clone());
        let mut ungrouped = base.clone();
        ungrouped.convs[0] = ConvPayload::Pooled { indices: vec![0; 8 * 9] };
        let mut regrouped = base.clone();
        let narrow = WeightPool::from_vectors(vec![vec![0.1; 4]; 16]);
        regrouped.lut = LookupTable::build(&narrow, 8, LutOrder::InputOriented);
        let with_direct = |len: usize| {
            let mut b = base.clone();
            let ConvPayload::Direct { weights, .. } = &mut b.convs[0] else {
                panic!("fabricated conv 0 is direct")
            };
            weights.resize(len, 1);
            b
        };
        let cases = [
            (short, "conv 1 holds 135 pool indices; its spec shape needs 144"),
            (long, "conv 1 holds 153 pool indices; its spec shape needs 144"),
            (with_direct(207), "conv 0 holds 207 direct weights; its spec shape needs 216"),
            (with_direct(225), "conv 0 holds 225 direct weights; its spec shape needs 216"),
            (extra, "3 conv payloads but the spec declares 2 convs"),
            (ungrouped, "conv 0 is pooled, but its 3 input channels do not split into groups of 8"),
            (regrouped, "the pool's vectors have 8 weights but the lut is built for groups of 4"),
        ];
        for (bundle, expect) in cases {
            for format in [Format::Json, Format::Wpb] {
                let bytes = bundle.to_bytes(format).unwrap();
                for result in
                    [DeployBundle::from_bytes(&bytes), DeployBundle::from_reader(&bytes[..])]
                {
                    match result {
                        Err(CodecError::Malformed(m)) => assert_eq!(m, expect, "{format:?}"),
                        other => panic!("{format:?} {expect:?}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn format_sniffing_and_extensions() {
        assert_eq!(Format::sniff(b"WPB1...."), Format::Wpb);
        assert_eq!(Format::sniff(b"{\"spec\":..."), Format::Json);
        assert_eq!(Format::for_path(Path::new("m.wpb")), Format::Wpb);
        assert_eq!(Format::for_path(Path::new("m.WPB")), Format::Wpb);
        assert_eq!(Format::for_path(Path::new("m.json")), Format::Json);
        assert_eq!(Format::for_path(Path::new("m")), Format::Json);
    }

    #[test]
    fn stats_cover_pooled_layers_only() {
        let b = fabricated_bundle(11, 16, LutOrder::InputOriented, 2);
        let stats = index_stream_stats(&b);
        assert_eq!(stats.len(), 1, "one pooled conv");
        assert_eq!(stats[0].conv, 1);
        assert_eq!(stats[0].count, 16 * 9);
        assert!(stats[0].entropy_bits > 0.0);
        assert!(stats[0].coded_bits > 0.0);
    }

    #[test]
    fn wpb_writer_always_stamps_version_2() {
        // Raw and ANS streams both belong to version 2, whose mode tags
        // (raw 0, ANS 3) every version-2 reader knows.
        let raw = fabricated_bundle(7, 16, LutOrder::InputOriented, 0);
        let hot = with_hot_vector(raw.clone(), 7);
        assert_eq!(pooled_coding(&raw), IndexCoding::Raw { width: 4 });
        assert!(is_ans(&pooled_coding(&hot)));
        for b in [raw, hot] {
            let bytes = b.to_bytes(Format::Wpb).unwrap();
            assert_eq!(bytes[4], WPB_VERSION);
            assert_eq!(DeployBundle::from_bytes(&bytes).unwrap(), b);
        }
    }

    #[test]
    fn truncated_and_corrupted_ans_bundles_fail_loudly() {
        // Every truncation and byte flip of a bundle whose pooled stream
        // is ANS coded is a typed error, never a panic or a partial
        // bundle.
        let b = with_hot_vector(fabricated_bundle(13, 16, LutOrder::WeightOriented, 3), 13);
        assert!(is_ans(&pooled_coding(&b)));
        let bytes = b.to_bytes(Format::Wpb).unwrap();
        assert_eq!(DeployBundle::from_reader(bytes.as_slice()).unwrap(), b);
        for cut in [3, 5, 7, bytes.len() / 4, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                DeployBundle::from_reader(&bytes[..cut]).is_err(),
                "ans prefix of {cut} bytes decoded successfully"
            );
        }
        for at in (10..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            match DeployBundle::from_reader(bad.as_slice()) {
                Ok(decoded) => assert_eq!(decoded, b, "accepted corruption must be harmless"),
                Err(
                    CodecError::Checksum(_)
                    | CodecError::Malformed(_)
                    | CodecError::Truncated(_)
                    | CodecError::UnsupportedVersion(_)
                    | CodecError::BadMagic,
                ) => {}
                Err(other) => panic!("untyped failure {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_sections_are_skipped_over_streams() {
        // Forward compatibility: a section tag this reader doesn't know is
        // CRC-checked and skipped without buffering — both through the
        // buffer path and the streaming path.
        let b = fabricated_bundle(17, 8, LutOrder::InputOriented, 1);
        let bytes = b.to_bytes(Format::Wpb).unwrap();
        let mut with_extra = bytes[..10].to_vec(); // magic+version+act_bits+crc
        let payload = [1u8, 2, 3, 4, 5];
        with_extra.push(200); // tag from the unknown range
        write_varint(&mut with_extra, payload.len() as u64);
        with_extra.extend_from_slice(&payload);
        with_extra.extend_from_slice(&crc32(&payload).to_le_bytes());
        with_extra.extend_from_slice(&bytes[10..]);

        assert_eq!(DeployBundle::from_bytes(&with_extra).unwrap(), b);
        let (decoded, stats) = DeployBundle::from_reader_with_stats(with_extra.as_slice()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(stats.total_bytes as usize, with_extra.len());

        // Corrupting the unknown payload still fails its checksum.
        let mut bad = with_extra.clone();
        bad[12] ^= 0xFF;
        assert!(matches!(
            DeployBundle::from_reader(bad.as_slice()),
            Err(CodecError::Checksum("unknown"))
        ));
    }

    #[test]
    fn streaming_decode_matches_buffer_decode_with_bounded_scratch() {
        let raw = fabricated_bundle(23, 32, LutOrder::WeightOriented, 2);
        let hot = with_hot_vector(raw.clone(), 23);
        assert!(matches!(pooled_coding(&raw), IndexCoding::Raw { .. }));
        assert!(is_ans(&pooled_coding(&hot)));
        for b in [raw, hot] {
            let bytes = b.to_bytes(Format::Wpb).unwrap();
            let buffered = DeployBundle::from_bytes(&bytes).unwrap();
            let (streamed, stats) = DeployBundle::from_reader_with_stats(bytes.as_slice()).unwrap();
            assert_eq!(buffered, streamed);
            assert_eq!(streamed, b);
            assert!(stats.peak_transient_bytes <= stats.largest_section_bytes);
            assert_eq!(stats.total_bytes as usize, bytes.len());
            assert_eq!(stats.sections, 4, "spec, pool, lut, convs");
        }
    }

    #[test]
    fn low_entropy_streams_choose_ans_below_rice_floor() {
        // Any whole-bit-per-index code (fixed width, Rice) spends at least
        // 1 bit per index; a heavily repeated stream has sub-bit entropy,
        // which only ANS can reach. The chooser must pick it and actually
        // land below 1 bit/index.
        let mut indices = vec![3u8; 6000];
        for i in 0..200 {
            indices[i * 30] = (i % 5) as u8;
        }
        let (coding, stream) = IndexCoding::encode(&indices);
        assert!(is_ans(&coding), "sub-bit stream should pick ans, chose {}", coding.describe());
        let per_sym = coding.coded_bits(indices.len(), stream.len()) as f64 / indices.len() as f64;
        assert!(per_sym < 1.0, "ans must go below 1 bit/index, got {per_sym:.3}");
        assert_eq!(coding.decode_stream(&stream, indices.len()).unwrap(), indices);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn bitstream_primitives_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0, 0);
        w.write_bits(0x5A5A, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4, "t").unwrap(), 0b1011);
        assert_eq!(r.read_bits(0, "t").unwrap(), 0);
        assert_eq!(r.read_bits(16, "t").unwrap(), 0x5A5A);
        assert!(r.read_bits(64, "past the end").is_err());
    }

    #[test]
    fn sign_extension_is_exact() {
        assert_eq!(sign_extend(0b1111_1111, 8), -1);
        assert_eq!(sign_extend(0b0111_1111, 8), 127);
        assert_eq!(sign_extend(0b10, 2), -2);
        assert_eq!(sign_extend(5, 16), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// WPB and JSON reconstruct the identical bundle for arbitrary
        /// pools, orders, skews and payload mixes, whichever coding each
        /// stream takes.
        #[test]
        fn prop_wpb_round_trip_equals_json(
            seed in 0u64..1000,
            pool_size in 2usize..32,
            order_bit in 0u8..2,
            skew in 0u32..6,
            hot in 0u8..2,
        ) {
            let order = if order_bit == 0 {
                LutOrder::InputOriented
            } else {
                LutOrder::WeightOriented
            };
            let mut b = fabricated_bundle(seed, pool_size, order, skew);
            if hot == 1 {
                b = with_hot_vector(b, seed);
            }
            let wpb = b.to_bytes(Format::Wpb).unwrap();
            let json = b.to_bytes(Format::Json).unwrap();
            prop_assert_eq!(&DeployBundle::from_bytes(&wpb).unwrap(), &b);
            prop_assert_eq!(&DeployBundle::from_bytes(&json).unwrap(), &b);
        }

        /// The same seed and pool coded raw (uniform stream) and as ANS
        /// (hot-vector stream) both reconstruct exactly: the coding is a
        /// size concern, never a fidelity one. Pools of 3 or more keep
        /// the hot stream on ANS for every seed in range.
        #[test]
        fn prop_ans_and_raw_decode_identically(seed in 0u64..1000, pool_size in 3usize..32) {
            let raw = fabricated_bundle(seed, pool_size, LutOrder::InputOriented, 0);
            let ans = with_hot_vector(raw.clone(), seed);
            prop_assert!(!is_ans(&pooled_coding(&raw)));
            prop_assert!(is_ans(&pooled_coding(&ans)));
            for b in [raw, ans] {
                let bytes = b.to_bytes(Format::Wpb).unwrap();
                prop_assert_eq!(&DeployBundle::from_bytes(&bytes).unwrap(), &b);
                prop_assert_eq!(&DeployBundle::from_reader(bytes.as_slice()).unwrap(), &b);
            }
        }

        /// Every index coding the chooser can emit decodes its own stream
        /// back bit-identically.
        #[test]
        fn prop_index_coding_round_trips(seed in 0u64..500, skew in 0u32..6, n in 0usize..600) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let indices: Vec<u8> = (0..n)
                .map(|_| {
                    let mut v = rng.gen_range(0..250u32);
                    for _ in 0..skew {
                        v = v.min(rng.gen_range(0..250));
                    }
                    v as u8
                })
                .collect();
            let (coding, stream) = IndexCoding::encode(&indices);
            let back = coding.decode_stream(&stream, indices.len()).unwrap();
            prop_assert_eq!(back, indices);
        }

        /// The chooser never does worse than the raw fixed-width fallback.
        #[test]
        fn prop_chosen_coding_never_expands(seed in 0u64..500, skew in 0u32..6) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let indices: Vec<u8> = (0..512)
                .map(|_| {
                    let mut v = rng.gen_range(0..64u32);
                    for _ in 0..skew {
                        v = v.min(rng.gen_range(0..64));
                    }
                    v as u8
                })
                .collect();
            let max = indices.iter().copied().max().unwrap_or(0);
            let raw_bits = indices.len() as u64 * u64::from(bits_for(u32::from(max)));
            let (coding, stream) = IndexCoding::encode(&indices);
            prop_assert!(coding.coded_bits(indices.len(), stream.len()) <= raw_bits);
        }

        /// The streaming section pipeline reconstructs exactly what the
        /// buffer decode does, with transient scratch bounded by the
        /// largest section — for raw and ANS streams alike.
        #[test]
        fn prop_streaming_equals_buffer_decode(
            seed in 0u64..1000,
            pool_size in 2usize..32,
            skew in 0u32..6,
            hot in 0u8..2,
        ) {
            let mut b = fabricated_bundle(seed, pool_size, LutOrder::WeightOriented, skew);
            if hot == 1 {
                b = with_hot_vector(b, seed);
            }
            let bytes = b.to_bytes(Format::Wpb).unwrap();
            let buffered = DeployBundle::from_bytes(&bytes).unwrap();
            let (streamed, stats) = DeployBundle::from_reader_with_stats(bytes.as_slice()).unwrap();
            prop_assert_eq!(&buffered, &streamed);
            prop_assert!(stats.peak_transient_bytes <= stats.largest_section_bytes);
        }

        /// Truncating a bundle whose pooled stream is ANS coded anywhere
        /// yields a typed error, never a panic or a partial bundle.
        #[test]
        fn prop_truncated_ans_bundles_error(seed in 0u64..300, frac in 0.0f64..1.0) {
            let b = with_hot_vector(fabricated_bundle(seed, 16, LutOrder::InputOriented, 4), seed);
            prop_assert!(is_ans(&pooled_coding(&b)));
            let bytes = b.to_bytes(Format::Wpb).unwrap();
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(DeployBundle::from_reader(&bytes[..cut]).is_err());
        }
    }
}
