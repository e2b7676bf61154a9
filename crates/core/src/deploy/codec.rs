//! Bundle (de)serialization codecs: JSON and the entropy-coded binary
//! **WPB** format.
//!
//! A [`DeployBundle`]'s dominant storage term is its pool-index streams
//! (SWIS and CIMPool make the same observation), and
//! [`DeployBundle::index_entropy_bits`] measures how far the fixed-width
//! encoding sits above the empirical entropy. WPB closes that gap: each
//! pooled layer's index stream is Rice/Golomb coded with a per-layer
//! parameter chosen from the layer's measured index statistics (with an
//! optional frequency-rank remap for skewed streams, and a raw
//! fixed-width fallback whenever entropy coding would *expand* the
//! stream), the LUT is bit-packed at its entry width, and pool vectors
//! and direct weights are stored as raw little-endian bytes.
//!
//! # WPB layout
//!
//! ```text
//! "WPB1"  magic (4 bytes)
//! u8      version (1 = Rice-era streams, 2 = at least one ANS stream)
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
//! Decoding is **streaming and section-oriented**: the one real decoder
//! ([`WpbCodec::decode_from`]) pulls sections from any [`std::io::Read`]
//! through a [`super::stream::SectionReader`], verifying each CRC and
//! decoding into destinations preallocated from validated counts — peak
//! transient memory is bounded by the largest section, never the whole
//! file. The buffer entry points ([`BundleCodec::decode`],
//! [`DeployBundle::from_bytes`]) run the same streaming decoder over the
//! slice, so the two paths cannot drift apart.
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
//!   [`IndexCoding`]). Because the spec and pool sections precede convs in
//!   every stream this codec writes, pooled index counts are validated
//!   against the spec-derived expectation before anything is allocated.

use super::ans;
use super::stream::{DecodeStats, SectionReader};
use super::{ConvPayload, DeployBundle};
use crate::netspec::{LayerSpec, NetSpec};
use crate::{LookupTable, LutOrder, WeightPool};
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Magic bytes opening every WPB file.
pub const WPB_MAGIC: [u8; 4] = *b"WPB1";

/// The newest WPB format version this codec reads and writes. Version 2
/// added the per-layer ANS index-stream coding; bundles whose every
/// stream still codes as Rice/raw are written as version 1 so pre-ANS
/// readers keep loading them.
pub const WPB_VERSION: u8 = 2;

/// The oldest WPB version this codec still reads.
pub const WPB_MIN_VERSION: u8 = 1;

/// Largest Rice parameter the encoder considers (indices are bytes, so
/// larger parameters always lose to the raw fallback).
const MAX_RICE_K: u8 = 7;

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
    /// The file's version is outside the range this codec reads.
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
                write!(
                    f,
                    "unsupported WPB version {v} (this codec reads versions \
                     {WPB_MIN_VERSION}-{WPB_VERSION})"
                )
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

    /// The codec implementing this format (with the default [`Auto`]
    /// index-codec preference; use [`EncodeOptions`] to force one).
    ///
    /// [`Auto`]: IndexCodecPref::Auto
    pub fn codec(self) -> &'static dyn BundleCodec {
        static WPB: WpbCodec = WpbCodec { pref: IndexCodecPref::Auto };
        match self {
            Format::Json => &JsonCodec,
            Format::Wpb => &WPB,
        }
    }
}

/// Which index-stream entropy coder the WPB encoder may pick per layer.
///
/// [`Auto`](IndexCodecPref::Auto) measures each layer's histogram and
/// takes whichever coding is smallest in actual bits; the forced modes
/// exist for A/B comparisons (`wp_bundle convert --codec`) and for
/// pinning the Rice baseline in benchmarks. Decoding is unaffected — the
/// chosen coding is recorded per layer in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexCodecPref {
    /// Smallest of raw / Rice / Rice+remap / ANS, measured per layer.
    #[default]
    Auto,
    /// Restrict to the WPB v1 codings (raw / Rice / Rice+remap).
    Rice,
    /// Force tabled ANS on every non-empty stream.
    Ans,
}

impl IndexCodecPref {
    /// Short lowercase name (`auto`, `rice`, `ans`).
    pub fn name(self) -> &'static str {
        match self {
            IndexCodecPref::Auto => "auto",
            IndexCodecPref::Rice => "rice",
            IndexCodecPref::Ans => "ans",
        }
    }
}

impl std::str::FromStr for IndexCodecPref {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(IndexCodecPref::Auto),
            "rice" => Ok(IndexCodecPref::Rice),
            "ans" => Ok(IndexCodecPref::Ans),
            other => Err(format!("unknown index codec {other:?} (auto|rice|ans)")),
        }
    }
}

impl fmt::Display for IndexCodecPref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The one place a bundle's serialization is chosen: format plus
/// index-codec preference. [`DeployBundle::save`], [`DeployBundle::to_bytes`],
/// the `wp_bundle` CLI and the server registry all route through this,
/// so path-based and explicit-format call sites cannot disagree about
/// which codec a given target gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    format: Format,
    index_codec: IndexCodecPref,
}

impl EncodeOptions {
    /// Options for an explicit format with the default ([`Auto`]) index
    /// codec.
    ///
    /// [`Auto`]: IndexCodecPref::Auto
    pub fn new(format: Format) -> Self {
        Self { format, index_codec: IndexCodecPref::Auto }
    }

    /// The selection rule shared by every path-based writer: format from
    /// the extension ([`Format::for_path`]), [`Auto`] index codec.
    ///
    /// [`Auto`]: IndexCodecPref::Auto
    pub fn for_path(path: &Path) -> Self {
        Self::new(Format::for_path(path))
    }

    /// Forces a per-layer index codec (ignored by the JSON format, which
    /// has no coded streams).
    pub fn with_index_codec(mut self, pref: IndexCodecPref) -> Self {
        self.index_codec = pref;
        self
    }

    /// The chosen format.
    pub fn format(&self) -> Format {
        self.format
    }

    /// The chosen index-codec preference.
    pub fn index_codec(&self) -> IndexCodecPref {
        self.index_codec
    }

    /// Serializes `bundle` under these options.
    ///
    /// # Errors
    ///
    /// Returns any [`CodecError`] from the codec.
    pub fn encode(&self, bundle: &DeployBundle) -> Result<Vec<u8>, CodecError> {
        match self.format {
            Format::Json => JsonCodec.encode(bundle),
            Format::Wpb => WpbCodec::with_pref(self.index_codec).encode(bundle),
        }
    }
}

/// Format-agnostic bundle (de)serialization.
///
/// Both implementations are round-trip equal by construction:
/// `decode(encode(b)) == b` for every valid bundle (pinned by unit and
/// property tests, including both [`LutOrder`]s and both
/// [`ConvPayload`] kinds).
pub trait BundleCodec: Sync {
    /// The format this codec implements.
    fn format(&self) -> Format;

    /// Serializes `bundle` to bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] if the bundle violates the
    /// format's representable range (e.g. LUT codes outside their stated
    /// bitwidth).
    fn encode(&self, bundle: &DeployBundle) -> Result<Vec<u8>, CodecError>;

    /// Reconstructs a bundle from bytes produced by [`BundleCodec::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`]; truncated or corrupted input fails
    /// loudly rather than yielding a partial bundle.
    fn decode(&self, bytes: &[u8]) -> Result<DeployBundle, CodecError>;
}

/// The JSON codec (serde over the vendored shim).
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

impl BundleCodec for JsonCodec {
    fn format(&self) -> Format {
        Format::Json
    }

    fn encode(&self, bundle: &DeployBundle) -> Result<Vec<u8>, CodecError> {
        serde_json::to_string(bundle)
            .map(String::into_bytes)
            .map_err(|e| CodecError::Malformed(format!("json: {e}")))
    }

    fn decode(&self, bytes: &[u8]) -> Result<DeployBundle, CodecError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Malformed("json bundle is not UTF-8".into()))?;
        let bundle =
            serde_json::from_str(text).map_err(|e| CodecError::Malformed(format!("json: {e}")))?;
        check_pool_indices(&bundle)?;
        Ok(bundle)
    }
}

/// The entropy-coded binary codec (see the module docs for the layout).
///
/// Carries the per-layer index-codec preference used at encode time;
/// decoding reads whatever coding each layer recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct WpbCodec {
    /// Index-stream codec preference applied to every pooled layer.
    pub pref: IndexCodecPref,
}

impl WpbCodec {
    /// A codec with a forced index-stream preference.
    pub fn with_pref(pref: IndexCodecPref) -> Self {
        Self { pref }
    }

    /// Streaming decode from any [`Read`]: sections are pulled one at a
    /// time through a [`SectionReader`], so peak transient memory is
    /// bounded by the largest section rather than the whole stream. This
    /// is *the* WPB decoder — the buffer path runs it over a slice.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`]; truncated or corrupted streams
    /// fail loudly rather than yielding a partial bundle.
    pub fn decode_from<R: Read>(reader: R) -> Result<DeployBundle, CodecError> {
        Self::decode_from_with_stats(reader).map(|(bundle, _)| bundle)
    }

    /// [`WpbCodec::decode_from`] plus [`DecodeStats`] accounting of what
    /// the decode buffered — the hook behind the "peak transient stays
    /// <= largest section" tests.
    ///
    /// # Errors
    ///
    /// As [`WpbCodec::decode_from`].
    pub fn decode_from_with_stats<R: Read>(
        reader: R,
    ) -> Result<(DeployBundle, DecodeStats), CodecError> {
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
                    // The spec and pool sections precede convs in every
                    // stream we write, so pooled index counts can be
                    // validated against the spec-derived expectation and
                    // destinations preallocated exactly.
                    let ctx = ConvContext::from_sections(spec.as_ref(), pool.as_ref());
                    let payload = r.payload(&header, name)?;
                    let decoded = decode_convs(payload, ctx.as_ref())?;
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
}

impl BundleCodec for WpbCodec {
    fn format(&self) -> Format {
        Format::Wpb
    }

    fn encode(&self, bundle: &DeployBundle) -> Result<Vec<u8>, CodecError> {
        // Sections are built before the header: the version byte depends
        // on whether any layer chose ANS (version 2) so Rice-era readers
        // keep loading bundles that don't use the new coding.
        let spec = encode_spec(&bundle.spec)?;
        let pool = encode_pool(&bundle.pool);
        let lut = encode_lut(&bundle.lut)?;
        let (convs, used_ans) = encode_convs(&bundle.convs, self.pref);
        let version = if used_ans { WPB_VERSION } else { WPB_MIN_VERSION };

        let mut out = Vec::new();
        out.extend_from_slice(&WPB_MAGIC);
        out.push(version);
        out.push(bundle.act_bits);
        // The header gets its own checksum: act_bits lives outside every
        // section, and a flipped bit there would otherwise decode into a
        // quietly wrong bundle.
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        write_section(&mut out, SEC_SPEC, &spec);
        write_section(&mut out, SEC_POOL, &pool);
        write_section(&mut out, SEC_LUT, &lut);
        write_section(&mut out, SEC_CONVS, &convs);
        Ok(out)
    }

    fn decode(&self, bytes: &[u8]) -> Result<DeployBundle, CodecError> {
        Self::decode_from(bytes)
    }
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
    if !(WPB_MIN_VERSION..=WPB_VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let act_bits = r.read_u8("act_bits")?;
    let header_crc = r.read_u32le("header checksum")?;
    if crc32(&[magic.as_slice(), &[version, act_bits]].concat()) != header_crc {
        return Err(CodecError::Checksum("header"));
    }
    Ok(act_bits)
}

/// The index coding each conv payload in a WPB byte buffer **actually
/// recorded** — as opposed to what [`IndexCoding::choose`] would pick
/// for the decoded streams today. Entries align with
/// [`DeployBundle::convs`]; `None` marks a direct (int8) conv, which
/// carries no index stream. This is what `wp_bundle inspect` reports
/// for `.wpb` files, and how a forced `--codec` conversion is audited.
///
/// # Errors
///
/// Returns a typed [`CodecError`] for non-WPB input or malformed convs
/// sections.
pub fn wpb_recorded_codings(bytes: &[u8]) -> Result<Vec<Option<IndexCoding>>, CodecError> {
    let mut r = SectionReader::new(bytes);
    read_wpb_prologue(&mut r)?;
    while let Some(header) = r.next_section()? {
        if header.tag != SEC_CONVS {
            r.skip_payload(&header)?;
            continue;
        }
        let payload = r.payload(&header, "convs")?;
        let mut b = ByteReader::new(payload);
        let n = b.varint("conv count")? as usize;
        if n > b.remaining() / 2 + 1 {
            return Err(CodecError::Malformed(format!(
                "{n} convs in a {}-byte section",
                payload.len()
            )));
        }
        let mut codings = Vec::with_capacity(n);
        for _ in 0..n {
            match b.u8("conv kind")? {
                0 => {
                    b.varint("index count")?;
                    let coding = IndexCoding::read_header(&mut b)?;
                    let stream_len = b.varint("index stream length")? as usize;
                    b.take(stream_len, "index stream")?;
                    codings.push(Some(coding));
                }
                1 => {
                    let count = b.varint("weight count")? as usize;
                    b.u32le("weight scale")?;
                    b.take(count, "direct weights")?;
                    codings.push(None);
                }
                other => {
                    return Err(CodecError::Malformed(format!("unknown conv payload kind {other}")))
                }
            }
        }
        return Ok(codings);
    }
    Err(CodecError::Truncated("missing convs section"))
}

/// Rejects a bundle whose pooled index maps address a vector outside the
/// pool (or outside the LUT, should the two disagree): the engine's
/// batched scatter would read a neighbouring position's partials instead
/// of failing. Run by both decoders after the whole bundle is read, so
/// the check holds whatever order the sections arrived in.
fn check_pool_indices(bundle: &DeployBundle) -> Result<(), CodecError> {
    let pool = bundle.pool.len().min(bundle.lut.pool_size());
    for (position, conv) in bundle.convs.iter().enumerate() {
        let ConvPayload::Pooled { indices } = conv else { continue };
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

fn encode_convs(convs: &[ConvPayload], pref: IndexCodecPref) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    let mut used_ans = false;
    write_varint(&mut out, convs.len() as u64);
    for conv in convs {
        match conv {
            ConvPayload::Pooled { indices } => {
                out.push(0);
                write_varint(&mut out, indices.len() as u64);
                let coding = IndexCoding::choose_with(indices, pref);
                used_ans |= matches!(coding, IndexCoding::Ans { .. });
                coding.write_header(&mut out);
                let stream = coding.encode_stream(indices);
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
    (out, used_ans)
}

/// Spec/pool-derived expectations for the convs section: how many conv
/// payloads there should be and, per pooled layer, how many indices.
/// Built when the spec and pool sections were decoded first (which is
/// how this codec always writes them).
struct ConvContext {
    /// Per conv (in spec order): expected pooled index count, when the
    /// spec marks the conv compressed and the pool's group size divides
    /// its input depth.
    pooled_counts: Vec<Option<usize>>,
}

impl ConvContext {
    fn from_sections(spec: Option<&NetSpec>, pool: Option<&WeightPool>) -> Option<Self> {
        let (spec, pool) = (spec?, pool?);
        let group = pool.group_size();
        if group == 0 {
            return None;
        }
        let pooled_counts = spec
            .layers
            .iter()
            .filter_map(|layer| match layer {
                LayerSpec::Conv(cs) => Some(cs),
                _ => None,
            })
            .map(|cs| {
                (cs.compressed && cs.in_ch % group == 0)
                    .then(|| cs.out_ch * (cs.in_ch / group) * cs.kernel * cs.kernel)
            })
            .collect();
        Some(Self { pooled_counts })
    }
}

fn decode_convs(payload: &[u8], ctx: Option<&ConvContext>) -> Result<Vec<ConvPayload>, CodecError> {
    let mut r = ByteReader::new(payload);
    let n = r.varint("conv count")? as usize;
    // Each conv costs at least two bytes on the wire.
    if n > r.remaining() / 2 + 1 {
        return Err(CodecError::Malformed(format!(
            "{n} convs in a {}-byte section",
            payload.len()
        )));
    }
    if let Some(ctx) = ctx {
        if n != ctx.pooled_counts.len() {
            return Err(CodecError::Malformed(format!(
                "{n} conv payloads but the spec section declares {} convs",
                ctx.pooled_counts.len()
            )));
        }
    }
    let mut convs = Vec::with_capacity(n);
    for position in 0..n {
        match r.u8("conv kind")? {
            0 => {
                let count = r.varint("index count")? as usize;
                // When the spec section was decoded first (always, for
                // streams this codec writes), the index count must not
                // exceed the spec-derived expectation — a crafted count
                // cannot balloon the decode no matter what the coded
                // stream claims it holds.
                let expected = ctx.and_then(|c| c.pooled_counts.get(position).copied().flatten());
                if let Some(expected) = expected {
                    if count > expected {
                        return Err(CodecError::Malformed(format!(
                            "conv {position} claims {count} indices; its spec shape holds {expected}"
                        )));
                    }
                }
                let coding = IndexCoding::read_header(&mut r)?;
                let stream_len = r.varint("index stream length")? as usize;
                let stream = r.take(stream_len, "index stream")?;
                // Fallback cap when no spec expectation exists: bound the
                // claimed count by what the stream could possibly encode
                // (raw width 0 and ANS spend sub-bit per index, so they
                // get coding-aware bounds).
                if count > coding.max_decodable(stream.len(), payload.len()) {
                    return Err(CodecError::Malformed(format!(
                        "{count} indices cannot fit a {}-byte stream",
                        stream.len()
                    )));
                }
                let indices = coding.decode_stream(stream, count)?;
                convs.push(ConvPayload::Pooled { indices });
            }
            1 => {
                let count = r.varint("weight count")? as usize;
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
/// The encoder measures the layer's index histogram and picks whichever
/// representation is smallest *for that layer*:
///
/// * `Raw` — fixed width at the stream's own `ceil(log2(max+1))` bits:
///   the fallback whenever entropy coding would expand the stream (e.g.
///   near-uniform index usage, where fixed width already sits on the
///   entropy).
/// * `Rice` — Rice/Golomb codes of the raw index values with per-layer
///   parameter `k` (quotient in unary, remainder in `k` bits).
/// * `RiceRemap` — Rice codes of frequency ranks: a small rank→index
///   table (stored with the layer) maps the most frequent index to rank
///   0, which turns any skewed histogram into the decaying shape Rice
///   coding wants. The table's 8 bits/entry are charged against the mode
///   when choosing.
/// * `Ans` — tabled rANS over the raw index values (see
///   [`super::ans`]): fractional bits per symbol under the layer's own
///   normalized histogram, which is what closes the gap Rice leaves on
///   non-geometric or low-entropy streams. The normalized frequency
///   table ships with the layer and is charged against the mode when
///   choosing. Introduced in WPB version 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexCoding {
    /// Fixed-width indices at `width` bits each.
    Raw {
        /// Bits per index (0 when every index is 0).
        width: u8,
    },
    /// Rice codes of the raw index values.
    Rice {
        /// The Rice parameter (remainder width).
        k: u8,
    },
    /// Rice codes of frequency ranks via a rank→index side table.
    RiceRemap {
        /// The Rice parameter (remainder width).
        k: u8,
        /// `table[rank]` is the pool index with that frequency rank.
        table: Vec<u8>,
    },
    /// Tabled rANS under a per-layer normalized histogram.
    Ans {
        /// Normalized frequencies summing to [`ans::ANS_TOTAL`],
        /// truncated after the last occurring symbol.
        freqs: Vec<u16>,
    },
}

impl IndexCoding {
    /// Measures `indices` and picks the smallest representation among
    /// every coding (the [`IndexCodecPref::Auto`] rule).
    pub fn choose(indices: &[u8]) -> Self {
        Self::choose_with(indices, IndexCodecPref::Auto)
    }

    /// Measures `indices` and picks a representation under `pref`:
    /// [`Auto`](IndexCodecPref::Auto) takes the smallest in actual coded
    /// bits (side tables included), [`Rice`](IndexCodecPref::Rice)
    /// restricts the choice to the v1 codings, and
    /// [`Ans`](IndexCodecPref::Ans) forces ANS on every non-empty
    /// stream.
    pub fn choose_with(indices: &[u8], pref: IndexCodecPref) -> Self {
        if indices.is_empty() {
            return IndexCoding::Raw { width: 0 };
        }
        let hist = histogram(indices);
        if pref == IndexCodecPref::Ans {
            let freqs = ans::normalize_freqs(&hist).expect("non-empty stream");
            return IndexCoding::Ans { freqs };
        }
        let max = indices.iter().copied().max().expect("non-empty") as u32;
        let width = bits_for(max);
        let mut best = IndexCoding::Raw { width: width as u8 };
        let mut best_bits = indices.len() as u64 * u64::from(width);

        for k in 0..=MAX_RICE_K {
            let bits = rice_cost(&hist, u32::from(k));
            if bits < best_bits {
                best = IndexCoding::Rice { k };
                best_bits = bits;
            }
        }

        // Frequency-rank remap: most frequent symbol becomes rank 0.
        let mut by_freq: Vec<(u8, u64)> =
            hist.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(v, &c)| (v as u8, c)).collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rank_hist = [0u64; 256];
        for (rank, &(_, count)) in by_freq.iter().enumerate() {
            rank_hist[rank] = count;
        }
        let table: Vec<u8> = by_freq.iter().map(|&(v, _)| v).collect();
        let table_bits = 8 * table.len() as u64;
        for k in 0..=MAX_RICE_K {
            let bits = table_bits + rice_cost(&rank_hist, u32::from(k));
            if bits < best_bits {
                best = IndexCoding::RiceRemap { k, table: table.clone() };
                best_bits = bits;
            }
        }

        if pref == IndexCodecPref::Auto {
            // ANS enters the race on its *actual* coded size (header plus
            // real stream), not an estimate — renormalization is
            // byte-granular, and a near-tie decided on an estimate could
            // pick a coding that then expands past the raw fallback.
            let freqs = ans::normalize_freqs(&hist).expect("non-empty stream");
            let candidate = IndexCoding::Ans { freqs };
            if candidate.coded_bits(indices) < best_bits {
                best = candidate;
            }
        }
        best
    }

    /// Total coded bits `encode_stream` will produce for `indices` under
    /// this coding, side table included (used by the size accounting; the
    /// actual stream is byte-padded).
    pub fn coded_bits(&self, indices: &[u8]) -> u64 {
        let hist = histogram(indices);
        match self {
            IndexCoding::Raw { width } => indices.len() as u64 * u64::from(*width),
            IndexCoding::Rice { k } => rice_cost(&hist, u32::from(*k)),
            IndexCoding::RiceRemap { k, table } => {
                let mut rank_hist = [0u64; 256];
                for (rank, &v) in table.iter().enumerate() {
                    rank_hist[rank] = hist[v as usize];
                }
                8 * table.len() as u64 + rice_cost(&rank_hist, u32::from(*k))
            }
            IndexCoding::Ans { freqs } => {
                // Exact: the serialized frequency table plus the real
                // stream (state flush and renormalization included).
                let mut header = Vec::new();
                write_varint(&mut header, freqs.len() as u64);
                for &f in freqs {
                    write_varint(&mut header, u64::from(f));
                }
                8 * (header.len() as u64 + ans::encode(indices, freqs).len() as u64)
            }
        }
    }

    /// Short human-readable description (`raw[4b]`, `rice[k=1]`, ...).
    pub fn describe(&self) -> String {
        match self {
            IndexCoding::Raw { width } => format!("raw[{width}b]"),
            IndexCoding::Rice { k } => format!("rice[k={k}]"),
            IndexCoding::RiceRemap { k, table } => {
                format!("rice+remap[k={k},{} syms]", table.len())
            }
            IndexCoding::Ans { freqs } => {
                format!("ans[{} syms]", freqs.iter().filter(|&&f| f > 0).count())
            }
        }
    }

    /// The most indices a `stream_len`-byte stream could possibly encode
    /// under this coding — the decode-side amplification cap when no
    /// spec-derived expectation is available. Bit codings spend >= 1 bit
    /// per index; raw width 0 is implicit (capped by the section size);
    /// ANS spends at least `log2(total/max_freq)` bits per symbol.
    fn max_decodable(&self, stream_len: usize, section_len: usize) -> usize {
        match self {
            IndexCoding::Raw { width: 0 } => section_len.saturating_mul(8),
            IndexCoding::Ans { freqs } => {
                let max_f = freqs.iter().copied().max().unwrap_or(0);
                let min_bits =
                    (f64::from(ans::ANS_TOTAL) / f64::from(max_f.max(1))).log2().max(1e-4);
                let cap = ((stream_len as f64 * 8.0 + 64.0) / min_bits).min(usize::MAX as f64);
                cap as usize
            }
            _ => stream_len.saturating_mul(8),
        }
    }

    fn write_header(&self, out: &mut Vec<u8>) {
        match self {
            IndexCoding::Raw { width } => {
                out.push(0);
                out.push(*width);
            }
            IndexCoding::Rice { k } => {
                out.push(1);
                out.push(*k);
            }
            IndexCoding::RiceRemap { k, table } => {
                out.push(2);
                out.push(*k);
                write_varint(out, table.len() as u64);
                out.extend_from_slice(table);
            }
            IndexCoding::Ans { freqs } => {
                out.push(3);
                write_varint(out, freqs.len() as u64);
                for &f in freqs {
                    write_varint(out, u64::from(f));
                }
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
            1 => {
                let k = r.u8("rice parameter")?;
                if k > MAX_RICE_K {
                    return Err(CodecError::Malformed(format!(
                        "rice parameter {k} > {MAX_RICE_K}"
                    )));
                }
                Ok(IndexCoding::Rice { k })
            }
            2 => {
                let k = r.u8("rice parameter")?;
                if k > MAX_RICE_K {
                    return Err(CodecError::Malformed(format!(
                        "rice parameter {k} > {MAX_RICE_K}"
                    )));
                }
                let len = r.varint("remap table length")? as usize;
                if len == 0 || len > 256 {
                    return Err(CodecError::Malformed(format!("remap table of {len} entries")));
                }
                let table = r.take(len, "remap table")?.to_vec();
                Ok(IndexCoding::RiceRemap { k, table })
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

    fn encode_stream(&self, indices: &[u8]) -> Vec<u8> {
        if let IndexCoding::Ans { freqs } = self {
            return ans::encode(indices, freqs);
        }
        let mut w = BitWriter::new();
        match self {
            IndexCoding::Ans { .. } => unreachable!("handled above"),
            IndexCoding::Raw { width } => {
                for &v in indices {
                    w.write_bits(u64::from(v), u32::from(*width));
                }
            }
            IndexCoding::Rice { k } => {
                for &v in indices {
                    w.write_rice(u32::from(v), u32::from(*k));
                }
            }
            IndexCoding::RiceRemap { k, table } => {
                let mut rank_of = [0u8; 256];
                for (rank, &v) in table.iter().enumerate() {
                    rank_of[v as usize] = rank as u8;
                }
                for &v in indices {
                    w.write_rice(u32::from(rank_of[v as usize]), u32::from(*k));
                }
            }
        }
        w.into_bytes()
    }

    fn decode_stream(&self, stream: &[u8], count: usize) -> Result<Vec<u8>, CodecError> {
        if let IndexCoding::Ans { freqs } = self {
            let mut out = Vec::with_capacity(count);
            ans::decode_into(stream, freqs, count, &mut out)?;
            return Ok(out);
        }
        let mut b = BitReader::new(stream);
        let mut out = Vec::with_capacity(count);
        match self {
            IndexCoding::Ans { .. } => unreachable!("handled above"),
            IndexCoding::Raw { width } => {
                for _ in 0..count {
                    out.push(b.read_bits(u32::from(*width), "raw index")? as u8);
                }
            }
            IndexCoding::Rice { k } => {
                for _ in 0..count {
                    let v = b.read_rice(u32::from(*k), "index")?;
                    let v = u8::try_from(v).map_err(|_| {
                        CodecError::Malformed(format!("rice-coded index {v} exceeds a byte"))
                    })?;
                    out.push(v);
                }
            }
            IndexCoding::RiceRemap { k, table } => {
                for _ in 0..count {
                    let rank = b.read_rice(u32::from(*k), "index rank")? as usize;
                    let v = *table.get(rank).ok_or_else(|| {
                        CodecError::Malformed(format!(
                            "index rank {rank} outside the {}-entry remap table",
                            table.len()
                        ))
                    })?;
                    out.push(v);
                }
            }
        }
        Ok(out)
    }
}

/// Sum of Rice-coded bit lengths over a value histogram.
fn rice_cost(hist: &[u64; 256], k: u32) -> u64 {
    hist.iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(v, &c)| c * ((v as u64 >> k) + 1 + u64::from(k)))
        .sum()
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
    /// WPB coded size in bits per index (remap table amortized in).
    pub coded_bits: f64,
    /// The chosen coding, human readable.
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
                let coding = IndexCoding::choose(indices);
                let coded = coding.coded_bits(indices);
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

    /// Rice code: quotient `v >> k` in unary (ones, zero-terminated),
    /// then the low `k` remainder bits.
    fn write_rice(&mut self, v: u32, k: u32) {
        for _ in 0..(v >> k) {
            self.push_bit(true);
        }
        self.push_bit(false);
        self.write_bits(u64::from(v), k);
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

    fn read_rice(&mut self, k: u32, what: &'static str) -> Result<u32, CodecError> {
        let mut q = 0u32;
        while self.read_bit(what)? {
            q += 1;
            if q > 4096 {
                return Err(CodecError::Malformed(format!("runaway rice quotient reading {what}")));
            }
        }
        let r = self.read_bits(k, what)? as u32;
        Ok((q << k) | r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netspec::{ConvSpec, LayerSpec};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A hand-built bundle exercising both payload kinds and a controllable
    /// index distribution (`skew` 0 = uniform, larger = more peaked).
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

    #[test]
    fn wpb_round_trips_both_orders_and_payload_kinds() {
        for order in [LutOrder::InputOriented, LutOrder::WeightOriented] {
            for skew in [0, 3] {
                let b = fabricated_bundle(7, 16, order, skew);
                let bytes = WpbCodec::default().encode(&b).unwrap();
                assert_eq!(Format::sniff(&bytes), Format::Wpb);
                let back = WpbCodec::default().decode(&bytes).unwrap();
                assert_eq!(b, back);
            }
        }
    }

    #[test]
    fn json_and_wpb_decode_to_the_same_bundle() {
        let b = fabricated_bundle(9, 8, LutOrder::InputOriented, 2);
        let json = JsonCodec.encode(&b).unwrap();
        let wpb = WpbCodec::default().encode(&b).unwrap();
        assert_eq!(JsonCodec.decode(&json).unwrap(), WpbCodec::default().decode(&wpb).unwrap());
        assert!(wpb.len() < json.len(), "wpb {} vs json {}", wpb.len(), json.len());
    }

    #[test]
    fn empty_index_stream_round_trips() {
        let mut b = fabricated_bundle(3, 4, LutOrder::InputOriented, 0);
        b.convs[1] = ConvPayload::Pooled { indices: Vec::new() };
        let bytes = WpbCodec::default().encode(&b).unwrap();
        assert_eq!(WpbCodec::default().decode(&bytes).unwrap(), b);
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
        let coding = IndexCoding::choose(&uniform);
        assert_eq!(coding, IndexCoding::Raw { width: 4 }, "uniform: {}", coding.describe());
        assert_eq!(coding.coded_bits(&uniform), 4 * 4096);
    }

    #[test]
    fn skewed_streams_choose_rice_and_beat_fixed_width() {
        // Geometric-ish: symbol v with probability ~2^-v.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let skewed: Vec<u8> = (0..4096)
            .map(|_| {
                let mut v = 0u8;
                while v < 15 && rng.gen_range(0..2) == 0 {
                    v += 1;
                }
                v
            })
            .collect();
        let coding = IndexCoding::choose(&skewed);
        assert!(
            matches!(coding, IndexCoding::Rice { .. } | IndexCoding::RiceRemap { .. }),
            "skewed stream should entropy-code, chose {}",
            coding.describe()
        );
        let coded = coding.coded_bits(&skewed) as f64 / skewed.len() as f64;
        let fixed = 4.0;
        let entropy = stream_entropy_bits(&skewed);
        assert!(coded < fixed, "coded {coded:.3} must beat fixed {fixed}");
        assert!(coded <= entropy * 1.15 + 0.2, "coded {coded:.3} vs entropy {entropy:.3}");
    }

    #[test]
    fn remap_handles_skew_on_arbitrary_symbols() {
        // Heavy mass on a *high* index: plain Rice on raw values is poor,
        // the rank remap makes it geometric again.
        let mut stream = vec![200u8; 1000];
        stream.extend(std::iter::repeat_n(13u8, 100));
        stream.extend(std::iter::repeat_n(77u8, 10));
        let coding = IndexCoding::choose(&stream);
        assert!(
            matches!(coding, IndexCoding::RiceRemap { .. }),
            "expected remap, chose {}",
            coding.describe()
        );
        // Round trip through the actual bitstream.
        let stream_bytes = coding.encode_stream(&stream);
        let back = coding.decode_stream(&stream_bytes, stream.len()).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn truncated_files_fail_loudly() {
        let b = fabricated_bundle(5, 8, LutOrder::WeightOriented, 1);
        let bytes = WpbCodec::default().encode(&b).unwrap();
        // Every proper prefix must error, never yield a bundle.
        for cut in [3, 5, 7, bytes.len() / 4, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            let err = WpbCodec::default().decode(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let b = fabricated_bundle(6, 8, LutOrder::InputOriented, 0);
        let mut bytes = WpbCodec::default().encode(&b).unwrap();
        // Flip a bit inside the convs payload (late in the buffer, past
        // every header byte).
        let at = bytes.len() - 40;
        bytes[at] ^= 0x10;
        match WpbCodec::default().decode(&bytes) {
            Err(CodecError::Checksum(_)) | Err(CodecError::Malformed(_)) => {}
            other => panic!("corruption must fail, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_fails_the_header_checksum() {
        // act_bits lives outside every section; a flipped bit there must
        // not decode into a quietly wrong bundle.
        let b = fabricated_bundle(6, 8, LutOrder::InputOriented, 0);
        let mut bytes = WpbCodec::default().encode(&b).unwrap();
        bytes[5] ^= 0x04; // act_bits
        assert!(matches!(WpbCodec::default().decode(&bytes), Err(CodecError::Checksum("header"))));
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

        let huge_convs = {
            let mut p = Vec::new();
            write_varint(&mut p, 1); // one conv
            p.push(0); // pooled
            write_varint(&mut p, 1 << 50); // indices "count"
            p.push(0); // raw mode
            p.push(0); // width 0 (zero stream bits per index)
            write_varint(&mut p, 0); // empty stream
            p
        };
        assert!(decode_convs(&huge_convs, None).is_err());

        let many_convs = {
            let mut p = Vec::new();
            write_varint(&mut p, 1 << 55);
            p
        };
        assert!(decode_convs(&many_convs, None).is_err());
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let b = fabricated_bundle(8, 4, LutOrder::InputOriented, 0);
        let bytes = WpbCodec::default().encode(&b).unwrap();
        assert!(matches!(WpbCodec::default().decode(b"JSON{}"), Err(CodecError::BadMagic)));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            WpbCodec::default().decode(&wrong_version),
            Err(CodecError::UnsupportedVersion(99))
        ));
        // The first version past the readable range; the message names
        // the whole range, not just the newest version.
        wrong_version[4] = 3;
        let err = WpbCodec::default().decode(&wrong_version).unwrap_err();
        assert!(matches!(err, CodecError::UnsupportedVersion(3)), "{err:?}");
        assert_eq!(err.to_string(), "unsupported WPB version 3 (this codec reads versions 1-2)");
    }

    /// A pooled index past the pool encodes fine (the codecs are
    /// symbol-agnostic) but must not decode, in either format and through
    /// the streaming path too.
    #[test]
    fn out_of_pool_indices_are_malformed_in_both_formats() {
        let mut b = fabricated_bundle(21, 16, LutOrder::InputOriented, 2);
        let ConvPayload::Pooled { indices } = &mut b.convs[1] else {
            panic!("fabricated conv 1 is pooled");
        };
        indices[7] = 16;
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

    #[test]
    fn format_sniffing_and_extensions() {
        assert_eq!(Format::sniff(b"WPB1...."), Format::Wpb);
        assert_eq!(Format::sniff(b"{\"spec\":..."), Format::Json);
        assert_eq!(Format::for_path(Path::new("m.wpb")), Format::Wpb);
        assert_eq!(Format::for_path(Path::new("m.WPB")), Format::Wpb);
        assert_eq!(Format::for_path(Path::new("m.json")), Format::Json);
        assert_eq!(Format::for_path(Path::new("m")), Format::Json);
        assert_eq!(Format::Wpb.codec().format(), Format::Wpb);
        assert_eq!(Format::Json.codec().format(), Format::Json);
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
    fn rice_only_bundles_keep_wire_version_1() {
        // Old readers must keep working as long as no layer actually uses
        // the v2 ANS coding: the version byte is data-dependent.
        let b = fabricated_bundle(7, 16, LutOrder::InputOriented, 0);
        let rice = WpbCodec::with_pref(IndexCodecPref::Rice).encode(&b).unwrap();
        assert_eq!(rice[4], WPB_MIN_VERSION, "rice-only bundle must stay readable by v1");
        let ans = WpbCodec::with_pref(IndexCodecPref::Ans).encode(&b).unwrap();
        assert_eq!(ans[4], WPB_VERSION, "ans bundle needs the v2 reader");
        assert_eq!(WpbCodec::decode_from(ans.as_slice()).unwrap(), b);
    }

    #[test]
    fn truncated_and_corrupted_ans_bundles_fail_loudly() {
        // Mirror of the Rice corruption suite under the forced-ANS codec:
        // every truncation and byte flip is a typed error, never a panic
        // or a partial bundle.
        let b = fabricated_bundle(13, 16, LutOrder::WeightOriented, 3);
        let bytes = WpbCodec::with_pref(IndexCodecPref::Ans).encode(&b).unwrap();
        assert_eq!(WpbCodec::decode_from(bytes.as_slice()).unwrap(), b);
        for cut in [3, 5, 7, bytes.len() / 4, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                WpbCodec::decode_from(&bytes[..cut]).is_err(),
                "ans prefix of {cut} bytes decoded successfully"
            );
        }
        for at in (10..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            match WpbCodec::decode_from(bad.as_slice()) {
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
        let bytes = WpbCodec::default().encode(&b).unwrap();
        let mut with_extra = bytes[..10].to_vec(); // magic+version+act_bits+crc
        let payload = [1u8, 2, 3, 4, 5];
        with_extra.push(200); // tag from the unknown range
        write_varint(&mut with_extra, payload.len() as u64);
        with_extra.extend_from_slice(&payload);
        with_extra.extend_from_slice(&crc32(&payload).to_le_bytes());
        with_extra.extend_from_slice(&bytes[10..]);

        assert_eq!(WpbCodec::decode_from(with_extra.as_slice()).unwrap(), b);
        let (decoded, stats) = WpbCodec::decode_from_with_stats(with_extra.as_slice()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(stats.total_bytes as usize, with_extra.len());

        // Corrupting the unknown payload still fails its checksum.
        let mut bad = with_extra.clone();
        bad[12] ^= 0xFF;
        assert!(matches!(
            WpbCodec::decode_from(bad.as_slice()),
            Err(CodecError::Checksum("unknown"))
        ));
    }

    #[test]
    fn streaming_decode_matches_buffer_decode_with_bounded_scratch() {
        for pref in [IndexCodecPref::Auto, IndexCodecPref::Rice, IndexCodecPref::Ans] {
            let b = fabricated_bundle(23, 32, LutOrder::WeightOriented, 2);
            let bytes = WpbCodec::with_pref(pref).encode(&b).unwrap();
            let buffered = WpbCodec::default().decode(&bytes).unwrap();
            let (streamed, stats) = WpbCodec::decode_from_with_stats(bytes.as_slice()).unwrap();
            assert_eq!(buffered, streamed);
            assert_eq!(streamed, b);
            assert!(stats.peak_transient_bytes <= stats.largest_section_bytes);
            assert_eq!(stats.total_bytes as usize, bytes.len());
            assert_eq!(stats.sections, 4, "spec, pool, lut, convs");
        }
    }

    #[test]
    fn low_entropy_streams_choose_ans_below_rice_floor() {
        // Rice spends >= 1 bit per symbol; a heavily repeated stream has
        // sub-bit entropy, which only ANS can reach. The chooser must pick
        // it and actually land below 1 bit/symbol.
        let mut indices = vec![3u8; 6000];
        for i in 0..200 {
            indices[i * 30] = (i % 5) as u8;
        }
        let coding = IndexCoding::choose(&indices);
        assert!(
            matches!(coding, IndexCoding::Ans { .. }),
            "sub-bit stream should pick ans, chose {}",
            coding.describe()
        );
        let per_sym = coding.coded_bits(&indices) as f64 / indices.len() as f64;
        assert!(per_sym < 1.0, "ans must beat the 1 bit/sym rice floor, got {per_sym:.3}");
        let stream = coding.encode_stream(&indices);
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
        w.write_rice(37, 3);
        w.write_rice(0, 0);
        w.write_bits(0x5A5A, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4, "t").unwrap(), 0b1011);
        assert_eq!(r.read_rice(3, "t").unwrap(), 37);
        assert_eq!(r.read_rice(0, "t").unwrap(), 0);
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
        /// pools, orders, skews and payload mixes.
        #[test]
        fn prop_wpb_round_trip_equals_json(
            seed in 0u64..1000,
            pool_size in 2usize..32,
            order_bit in 0u8..2,
            skew in 0u32..5,
        ) {
            let order = if order_bit == 0 {
                LutOrder::InputOriented
            } else {
                LutOrder::WeightOriented
            };
            let b = fabricated_bundle(seed, pool_size, order, skew);
            let wpb = WpbCodec::default().encode(&b).unwrap();
            let json = JsonCodec.encode(&b).unwrap();
            prop_assert_eq!(&WpbCodec::default().decode(&wpb).unwrap(), &b);
            prop_assert_eq!(&JsonCodec.decode(&json).unwrap(), &b);
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
            let coding = IndexCoding::choose(&indices);
            let stream = coding.encode_stream(&indices);
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
            let coding = IndexCoding::choose(&indices);
            prop_assert!(coding.coded_bits(&indices) <= raw_bits);
        }

        /// Forced-ANS and forced-Rice bundles reconstruct the identical
        /// bundle on fuzzed skewed and uniform index streams — codec
        /// choice is a size concern, never a fidelity one.
        #[test]
        fn prop_ans_and_rice_decode_identically(
            seed in 0u64..1000,
            pool_size in 2usize..32,
            skew in 0u32..6,
        ) {
            let b = fabricated_bundle(seed, pool_size, LutOrder::InputOriented, skew);
            let rice = WpbCodec::with_pref(IndexCodecPref::Rice).encode(&b).unwrap();
            let ans = WpbCodec::with_pref(IndexCodecPref::Ans).encode(&b).unwrap();
            prop_assert_eq!(&WpbCodec::decode_from(rice.as_slice()).unwrap(), &b);
            prop_assert_eq!(&WpbCodec::decode_from(ans.as_slice()).unwrap(), &b);
        }

        /// The streaming section pipeline reconstructs exactly what the
        /// buffer decode does, with transient scratch bounded by the
        /// largest section — for every codec preference.
        #[test]
        fn prop_streaming_equals_buffer_decode(
            seed in 0u64..1000,
            pool_size in 2usize..32,
            skew in 0u32..6,
            pref_bit in 0u8..3,
        ) {
            let pref = match pref_bit {
                0 => IndexCodecPref::Auto,
                1 => IndexCodecPref::Rice,
                _ => IndexCodecPref::Ans,
            };
            let b = fabricated_bundle(seed, pool_size, LutOrder::WeightOriented, skew);
            let bytes = WpbCodec::with_pref(pref).encode(&b).unwrap();
            let buffered = WpbCodec::default().decode(&bytes).unwrap();
            let (streamed, stats) = WpbCodec::decode_from_with_stats(bytes.as_slice()).unwrap();
            prop_assert_eq!(&buffered, &streamed);
            prop_assert!(stats.peak_transient_bytes <= stats.largest_section_bytes);
        }

        /// Truncating a forced-ANS bundle anywhere yields a typed error,
        /// never a panic or a partial bundle.
        #[test]
        fn prop_truncated_ans_bundles_error(seed in 0u64..300, frac in 0.0f64..1.0) {
            let b = fabricated_bundle(seed, 16, LutOrder::InputOriented, 4);
            let bytes = WpbCodec::with_pref(IndexCodecPref::Ans).encode(&b).unwrap();
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(WpbCodec::decode_from(&bytes[..cut]).is_err());
        }
    }
}
