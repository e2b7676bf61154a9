//! The deployable network bundle.
//!
//! Everything a microcontroller needs to run a weight-pool network, in one
//! serializable artifact (the right-hand side of the paper's Figure 1):
//! per-layer pool-index maps, the shared lookup table, the layers kept at
//! int8 (first conv, depthwise, dense), pooling/residual structure, and
//! per-layer requantization parameters.
//!
//! This module also provides the index-stream statistics used by the
//! compression analysis: pool usage histograms and the empirical index
//! entropy (how much further an entropy coder could shrink the index
//! storage below the flat `log2 S` bits — a natural extension the paper
//! leaves open).

pub mod ans;
pub mod codec;
pub mod stream;

use crate::compress::{self, is_compressible};
use crate::netspec::{LayerSpec, NetSpec};
use crate::{LookupTable, PoolConfig, WeightPool};
use codec::{CodecError, Format};
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::Path;
pub use stream::DecodeStats;
use wp_nn::Sequential;
use wp_quant::QuantParams;

/// One convolution's deployment payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConvPayload {
    /// Pool-compressed: canonical-order byte indices into the shared pool.
    Pooled {
        /// Index map in `wp-core::grouping` canonical order.
        indices: Vec<u8>,
    },
    /// Kept at int8 (first layer / layers with non-groupable depth).
    Direct {
        /// `[K, C, R, S]` int8 weights.
        weights: Vec<i8>,
        /// The weight quantization scale.
        scale: f32,
    },
}

/// A deployable weight-pool network bundle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployBundle {
    /// Network shape description (drives the runtime walk).
    pub spec: NetSpec,
    /// The shared weight pool (kept for re-deriving LUTs at other widths).
    pub pool: WeightPool,
    /// The lookup table shipped to flash.
    pub lut: LookupTable,
    /// Per-conv payloads, in `visit_convs` traversal order.
    pub convs: Vec<ConvPayload>,
    /// Activation bitwidth the bundle was calibrated for.
    pub act_bits: u8,
}

impl DeployBundle {
    /// Builds a bundle from a trained, **projected** model.
    ///
    /// The model must already be projected onto `pool` (index maps are read
    /// from its weights). Uncompressed convs are quantized to int8
    /// symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `spec`'s conv count does not match the model's.
    pub fn from_model(
        model: &mut Sequential,
        spec: NetSpec,
        pool: &WeightPool,
        lut: LookupTable,
        cfg: &PoolConfig,
        act_bits: u8,
    ) -> Self {
        let maps = compress::index_maps(model, pool, cfg);
        let mut convs: Vec<ConvPayload> = Vec::with_capacity(maps.len());
        let mut pos = 0usize;
        compress::for_each_conv_indexed(model, |p, conv| {
            debug_assert_eq!(p, pos);
            if let Some(Some(indices)) = maps.get(p) {
                convs.push(ConvPayload::Pooled { indices: indices.clone() });
            } else {
                debug_assert!(!is_compressible(p, conv, cfg));
                let params = QuantParams::symmetric_from_values(conv.weight().data(), 8);
                let weights: Vec<i8> =
                    conv.weight().data().iter().map(|&w| params.quantize(w) as i8).collect();
                convs.push(ConvPayload::Direct { weights, scale: params.scale() });
            }
            pos += 1;
        });
        let conv_specs = spec.layers.iter().filter(|l| matches!(l, LayerSpec::Conv(_))).count();
        assert_eq!(
            conv_specs,
            convs.len(),
            "spec has {conv_specs} convs, model has {}",
            convs.len()
        );
        Self { spec, pool: pool.clone(), lut, convs, act_bits }
    }

    /// Total flash bytes of the bundle's payload (indices + int8 weights +
    /// LUT), excluding biases.
    pub fn flash_bytes(&self) -> usize {
        let mut bytes = self.lut.storage_bytes();
        for c in &self.convs {
            bytes += match c {
                ConvPayload::Pooled { indices } => indices.len(),
                ConvPayload::Direct { weights, .. } => weights.len(),
            };
        }
        for layer in &self.spec.layers {
            if let LayerSpec::Dense { in_features, out_features, .. } = layer {
                bytes += in_features * out_features;
            }
        }
        bytes
    }

    /// Histogram of pool-index usage across every pooled layer.
    pub fn index_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.pool.len()];
        for c in &self.convs {
            if let ConvPayload::Pooled { indices } = c {
                for &i in indices {
                    hist[i as usize] += 1;
                }
            }
        }
        hist
    }

    /// Empirical entropy of the index stream in bits per index.
    ///
    /// Flat coding costs `log2 S` (or 8 in byte-aligned deployments); the
    /// gap to the entropy is the headroom an entropy coder would buy.
    pub fn index_entropy_bits(&self) -> f64 {
        let hist = self.index_histogram();
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0f64;
        for &count in &hist {
            if count > 0 {
                let p = count as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Saves the bundle in the format its path names
    /// ([`Format::for_path`]): `.wpb` writes the entropy-coded binary
    /// format, anything else JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let bytes = self.to_bytes(Format::for_path(path)).map_err(std::io::Error::other)?;
        std::fs::write(path, bytes)
    }

    /// Loads a bundle saved by [`DeployBundle::save`] in either format;
    /// the format is sniffed from the file's magic bytes, so JSON and
    /// `.wpb` files load interchangeably everywhere a bundle path is
    /// accepted (engine loader, server hot-swap, `wp_serve --model`).
    ///
    /// WPB files stream through [`DeployBundle::from_reader`]: peak
    /// transient memory is bounded by the largest section, not the file
    /// size.
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error (truncated or corrupted
    /// WPB files fail their section checksums loudly).
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(std::io::BufReader::new(file)).map_err(|e| match e {
            CodecError::Io(io) => io,
            other => std::io::Error::other(other),
        })
    }

    /// Serializes the bundle in `format`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] when the bundle violates the format's
    /// representable range (a LUT code outside its stated bitwidth).
    pub fn to_bytes(&self, format: Format) -> Result<Vec<u8>, CodecError> {
        match format {
            Format::Json => codec::encode_json(self),
            Format::Wpb => codec::encode_wpb(self),
        }
    }

    /// Reconstructs a bundle from serialized bytes in either format
    /// (sniffed via [`Format::sniff`]).
    ///
    /// # Errors
    ///
    /// A typed [`CodecError`]; truncated or corrupted input fails loudly
    /// rather than yielding a partial bundle.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        match Format::sniff(bytes) {
            Format::Wpb => codec::decode_wpb(bytes).map(|(bundle, _)| bundle),
            Format::Json => codec::decode_json(bytes),
        }
    }

    /// Reads a bundle from any [`Read`] stream, sniffing the format from
    /// the first bytes. WPB streams decode section-by-section through
    /// [`stream::SectionReader`] — no whole-file intermediate buffer is
    /// ever built, and peak transient allocation is bounded by the
    /// largest section. JSON streams (no fixed-size magic; the format is
    /// one document) still buffer fully.
    ///
    /// # Errors
    ///
    /// Returns any [`CodecError`]; stream-level I/O failures surface as
    /// [`CodecError::Io`], truncation as [`CodecError::Truncated`].
    pub fn from_reader<R: Read>(reader: R) -> Result<Self, CodecError> {
        Self::from_reader_with_stats(reader).map(|(bundle, _)| bundle)
    }

    /// [`DeployBundle::from_reader`], also returning [`DecodeStats`] —
    /// the allocation accounting the registry's streaming-reload test
    /// asserts on (`peak_transient_bytes <= largest_section_bytes`).
    ///
    /// # Errors
    ///
    /// Returns any [`CodecError`] from the stream or the codec.
    pub fn from_reader_with_stats<R: Read>(
        mut reader: R,
    ) -> Result<(Self, DecodeStats), CodecError> {
        // Sniff the format from the first 4 bytes without consuming them
        // from the logical stream: WPB gets the streaming section path,
        // anything else is JSON and buffers (serde_json needs the full
        // document anyway).
        let mut head = [0u8; 4];
        let mut got = 0usize;
        while got < head.len() {
            match reader.read(&mut head[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(CodecError::Io(e)),
            }
        }
        let head = &head[..got];
        if Format::sniff(head) == Format::Wpb {
            codec::decode_wpb(head.chain(reader))
        } else {
            let mut bytes = head.to_vec();
            reader.read_to_end(&mut bytes).map_err(CodecError::Io)?;
            let n = bytes.len();
            let bundle = codec::decode_json(&bytes)?;
            let stats = DecodeStats {
                sections: 1,
                largest_section_bytes: n,
                peak_transient_bytes: n,
                total_bytes: n as u64,
            };
            Ok((bundle, stats))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netspec::ConvSpec;
    use rand::SeedableRng;
    use wp_cluster::DistanceMetric;
    use wp_core_test_helpers::*;

    /// Local helpers (kept in a module so the test section reads clean).
    mod wp_core_test_helpers {
        pub use crate::LutOrder;
        pub use wp_nn::{Conv2d, Relu};
    }

    fn setup() -> (Sequential, NetSpec, WeightPool, PoolConfig) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut net = Sequential::new();
        net.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Conv2d::new(8, 16, 3, 1, 1, &mut rng));
        let cfg = PoolConfig::new(8).metric(DistanceMetric::Euclidean);
        let pool = compress::build_pool(&mut net, &cfg, &mut rng).unwrap();
        compress::project(&mut net, &pool, &cfg);
        let spec = NetSpec {
            name: "toy".into(),
            input: (3, 8, 8),
            classes: 0,
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
            ],
        };
        (net, spec, pool, cfg)
    }

    fn bundle() -> DeployBundle {
        let (mut net, spec, pool, cfg) = setup();
        let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
        DeployBundle::from_model(&mut net, spec, &pool, lut, &cfg, 8)
    }

    #[test]
    fn payload_kinds_follow_compressibility() {
        let b = bundle();
        assert!(matches!(b.convs[0], ConvPayload::Direct { .. }));
        assert!(matches!(b.convs[1], ConvPayload::Pooled { .. }));
    }

    #[test]
    fn flash_accounting_counts_all_parts() {
        let b = bundle();
        // Direct conv: 8*3*9 int8 bytes; pooled: 16 filters x 1 group x 9
        // taps = 144 index bytes; LUT 2^8 * 8 entries = 2048 bytes.
        assert_eq!(b.flash_bytes(), 8 * 3 * 9 + 144 + 2048);
    }

    #[test]
    fn histogram_covers_all_indices() {
        let b = bundle();
        let hist = b.index_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 144);
        assert_eq!(hist.len(), 8);
    }

    #[test]
    fn entropy_bounded_by_log2_pool() {
        let b = bundle();
        let h = b.index_entropy_bits();
        assert!(h >= 0.0);
        assert!(h <= (b.pool.len() as f64).log2() + 1e-9, "entropy {h}");
    }

    #[test]
    fn save_load_round_trip() {
        let b = bundle();
        let dir = std::env::temp_dir().join("wp_deploy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        b.save(&path).unwrap();
        let back = DeployBundle::load(&path).unwrap();
        assert_eq!(b, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wpb_save_load_round_trip_by_extension() {
        let b = bundle();
        let dir = std::env::temp_dir().join("wp_deploy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.wpb");
        b.save(&path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert!(raw.starts_with(b"WPB1"), "extension .wpb must write the binary format");
        let back = DeployBundle::load(&path).unwrap();
        assert_eq!(b, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_index_stream_has_zero_entropy() {
        // A bundle whose every conv is direct has an empty index stream;
        // its entropy is 0.0, never NaN.
        let mut b = bundle();
        b.convs[1] = ConvPayload::Direct { weights: vec![0; 8 * 16 * 9], scale: 1.0 };
        assert_eq!(b.index_entropy_bits(), 0.0);
        assert!(!b.index_entropy_bits().is_nan());
        // Same for an empty pooled payload.
        b.convs[1] = ConvPayload::Pooled { indices: Vec::new() };
        assert_eq!(b.index_entropy_bits(), 0.0);
    }

    #[test]
    fn uniform_indices_have_full_entropy() {
        let mut b = bundle();
        // Force a uniform index stream.
        if let ConvPayload::Pooled { indices } = &mut b.convs[1] {
            for (i, v) in indices.iter_mut().enumerate() {
                *v = (i % 8) as u8;
            }
        }
        assert!((b.index_entropy_bits() - 3.0).abs() < 1e-9);
    }
}
