//! Backend selection and engine compile options.
//!
//! The engine carries three kernel tiers that all compute identical
//! integers (pinned by the cross-backend parity tests):
//!
//! * **scalar** — the straightforward per-element reference loops; the
//!   always-available fallback, and the baseline the SWAR tier is gated
//!   against in `engine_throughput`.
//! * **swar** — the 8×8 bit-matrix transpose (a `u64` SWAR trick) in the
//!   pooled-conv fill, the weight-stationary batched pooled-gather tiles
//!   with fused bias+requant write-out, and the madd kernels for direct,
//!   depthwise and dense layers
//!   ([`crate::backend::MacRoute`]) on SSE2, which every x86-64 CPU has
//!   (plain arrays on other targets). No run-time detection needed.
//! * **avx2** — the same kernels with the madd route's 256-bit AVX2
//!   build, plus the register-resident `vpshufb` scatter for pooled
//!   convs whose pool and LUT fit it
//!   ([`crate::backend::ScatterRoute`]). Layers outside a route's
//!   plan-time range proof run the exact reference loop (direct,
//!   depthwise, dense) or the gather (pooled). Selected only when the
//!   CPU reports AVX2 at run time.
//!
//! Callers pick a tier through [`BackendKind`] on the [`EngineOptions`]
//! builder; `Auto` resolves via runtime CPU detection (and honors the
//! `WP_BACKEND` environment variable, which is how CI forces every test
//! suite through each tier).

use wp_core::reference::ActEncoding;

/// Which kernel tier to compile a plan against.
///
/// `Auto` is the default and resolves at plan-compile time: the
/// `WP_BACKEND` environment variable (`scalar`, `swar`, `avx2`) wins if
/// set and valid, otherwise CPU detection picks `avx2` on x86-64 parts
/// that report AVX2 and `swar` everywhere else. An explicit `Avx2`
/// request on a machine without AVX2 falls back to `swar` (the portable
/// superset of its arithmetic) rather than failing — the resolved tier
/// is always observable via [`crate::PreparedNet::backend_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Resolve from `WP_BACKEND` / CPU detection (the default).
    Auto,
    /// The per-element reference loops (always available).
    Scalar,
    /// Batched tile kernels and the SSE2 (or portable) madd kernels.
    Swar,
    /// `std::arch` AVX2 kernels: the register-resident pooled scatter and
    /// the madd direct, depthwise and dense kernels at 256 bits.
    Avx2,
}

impl BackendKind {
    /// The canonical flag/env spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Scalar => "scalar",
            BackendKind::Swar => "swar",
            BackendKind::Avx2 => "avx2",
        }
    }

    /// Resolves the selection to a concrete tier (see the type docs for
    /// the `Auto` rules).
    pub fn resolve(self) -> ResolvedBackend {
        let requested = match self {
            BackendKind::Auto => std::env::var("WP_BACKEND")
                .ok()
                .and_then(|s| s.parse::<BackendKind>().ok())
                .unwrap_or(BackendKind::Auto),
            explicit => explicit,
        };
        match requested {
            BackendKind::Auto => {
                if avx2_available() {
                    ResolvedBackend::Avx2
                } else {
                    ResolvedBackend::Swar
                }
            }
            BackendKind::Scalar => ResolvedBackend::Scalar,
            BackendKind::Swar => ResolvedBackend::Swar,
            BackendKind::Avx2 => {
                if avx2_available() {
                    ResolvedBackend::Avx2
                } else {
                    ResolvedBackend::Swar
                }
            }
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendKind::Auto),
            "scalar" => Ok(BackendKind::Scalar),
            "swar" => Ok(BackendKind::Swar),
            "avx2" => Ok(BackendKind::Avx2),
            other => Err(format!("unknown backend {other:?} (expected auto|scalar|swar|avx2)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether this CPU can run the avx2 tier's kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A concrete kernel tier, after `Auto` resolution — what a compiled
/// plan actually executes with, and what the server reports per model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Per-element reference loops.
    Scalar,
    /// Batched tile kernels and the SSE2 (or portable) madd kernels.
    Swar,
    /// AVX2 register-resident pooled scatter and 256-bit madd direct,
    /// depthwise and dense kernels.
    Avx2,
}

impl ResolvedBackend {
    /// The reporting name (`/v1/models`, `/metrics`, logs).
    pub fn name(self) -> &'static str {
        match self {
            ResolvedBackend::Scalar => "scalar",
            ResolvedBackend::Swar => "swar",
            ResolvedBackend::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for ResolvedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs for compiling a bundle into a [`crate::PreparedNet`], built
/// fluently:
///
/// ```
/// use wp_engine::{BackendKind, EngineOptions};
///
/// let opts = EngineOptions::new().with_act_bits(4).with_backend(BackendKind::Scalar);
/// assert_eq!(opts.act_bits(), Some(4));
/// ```
///
/// Construction goes through [`EngineOptions::new`] (or `default()`) and
/// the `with_*` setters; the fields themselves are sealed so every
/// construction site states exactly the knobs it changes.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Activation bitwidth override; `None` uses the bundle's calibrated
    /// `act_bits`.
    pub(crate) act_bits: Option<u8>,
    /// Activation bit decomposition (the bundle's layers are post-ReLU,
    /// so unsigned is the paper's setting).
    pub(crate) encoding: ActEncoding,
    /// Real multiplier scaling accumulators into the next layer's code
    /// range (the simulator uses the same default).
    pub(crate) requant_multiplier: f64,
    /// Per-layer requant multipliers, indexed over the bundle's
    /// *requantized* layers (convs, depthwise, dense) in walk order;
    /// layers beyond the vector fall back to `requant_multiplier`.
    pub(crate) layer_multipliers: Option<Vec<f64>>,
    /// Seed for the fabricated depthwise/dense weights.
    pub(crate) weight_seed: u64,
    /// Kernel tier selection, resolved at plan-compile time.
    pub(crate) backend: BackendKind,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            act_bits: None,
            encoding: ActEncoding::Unsigned,
            requant_multiplier: 2e-4,
            layer_multipliers: None,
            weight_seed: 0x5EED,
            backend: BackendKind::Auto,
        }
    }
}

impl EngineOptions {
    /// The default options (the builder's starting point).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the activation bitwidth (1..=8; `from_bundle` panics on
    /// out-of-range values, same as before).
    pub fn with_act_bits(mut self, bits: u8) -> Self {
        self.act_bits = Some(bits);
        self
    }

    /// Sets the activation bit decomposition.
    pub fn with_encoding(mut self, encoding: ActEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the global requant multiplier.
    pub fn with_requant_multiplier(mut self, multiplier: f64) -> Self {
        self.requant_multiplier = multiplier;
        self
    }

    /// Sets (or clears) the per-layer requant multipliers — see
    /// [`crate::PreparedNet::calibrate_multipliers`].
    pub fn with_layer_multipliers(mut self, multipliers: Option<Vec<f64>>) -> Self {
        self.layer_multipliers = multipliers;
        self
    }

    /// Sets the fabricated-weight seed.
    pub fn with_weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// Selects the kernel tier.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The activation bitwidth override, if any.
    pub fn act_bits(&self) -> Option<u8> {
        self.act_bits
    }

    /// The activation encoding.
    pub fn encoding(&self) -> ActEncoding {
        self.encoding
    }

    /// The global requant multiplier.
    pub fn requant_multiplier(&self) -> f64 {
        self.requant_multiplier
    }

    /// The per-layer requant multipliers, if calibrated.
    pub fn layer_multipliers(&self) -> Option<&[f64]> {
        self.layer_multipliers.as_deref()
    }

    /// The fabricated-weight seed.
    pub fn weight_seed(&self) -> u64 {
        self.weight_seed
    }

    /// The selected (unresolved) kernel tier.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [BackendKind::Auto, BackendKind::Scalar, BackendKind::Swar, BackendKind::Avx2] {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("SWAR".parse::<BackendKind>().unwrap(), BackendKind::Swar);
        assert!("neon".parse::<BackendKind>().is_err());
    }

    #[test]
    fn explicit_kinds_resolve_to_themselves() {
        assert_eq!(BackendKind::Scalar.resolve(), ResolvedBackend::Scalar);
        assert_eq!(BackendKind::Swar.resolve(), ResolvedBackend::Swar);
        // Avx2 resolves to itself where available and degrades to swar
        // elsewhere — never to scalar.
        assert_ne!(BackendKind::Avx2.resolve(), ResolvedBackend::Scalar);
        // Auto picks some real tier.
        let auto = BackendKind::Auto.resolve();
        assert!(matches!(
            auto,
            ResolvedBackend::Swar | ResolvedBackend::Avx2 | ResolvedBackend::Scalar
        ));
    }

    #[test]
    fn builder_sets_every_knob() {
        let opts = EngineOptions::new()
            .with_act_bits(3)
            .with_encoding(ActEncoding::SignedTwosComplement)
            .with_requant_multiplier(0.5)
            .with_layer_multipliers(Some(vec![1.0, 2.0]))
            .with_weight_seed(7)
            .with_backend(BackendKind::Swar);
        assert_eq!(opts.act_bits(), Some(3));
        assert_eq!(opts.encoding(), ActEncoding::SignedTwosComplement);
        assert_eq!(opts.requant_multiplier(), 0.5);
        assert_eq!(opts.layer_multipliers(), Some(&[1.0, 2.0][..]));
        assert_eq!(opts.weight_seed(), 7);
        assert_eq!(opts.backend(), BackendKind::Swar);
        let cleared = opts.with_layer_multipliers(None);
        assert_eq!(cleared.layer_multipliers(), None);
    }
}
