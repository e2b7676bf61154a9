//! Native host-speed execution of weight-pool networks.
//!
//! The `wp-kernels` crate executes compressed networks through the
//! cycle-accurate `wp_mcu::Mcu` cost model — ideal for
//! reproducing the paper's on-device latency numbers, but orders of
//! magnitude too slow to actually *serve* inferences. This crate is the
//! other half of the story: the same bit-serial lookup-table arithmetic
//! (SWIS-style shared-weight bit-serial execution, Li et al. 2021) in plain
//! fast Rust, with no cycle charging, plus a threaded batch engine.
//!
//! Four layers:
//!
//! * [`NativeBackend`] — the raw per-op arithmetic: bit-serial LUT
//!   convolution (bit-identical to
//!   [`wp_core::reference::bitserial_conv_acc`], verified by test across
//!   every activation bitwidth, encoding and LUT order), direct int8
//!   convolution, depthwise, dense, pooling and residual ops. Direct,
//!   depthwise and dense layers run one `pmaddwd` kernel per op for solo
//!   and batched calls alike (SSE2 lanes on the swar tier, AVX2 on the
//!   avx2 tier), as do the avx2 tier's register-resident pooled scatter
//!   and the pooling ops; the pooled gather also has a weight-stationary
//!   **batched** form that decodes every tap once per batch tile and is
//!   bit-identical to solo. The LUT
//!   is flattened once into a [`LutCache`] — the host analogue of the
//!   paper's §4.2 SRAM block cache — so lookups are a single indexed load
//!   regardless of the bundle's [`wp_core::LutOrder`].
//! * [`Kernel`] (in [`kernel`]) — the unified per-layer interface: every
//!   compiled layer is an `Arc<dyn Kernel>` executed through its
//!   `run_batch` entry point (bit-identical to mapping the per-image
//!   `run_solo` reference), so the executor never matches on layer kinds
//!   and every layer type batches.
//! * [`PreparedNet`] — a [`wp_core::deploy::DeployBundle`] compiled into a
//!   flat execution plan: pooled convs run bit-serially from the bundle's
//!   index maps, direct convs from its int8 weights, with per-layer
//!   requantization via the exact same [`wp_kernels::OutputQuant`]
//!   arithmetic the instrumented kernels use. One layer loop,
//!   [`PreparedNet::run`], executes every batch; a solo request is a
//!   batch of one. It checks every input plane first
//!   ([`PreparedNet::check_input`]): the plane's length, and that each
//!   code is an `M`-bit code of the plan's encoding.
//! * [`BatchRunner`] — splits one batch into per-worker chunks on
//!   `std::thread::scope` threads; workers share the read-only prepared
//!   network, LUT cache included. It is the one-off threaded form for
//!   tools and benches: the server's micro-batcher runs
//!   [`PreparedNet::run`] on persistent executors with kept arenas.
//!
//! # Example
//!
//! ```
//! use wp_core::reference::{ActEncoding, PooledConvShape};
//! use wp_core::{LookupTable, LutOrder, WeightPool};
//! use wp_engine::NativeBackend;
//!
//! let pool = WeightPool::from_vectors(vec![vec![1.0, -2.0, 0.5, 0.25]]);
//! let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
//! let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
//! let shape =
//!     PooledConvShape { in_ch: 4, out_ch: 1, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
//! let acc = backend.conv_pooled(&[1, 0, 1, 0], &shape, &[0]);
//! assert_eq!(acc.len(), 1);
//! ```

pub mod backend;
pub mod batch;
pub mod bundle;
pub mod finish;
pub mod kernel;
pub mod options;
pub mod scratch;
pub mod trace;

pub use backend::{LutCache, MacRoute, NativeBackend, PreparedIndices, ScatterRoute};
pub use batch::BatchRunner;
pub use bundle::{FinishInput, InputError, PreparedNet};
pub use kernel::{Kernel, KernelCtx};
pub use options::{avx2_available, BackendKind, EngineOptions, ResolvedBackend};
pub use scratch::Scratch;
pub use trace::{
    chrome_trace_json, LatencyHistogram, LatencySnapshot, NetProfile, NetProfileSnapshot, SpanKind,
    TraceBuffer, TraceEvent, TraceSink,
};
