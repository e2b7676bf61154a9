//! The three workloads: which model, at what activation width, over how
//! many connections, with how many planes per request — and the prebuilt
//! requests with their expected responses.
//!
//! Batch shapes are fixed by construction. The micro-batcher flushes at
//! `max_batch` planes or after `max_wait`; a request carrying exactly
//! `max_batch` planes therefore always flushes as one full batch, and a
//! single connection sending one plane at a time always flushes batches
//! of one. Any other mix lets arrival timing pick the batch sizes, which
//! then differ from run to run.

use crate::client::WireRequest;
use std::collections::BTreeMap;
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::LayerSpec;
use wp_engine::{BatchRunner, EngineOptions, NativeBackend, PreparedNet};
use wp_server::batcher::BatcherConfig;
use wp_server::demo::{demo_bundle, DemoSize};
use wp_server::protocol::{InferRequest, InferResponse};

/// The name the model is deployed under.
pub const MODEL: &str = "bench";

/// The registry recalibrates a reloaded model from 8 samples drawn with
/// this seed; deploying with the same calibration makes every reload
/// reproduce the served plan bit for bit, so responses stay checkable.
pub const CALIBRATION_SEED: u64 = 0xCA11;
/// Samples the registry's reload calibration uses.
pub const CALIBRATION_SAMPLES: usize = 8;

/// Engine layer kinds the benchmark reports, by kernel name.
pub const KINDS: [&str; 4] = ["pooled_conv", "direct_conv", "dw_conv", "dense"];

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pooled-conv demo at 8 bits; two connections of full batches.
    PooledBatch,
    /// Pooled-conv demo at 8 bits; one connection of single planes.
    PooledSolo,
    /// Stem demo (no pooled convs) at 2 bits; two connections of full
    /// batches.
    StemLowbit,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::PooledBatch, Workload::PooledSolo, Workload::StemLowbit];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PooledBatch => "pooled-batch",
            Workload::PooledSolo => "pooled-solo",
            Workload::StemLowbit => "stem-lowbit",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn demo(self) -> DemoSize {
        match self {
            Workload::PooledBatch | Workload::PooledSolo => DemoSize::Serve,
            Workload::StemLowbit => DemoSize::Stem,
        }
    }

    /// The activation width written into the bundle.
    pub fn act_bits(self) -> u8 {
        match self {
            Workload::PooledBatch | Workload::PooledSolo => 8,
            Workload::StemLowbit => 2,
        }
    }

    /// Closed-loop connections (capped by the machine's cores).
    pub fn connections(self, nproc: usize) -> usize {
        let wanted = match self {
            Workload::PooledBatch | Workload::StemLowbit => 2,
            Workload::PooledSolo => 1,
        };
        wanted.min(nproc.max(1))
    }

    /// Planes in every request — also the size of every batch the
    /// micro-batcher forms.
    pub fn planes_per_request(self) -> usize {
        match self {
            Workload::PooledBatch | Workload::StemLowbit => BatcherConfig::default().max_batch,
            Workload::PooledSolo => 1,
        }
    }

    /// Distinct prebuilt requests each connection cycles through.
    fn requests_per_connection(self) -> usize {
        match self {
            Workload::PooledBatch | Workload::StemLowbit => 2,
            Workload::PooledSolo => 64,
        }
    }

    /// The bundle the server is handed: the demo's shape, with weights,
    /// pool and pool indices drawn from `seed`.
    pub fn bundle(self, seed: u64) -> DeployBundle {
        let mut bundle = demo_bundle(self.demo(), seed);
        bundle.act_bits = self.act_bits();
        bundle
    }

    /// Uncalibrated engine options: the fabricated depthwise and dense
    /// weights also come from `seed`.
    pub fn base_options(seed: u64) -> EngineOptions {
        EngineOptions::default().with_weight_seed(mix(seed, 0x5EED))
    }

    /// `base` plus the calibration a deploy (and every reload) computes.
    pub fn calibrated(bundle: &DeployBundle, base: &EngineOptions) -> EngineOptions {
        let multipliers =
            PreparedNet::calibrate_multipliers(bundle, base, CALIBRATION_SAMPLES, CALIBRATION_SEED);
        base.clone().with_layer_multipliers(Some(multipliers))
    }

    /// Per-connection request lists for `conns` connections, inputs drawn
    /// from `seed`, expected bodies from `net.run_one`.
    pub fn requests(self, net: &PreparedNet, conns: usize, seed: u64) -> Vec<Vec<WireRequest>> {
        (0..conns)
            .map(|conn| {
                (0..self.requests_per_connection())
                    .map(|r| {
                        let input_seed = mix(seed, (conn * 1_000 + r) as u64);
                        let inputs = net.fabricate_inputs(self.planes_per_request(), input_seed);
                        infer_request(net, inputs, conn)
                    })
                    .collect()
            })
            .collect()
    }
}

/// One `POST /v1/infer` of `inputs` with its expected response body.
pub fn infer_request(net: &PreparedNet, inputs: Vec<Vec<i32>>, conn: usize) -> WireRequest {
    let outputs: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
    let planes = inputs.len();
    let body = serde_json::to_string(&InferRequest { model: Some(MODEL.into()), inputs })
        .expect("serialize infer request");
    let expected = serde_json::to_string(&InferResponse { model: MODEL.into(), outputs })
        .expect("serialize infer response");
    WireRequest::new("POST", "/v1/infer", body.as_bytes(), conn)
        .expecting(planes, expected.into_bytes())
}

/// Operations per image of each layer kind, counted from the bundle
/// spec: MACs for direct, depthwise and dense layers, index gather-adds
/// (out_ch × groups × k² × output pixels) for pooled layers.
pub fn ops_per_image(bundle: &DeployBundle) -> BTreeMap<&'static str, u64> {
    let mut ops: BTreeMap<&'static str, u64> = KINDS.iter().map(|&k| (k, 0)).collect();
    let mut payloads = bundle.convs.iter();
    for layer in bundle.spec.resolve() {
        let pixels = (layer.out_h * layer.out_w) as u64;
        let (kind, n) = match layer.spec {
            LayerSpec::Conv(cs) => match payloads.next() {
                // One index per (filter, group, tap).
                Some(ConvPayload::Pooled { indices }) => {
                    ("pooled_conv", indices.len() as u64 * pixels)
                }
                _ => {
                    ("direct_conv", (cs.out_ch * cs.in_ch * cs.kernel * cs.kernel) as u64 * pixels)
                }
            },
            LayerSpec::DwConv { channels, kernel, .. } => {
                ("dw_conv", (channels * kernel * kernel) as u64 * pixels)
            }
            LayerSpec::Dense { in_features, out_features, .. } => {
                ("dense", (in_features * out_features) as u64)
            }
            _ => continue,
        };
        *ops.get_mut(kind).expect("reported kind") += n;
    }
    ops
}

/// Planes of a `batch` that the batch runner executes inside full
/// `BATCH_TILE`-image tiles, given the runner's `threads`: the batch is
/// split into contiguous per-worker chunks, and each chunk tiles on its
/// own.
pub fn full_tile_planes(batch: usize, threads: usize) -> usize {
    let workers = BatchRunner::new(threads).planned_workers(batch);
    if workers == 0 {
        return 0;
    }
    let tile = NativeBackend::BATCH_TILE;
    let chunk = batch.div_ceil(workers);
    (0..batch).step_by(chunk).map(|at| (batch - at).min(chunk) / tile * tile).sum()
}

/// SplitMix64 of `a` and `b`: independent seeds for independent streams.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{reply_ok, HttpConn};
    use std::sync::Arc;
    use wp_server::metrics::Metrics;
    use wp_server::registry::ModelRegistry;
    use wp_server::server::{serve, ServerConfig};

    #[test]
    fn ops_per_image_matches_a_hand_count_on_the_tiny_demo() {
        // demo-tiny: 8x6x6 input, direct conv 8->8 (3x3, pad 1), pooled
        // conv 8->16 over 8-wide pool vectors, global pool, dense 16->4.
        let ops = ops_per_image(&demo_bundle(DemoSize::Tiny, 1));
        assert_eq!(ops["direct_conv"], 8 * 8 * 9 * 36);
        assert_eq!(ops["pooled_conv"], 16 * 9 * 36, "16 filters x 1 group x 9 taps x 36 px");
        assert_eq!(ops["dense"], 16 * 4);
        assert_eq!(ops["dw_conv"], 0);
    }

    #[test]
    fn full_tiles_follow_the_runner_split() {
        assert_eq!(full_tile_planes(32, 2), 32, "two chunks of 16");
        assert_eq!(full_tile_planes(1, 2), 0);
        assert_eq!(full_tile_planes(12, 2), 0, "two chunks of 6");
        assert_eq!(full_tile_planes(20, 2), 16, "two chunks of 10");
        assert_eq!(full_tile_planes(17, 1), 16);
        assert_eq!(full_tile_planes(0, 2), 0);
    }

    #[test]
    fn workload_shapes_are_the_promised_ones() {
        let max_batch = BatcherConfig::default().max_batch;
        assert_eq!(Workload::PooledBatch.planes_per_request(), max_batch);
        assert_eq!(Workload::StemLowbit.planes_per_request(), max_batch);
        assert_eq!(Workload::PooledSolo.planes_per_request(), 1);
        assert_eq!(Workload::PooledSolo.connections(8), 1);
        assert_eq!(Workload::PooledBatch.connections(8), 2);
        assert_eq!(Workload::PooledBatch.connections(1), 1, "never more connections than cores");
        assert_eq!(Workload::StemLowbit.bundle(3).act_bits, 2);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    /// Drives a default-configured server with each workload's request
    /// shape (on the tiny demo model, for speed) and checks that every
    /// batch the micro-batcher formed has the promised size.
    #[test]
    fn served_batches_have_the_promised_size() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for w in Workload::ALL {
            let bundle = demo_bundle(DemoSize::Tiny, 9);
            let opts = Workload::calibrated(&bundle, &Workload::base_options(9));
            let net = PreparedNet::from_bundle(&bundle, &opts);
            let registry =
                Arc::new(ModelRegistry::new(BatcherConfig::default(), Arc::new(Metrics::new())));
            registry.insert_bundle(MODEL, &bundle, opts);
            let mut server = serve(ServerConfig::default(), Arc::clone(&registry)).unwrap();
            let addr = server.addr();
            std::thread::scope(|scope| {
                for conn in 0..w.connections(nproc) {
                    let inputs = net.fabricate_inputs(w.planes_per_request(), conn as u64);
                    let req = infer_request(&net, inputs, conn);
                    scope.spawn(move || {
                        let mut c = HttpConn::connect(addr).unwrap();
                        for _ in 0..20 {
                            assert!(reply_ok(&c.roundtrip(req.bytes()).unwrap(), &req.expected));
                        }
                    });
                }
            });
            let snap = registry.metrics_snapshot();
            let sizes: Vec<usize> = snap.batch_size_hist.iter().map(|&(size, _)| size).collect();
            assert_eq!(
                sizes,
                vec![w.planes_per_request()],
                "{}: {:?}",
                w.name(),
                snap.batch_size_hist
            );
            server.shutdown();
        }
    }
}
