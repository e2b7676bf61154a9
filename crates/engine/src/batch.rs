//! Threaded batch inference.
//!
//! [`BatchRunner`] splits a batch of inputs into contiguous chunks, one
//! per scoped worker thread, and runs each chunk through
//! [`PreparedNet::run`], so the batched kernels amortize tap and weight
//! decoding across the chunk on top of thread parallelism. The prepared
//! network — its LUT cache included — is shared read-only by every
//! worker. Each worker builds a fresh [`Scratch`] arena and every call
//! spawns its workers anew, so a call allocates its working set once;
//! only [`PreparedNet::run`] against a caller-kept arena reaches the
//! zero-allocation steady state. That makes the runner the one-off form
//! for tools and benches, not the served path: the server's
//! micro-batcher keeps persistent executors, each running tiles on an
//! arena it keeps for its whole life.

use crate::bundle::PreparedNet;
use crate::scratch::Scratch;

/// A fixed-width pool of inference workers over one [`PreparedNet`].
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers a batch of `batch_len` inputs actually uses: never
    /// more than the batch has items, so a small batch on a wide runner
    /// spawns no idle threads, and an empty batch spawns none at all.
    pub fn planned_workers(&self, batch_len: usize) -> usize {
        self.threads.min(batch_len)
    }

    /// Runs a batch of borrowed activation slices (e.g. one per queued
    /// request, with no copy into an owned batch) and returns outputs in
    /// input order.
    ///
    /// The batch is split into contiguous per-worker chunks and each chunk
    /// executes through [`PreparedNet::run`]. Outputs are bit-identical to
    /// per-item [`PreparedNet::run_one`] for any worker count. Degenerate
    /// batches are handled explicitly: empty input returns empty without
    /// touching any thread machinery, a batch smaller than the thread
    /// count spawns only `batch_len` workers, and a single-worker batch
    /// runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics, naming the batch index, if
    /// [`PreparedNet::check_input`] refuses any input; or if a worker
    /// thread panics (the panic is propagated).
    pub fn run_refs(&self, net: &PreparedNet, inputs: &[&[i32]]) -> Vec<Vec<i32>> {
        if inputs.is_empty() {
            return Vec::new();
        }
        net.check_batch(inputs);
        let workers = self.planned_workers(inputs.len());
        if workers <= 1 {
            return net.run_checked(inputs, &mut Scratch::new());
        }
        let chunk = inputs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(chunk)
                .map(|chunk| scope.spawn(move || net.run_checked(chunk, &mut Scratch::new())))
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("batch worker panicked")).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::EngineOptions;
    use rand::{Rng, SeedableRng};
    use wp_core::deploy::{ConvPayload, DeployBundle};
    use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
    use wp_core::{LookupTable, LutOrder, WeightPool};

    fn bundle() -> DeployBundle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let vectors: Vec<Vec<f32>> =
            (0..8).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
        let pool = WeightPool::from_vectors(vectors);
        let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
        let spec = NetSpec {
            name: "batch-toy".into(),
            input: (8, 6, 6),
            classes: 3,
            layers: vec![
                LayerSpec::Conv(ConvSpec {
                    in_ch: 8,
                    out_ch: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    compressed: true,
                }),
                LayerSpec::GlobalAvgPool,
                LayerSpec::Dense { in_features: 8, out_features: 3, compressed: false },
            ],
        };
        let indices: Vec<u8> = (0..8 * 9).map(|_| rng.gen_range(0..8) as u8).collect();
        DeployBundle { spec, pool, lut, convs: vec![ConvPayload::Pooled { indices }], act_bits: 8 }
    }

    fn refs(inputs: &[Vec<i32>]) -> Vec<&[i32]> {
        inputs.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn outputs_identical_across_thread_counts() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(13, 4);
        let refs = refs(&inputs);
        let serial = BatchRunner::new(1).run_refs(&net, &refs);
        for threads in [2, 4, 7] {
            assert_eq!(
                BatchRunner::new(threads).run_refs(&net, &refs),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn outputs_are_in_input_order() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(6, 8);
        let batch = BatchRunner::new(3).run_refs(&net, &refs(&inputs));
        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(&net.run_one(input), out);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        assert!(BatchRunner::new(4).run_refs(&net, &[]).is_empty());
        assert!(BatchRunner::new(1).run_refs(&net, &[]).is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
    }

    #[test]
    fn small_batches_never_plan_idle_workers() {
        let runner = BatchRunner::new(8);
        assert_eq!(runner.planned_workers(0), 0);
        assert_eq!(runner.planned_workers(3), 3);
        assert_eq!(runner.planned_workers(8), 8);
        assert_eq!(runner.planned_workers(100), 8);
        // And a batch shorter than the thread count still runs correctly.
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(3, 17);
        let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        assert_eq!(runner.run_refs(&net, &refs(&inputs)), expected);
    }

    /// The threaded runner matches one [`PreparedNet::run`] over the whole
    /// batch, whatever the chunking.
    #[test]
    fn run_refs_matches_run_across_thread_counts() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(13, 29);
        let refs = refs(&inputs);
        let serial = net.run(&refs, &mut Scratch::new());
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                BatchRunner::new(threads).run_refs(&net, &refs),
                serial,
                "{threads} threads"
            );
        }
    }
}
