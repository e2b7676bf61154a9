//! The dynamic micro-batcher: coalesces concurrent inference requests
//! into batches for the native engine.
//!
//! The unit of work is a request: its planes and one completion callback
//! ([`Batcher::submit_callback`], what the event-driven front uses).
//! Submission never blocks. Every plane is checked against the plan in
//! the slot, and the request is admitted whole or refused whole under one
//! queue lock with one wake-up, so a refused request costs no engine
//! work. The result reaches the callback exactly once. [`Batcher::submit`]
//! and [`Batcher::infer`] are one-plane blocking wrappers whose callback
//! is a channel send, for tests and tools.
//!
//! A dedicated flusher thread drains the queue into batches, flushing as
//! soon as **either** `max_batch` planes are waiting **or** the oldest
//! request has waited `max_wait` (whichever comes first — a solo request
//! on an idle server pays at most `max_wait`, a busy server packs full
//! batches back to back). Planes are carved in arrival order; a request
//! that does not fit the room left continues in the next flush, and its
//! callback fires after its last plane. Each batch executes through
//! [`wp_engine::BatchRunner::run_refs`], whose batched kernels are
//! bit-identical to solo execution, so coalescing never changes a
//! response.
//!
//! The prepared network lives behind an [`RwLock`]'d [`Arc`] slot. A
//! request is pinned at submit to the plan it was checked against, and a
//! batch ends at the first request pinned to a different plan. That is
//! what makes registry hot-swaps atomic: every request runs wholly on one
//! plan, even when its planes span two batches with a swap in between.

use crate::metrics::ModelMetrics;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use wp_engine::trace::{self, SpanKind, TraceEvent};
use wp_engine::{BatchRunner, PreparedNet};

/// A hot-swappable handle to the currently-deployed plan.
pub type ModelSlot = RwLock<Arc<PreparedNet>>;

/// Tuning knobs for one model's micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Flush as soon as this many planes are queued.
    pub max_batch: usize,
    /// Flush once the oldest queued request has waited this long.
    pub max_wait: Duration,
    /// Worker threads for batch execution (see
    /// [`wp_engine::BatchRunner`]); defaults to available parallelism.
    pub threads: usize,
    /// Hard cap on queued planes; a request that would exceed it is
    /// refused whole with [`InferError::Overloaded`] instead of growing
    /// the queue without bound.
    pub max_queue: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_queue: 4096,
        }
    }
}

/// Why a submitted request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// A plane's length or codes do not match the model input.
    BadInput(String),
    /// The request does not fit under `max_queue`.
    Overloaded,
    /// The batcher is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::BadInput(m) => write!(f, "bad input: {m}"),
            InferError::Overloaded => write!(f, "queue full, try again later"),
            InferError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for InferError {}

/// How a served (or refused) request's result reaches its submitter:
/// invoked on the flusher thread right after the batch holding the
/// request's last plane executes, or synchronously at submit time on a
/// refusal. Must be cheap and must not block — the event front hands the
/// result to an event thread's completion queue and wakes its eventfd.
type Responder = Box<dyn FnOnce(Result<Vec<Vec<i32>>, InferError>) + Send>;

/// One admitted request.
struct Pending {
    /// The plan every plane was checked against, and the one it runs on.
    net: Arc<PreparedNet>,
    inputs: Vec<Vec<i32>>,
    /// Outputs of the planes executed so far, in order.
    outputs: Vec<Vec<i32>>,
    enqueued: Instant,
    /// Request trace id ([`trace::span_id_from`] of the HTTP
    /// `X-Request-Id`); 0 for untraced submissions.
    span_id: u64,
    responder: Responder,
}

/// Queue state behind the mutex.
struct QueueState {
    pending: VecDeque<Pending>,
    /// Planes admitted and not yet carved into a batch.
    planes: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the flusher that work arrived or shutdown was requested.
    wake_flusher: Condvar,
}

/// A ticket for a submitted plane; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<i32>, InferError>>,
}

impl Ticket {
    /// Blocks until the plane's batch has executed.
    ///
    /// # Errors
    ///
    /// Returns the submission's [`InferError`] if the batcher shut down
    /// before serving it.
    pub fn wait(self) -> Result<Vec<i32>, InferError> {
        self.rx.recv().unwrap_or(Err(InferError::ShuttingDown))
    }
}

/// The per-model dynamic micro-batcher.
pub struct Batcher {
    shared: Arc<Shared>,
    slot: Arc<ModelSlot>,
    config: BatcherConfig,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Batcher {
    /// Starts a flusher thread serving `slot` under `config`, reporting
    /// into this model's `metrics`.
    pub fn start(slot: Arc<ModelSlot>, config: BatcherConfig, metrics: Arc<ModelMetrics>) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            max_wait: config.max_wait,
            threads: config.threads.max(1),
            max_queue: config.max_queue.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { pending: VecDeque::new(), planes: 0, shutdown: false }),
            wake_flusher: Condvar::new(),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wp-batcher".into())
                .spawn(move || flusher_loop(&shared, config, &metrics))
                .expect("spawn batcher flusher")
        };
        Self { shared, slot, config, flusher: Mutex::new(Some(flusher)) }
    }

    /// The batcher's configuration (normalized: zeroes clamped to one).
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// The model slot this batcher executes from.
    pub fn slot(&self) -> &Arc<ModelSlot> {
        &self.slot
    }

    /// Admits one request; `done` is invoked once with its outputs, in
    /// plane order — on the flusher thread after the request's last plane
    /// executes, or synchronously *before this returns* when the request
    /// is refused. Callers never poll and never block.
    ///
    /// Every plane is checked here, against the plan in the slot, and the
    /// request runs on that plan whatever the registry swaps in later:
    /// [`InferError::BadInput`] for a wrong-size plane or out-of-range
    /// code, [`InferError::Overloaded`] when the request's planes do not
    /// fit under `max_queue`, and [`InferError::ShuttingDown`] after
    /// [`Batcher::shutdown`]. A refused request runs none of its planes.
    /// `span_id` (a [`trace::span_id_from`] of the request id, 0 when
    /// untraced) is stamped on the queue-wait spans the flusher emits for
    /// this request.
    pub fn submit_callback(
        &self,
        inputs: Vec<Vec<i32>>,
        span_id: u64,
        done: impl FnOnce(Result<Vec<Vec<i32>>, InferError>) + Send + 'static,
    ) {
        if let Err((error, done)) = self.enqueue(inputs, span_id, Box::new(done)) {
            done(Err(error));
        }
    }

    /// Blocking convenience over the callback: submits one untraced plane
    /// and returns a [`Ticket`] to wait on. Rejections surface here as
    /// errors instead of through the ticket.
    ///
    /// # Errors
    ///
    /// The submit-time rejections of [`Batcher::submit_callback`].
    pub fn submit(&self, input: Vec<i32>) -> Result<Ticket, InferError> {
        let (tx, rx) = mpsc::channel();
        let done: Responder = Box::new(move |result| {
            let plane = result.map(|mut outputs| outputs.pop().expect("one output per plane"));
            // A dropped ticket (caller gone) makes the send fail; ignore it.
            let _ = tx.send(plane);
        });
        self.enqueue(vec![input], 0, done).map_err(|(error, _)| error)?;
        Ok(Ticket { rx })
    }

    /// Checks every plane and admits the request whole. On failure the
    /// responder is handed back un-invoked so the caller decides delivery.
    fn enqueue(
        &self,
        inputs: Vec<Vec<i32>>,
        span_id: u64,
        responder: Responder,
    ) -> Result<(), (InferError, Responder)> {
        let net = self.slot.read().expect("model slot poisoned").clone();
        let (c, h, w) = net.input_shape();
        let (lo, hi) = net.backend().encoding().code_range(net.act_bits());
        for input in &inputs {
            let message = if input.len() != c * h * w {
                format!(
                    "expected {} activation codes ({c}x{h}x{w}), got {}",
                    c * h * w,
                    input.len()
                )
            } else if let Some(&bad) = input.iter().find(|&&v| !(lo..=hi).contains(&v)) {
                format!("activation code {bad} outside [{lo}, {hi}]")
            } else {
                continue;
            };
            return Err((InferError::BadInput(message), responder));
        }

        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            if state.shutdown {
                return Err((InferError::ShuttingDown, responder));
            }
            if state.planes + inputs.len() > self.config.max_queue {
                return Err((InferError::Overloaded, responder));
            }
            state.planes += inputs.len();
            state.pending.push_back(Pending {
                net,
                outputs: Vec::with_capacity(inputs.len()),
                inputs,
                enqueued: Instant::now(),
                span_id,
                responder,
            });
        }
        self.shared.wake_flusher.notify_one();
        Ok(())
    }

    /// Convenience: submit one plane and wait for its result.
    ///
    /// # Errors
    ///
    /// The submit-time rejections of [`Batcher::submit_callback`], or
    /// [`InferError::ShuttingDown`] if the plane is never served.
    pub fn infer(&self, input: Vec<i32>) -> Result<Vec<i32>, InferError> {
        self.submit(input)?.wait()
    }

    /// Stops accepting new requests, drains the queue, and joins the
    /// flusher. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            state.shutdown = true;
        }
        self.shared.wake_flusher.notify_all();
        if let Some(handle) = self.flusher.lock().expect("flusher handle poisoned").take() {
            handle.join().expect("batcher flusher panicked");
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The flusher: waits for work, carves batches, executes, replies.
fn flusher_loop(shared: &Shared, config: BatcherConfig, metrics: &ModelMetrics) {
    let runner = BatchRunner::new(config.threads);
    let mut state = shared.state.lock().expect("batcher queue poisoned");
    loop {
        let Some(oldest) = state.pending.front() else {
            if state.shutdown {
                return;
            }
            state = shared.wake_flusher.wait(state).expect("batcher queue poisoned");
            continue;
        };

        // A batch is pending; wait for it to fill or its deadline to pass.
        // Only this thread pops, so the oldest request stays at the front.
        let deadline = oldest.enqueued + config.max_wait;
        let net = Arc::clone(&oldest.net);
        while state.planes < config.max_batch && !state.shutdown {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            let (next, timeout) =
                shared.wake_flusher.wait_timeout(state, remaining).expect("batcher queue poisoned");
            state = next;
            if timeout.timed_out() {
                break;
            }
        }

        // Carve up to `max_batch` planes in arrival order, ending at the
        // first request pinned to a different plan. Each entry is a
        // request and how many of its remaining planes this batch runs.
        let mut batch: Vec<(Pending, usize)> = Vec::new();
        let mut room = config.max_batch;
        while let Some(p) = state.pending.front() {
            if room == 0 || !Arc::ptr_eq(&p.net, &net) {
                break;
            }
            let take = (p.inputs.len() - p.outputs.len()).min(room);
            room -= take;
            state.planes -= take;
            batch.push((state.pending.pop_front().expect("front checked"), take));
        }
        drop(state);

        let started = Instant::now();
        let refs: Vec<&[i32]> = batch
            .iter()
            .flat_map(|(p, take)| p.inputs[p.outputs.len()..][..*take].iter().map(Vec::as_slice))
            .collect();
        for (p, take) in &batch {
            for _ in 0..*take {
                metrics.queue_latency.record_micros(started.duration_since(p.enqueued));
            }
        }
        if let Some(sink) = net.trace_sink() {
            // One queue-wait span per request, ending at batch start and
            // carrying the request's trace id.
            let batch_start_ns = trace::now_ns();
            let track = trace::current_track();
            let tier = trace::tier_code(net.backend().simd());
            let size = u16::try_from(refs.len()).unwrap_or(u16::MAX);
            for (p, _) in &batch {
                let wait_ns = u64::try_from(started.duration_since(p.enqueued).as_nanos())
                    .unwrap_or(u64::MAX);
                sink.record_span(&TraceEvent {
                    kind: SpanKind::QueueWait,
                    track,
                    layer: 0,
                    batch: size,
                    tier,
                    id: p.span_id,
                    start_ns: batch_start_ns.saturating_sub(wait_ns),
                    dur_ns: wait_ns,
                });
            }
        }
        let mut outputs = runner.run_refs(&net, &refs).into_iter();
        if !refs.is_empty() {
            metrics.record_batch(refs.len());
        }
        // Only the batch's last request can have planes left; it goes back
        // to the front of the queue to continue in the next flush.
        let mut unfinished = None;
        for (mut p, take) in batch {
            p.outputs.extend(outputs.by_ref().take(take));
            if p.outputs.len() == p.inputs.len() {
                (p.responder)(Ok(p.outputs));
            } else {
                unfinished = Some(p);
            }
        }

        state = shared.state.lock().expect("batcher queue poisoned");
        if let Some(p) = unfinished {
            state.pending.push_front(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use std::sync::atomic::Ordering;
    use wp_engine::PreparedNet;

    fn slot() -> (Arc<ModelSlot>, Arc<PreparedNet>) {
        let net = Arc::new(demo::demo_prepared(demo::DemoSize::Tiny, 7));
        (Arc::new(RwLock::new(Arc::clone(&net))), net)
    }

    fn start(
        slot: Arc<ModelSlot>,
        max_batch: usize,
        max_wait: Duration,
    ) -> (Batcher, Arc<ModelMetrics>) {
        let config = BatcherConfig { max_batch, max_wait, threads: 2, max_queue: 1024 };
        let metrics = Arc::new(ModelMetrics::new());
        (Batcher::start(slot, config, Arc::clone(&metrics)), metrics)
    }

    /// Satellite pin: solo, coalesced-full-batch, and timeout-flushed
    /// requests all produce outputs bit-identical to direct
    /// `PreparedNet::run_one`, across `max_batch` ∈ {1, 4, 32}.
    #[test]
    fn coalescing_is_bit_identical_across_max_batch() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(24, 99);
        let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        for max_batch in [1usize, 4, 32] {
            let (batcher, _) = start(Arc::clone(&slot), max_batch, Duration::from_millis(1));
            // Concurrent submission from one thread per request: requests
            // coalesce into whatever batches the flusher carves.
            let outputs: Vec<Vec<i32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .iter()
                    .map(|input| {
                        let batcher = &batcher;
                        scope.spawn(move || batcher.infer(input.clone()).expect("served"))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            assert_eq!(outputs, expected, "max_batch={max_batch}");
            batcher.shutdown();
        }
    }

    /// A lone request under a large `max_batch` must be flushed by the
    /// wait timeout, not stall forever — and still match solo execution.
    #[test]
    fn timeout_flush_serves_solo_request() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 5).pop().unwrap();
        let (batcher, metrics) = start(slot, 32, Duration::from_millis(5));
        let started = Instant::now();
        let out = batcher.infer(input.clone()).expect("served");
        assert_eq!(out, net.run_one(&input));
        assert!(started.elapsed() >= Duration::from_millis(4), "flushed only after max_wait");
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
        batcher.shutdown();
    }

    /// `max_batch = 1` serves every request in its own batch immediately.
    #[test]
    fn max_batch_one_never_coalesces() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(6, 3);
        let (batcher, metrics) = start(slot, 1, Duration::from_secs(5));
        for input in &inputs {
            assert_eq!(batcher.infer(input.clone()).unwrap(), net.run_one(input));
        }
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 6, "one batch per request");
        batcher.shutdown();
    }

    #[test]
    fn bad_inputs_rejected_at_submit() {
        let (slot, net) = slot();
        let (batcher, _) = start(slot, 4, Duration::from_millis(1));
        assert!(matches!(batcher.infer(vec![0i32; 3]), Err(InferError::BadInput(_))));
        let (c, h, w) = net.input_shape();
        let mut bad = vec![0i32; c * h * w];
        bad[0] = 100_000;
        assert!(matches!(batcher.infer(bad), Err(InferError::BadInput(_))));
        batcher.shutdown();
    }

    /// Callback submission is bit-identical to solo execution — also for
    /// requests whose planes span two batches (3 + 3 + 2 planes under
    /// `max_batch` 4) — and failure paths (bad input, shutdown) invoke the
    /// callback instead of dropping it.
    #[test]
    fn callback_submission_is_bit_identical_and_always_invoked() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(8, 42);
        let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        let (batcher, _) = start(Arc::clone(&slot), 4, Duration::from_millis(1));

        let (tx, rx) = mpsc::channel();
        let requests: Vec<&[Vec<i32>]> = inputs.chunks(3).collect();
        for (i, request) in requests.iter().enumerate() {
            let tx = tx.clone();
            batcher.submit_callback(request.to_vec(), 0, move |r| {
                tx.send((i, r)).unwrap();
            });
        }
        let mut outputs: Vec<Vec<Vec<i32>>> = vec![Vec::new(); requests.len()];
        for _ in 0..requests.len() {
            let (i, r) = rx.recv_timeout(Duration::from_secs(10)).expect("callback fired");
            outputs[i] = r.expect("served");
        }
        assert_eq!(outputs.concat(), expected);

        // Validation failure: callback fires synchronously with the error.
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(vec![vec![0i32; 3]], 0, move |r| tx.send(r).unwrap());
        assert!(matches!(rx.try_recv(), Ok(Err(InferError::BadInput(_)))));

        batcher.shutdown();
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(vec![inputs[0].clone()], 0, move |r| tx.send(r).unwrap());
        assert!(matches!(rx.try_recv(), Ok(Err(InferError::ShuttingDown))));
    }

    #[test]
    fn shutdown_rejects_new_submits_and_is_idempotent() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 1).pop().unwrap();
        let (batcher, _) = start(slot, 4, Duration::from_millis(1));
        batcher.shutdown();
        batcher.shutdown();
        assert_eq!(batcher.infer(input), Err(InferError::ShuttingDown));
    }

    /// An incompatible hot swap while a plane is queued must not panic the
    /// flusher: the plane runs on the 8-bit plan it was checked against,
    /// and the batcher keeps serving the new plan afterwards.
    #[test]
    fn incompatible_hot_swap_mid_queue_does_not_kill_the_flusher() {
        let (slot, net) = slot();
        // Long deadline + wide batch: the submitted plane sits queued
        // while we swap the model underneath it.
        let (batcher, _) = start(Arc::clone(&slot), 32, Duration::from_millis(100));
        let mut input = net.fabricate_inputs(1, 2).pop().unwrap();
        input[0] = 200; // valid at 8 bits, out of range at 4
        let ticket = batcher.submit(input.clone()).expect("valid for the current plan");

        // Swap to a 4-bit plan the queued 8-bit plane would not fit.
        let bundle = demo::demo_bundle(demo::DemoSize::Tiny, 7);
        let opts = wp_engine::EngineOptions::new().with_act_bits(4);
        let swapped = Arc::new(PreparedNet::from_bundle(&bundle, &opts));
        *slot.write().unwrap() = Arc::clone(&swapped);

        assert_eq!(ticket.wait().unwrap(), net.run_one(&input));
        // The flusher survived: a plane valid for the new plan is served.
        let ok = swapped.fabricate_inputs(1, 3).pop().unwrap();
        assert_eq!(batcher.infer(ok.clone()).unwrap(), swapped.run_one(&ok));
        batcher.shutdown();
    }

    #[test]
    fn hot_swap_takes_effect_for_new_batches() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 11).pop().unwrap();
        let (batcher, _) = start(Arc::clone(&slot), 1, Duration::from_millis(1));
        let before = batcher.infer(input.clone()).unwrap();
        assert_eq!(before, net.run_one(&input));

        // Swap in a plan with different fabricated weights.
        let swapped = Arc::new(demo::demo_prepared(demo::DemoSize::Tiny, 8));
        *slot.write().unwrap() = Arc::clone(&swapped);
        let after = batcher.infer(input.clone()).unwrap();
        assert_eq!(after, swapped.run_one(&input));
        assert_ne!(before, after, "different bundle must answer differently");
        batcher.shutdown();
    }
}
