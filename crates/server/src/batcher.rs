//! The dynamic micro-batcher: coalesces concurrent inference requests
//! into batches and runs them on persistent executor threads.
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
//! A batch is flushed (carved off the queue) as soon as **either**
//! `max_batch` planes are waiting **or** the oldest request has waited
//! `max_wait` (whichever comes first — a solo request on an idle server
//! pays at most `max_wait`, a busy server packs full batches back to
//! back). Planes are carved in arrival order; a request that does not fit
//! the room left continues in the next flush, and its callback fires
//! after its last plane.
//!
//! Each model runs `threads` persistent executors. A carved batch is cut
//! into [`NativeBackend::BATCH_TILE`]-image tiles; an idle executor claims
//! the next tile of the current batch and carves a new batch only when no
//! tile is left to claim. So a lone batch spreads over every executor,
//! and a busy server keeps every executor on tiles with no barrier
//! between batches. A tile borrows its planes from its requests and runs
//! through [`PreparedNet::run`] on an arena the executor keeps for its
//! whole life, so once warm a flush spawns no thread and allocates no
//! arena: what it allocates is the output planes its replies carry.
//! Batched kernels are bit-identical to solo execution, so neither
//! coalescing nor tiling ever changes a response.
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
use wp_engine::{NativeBackend, PreparedNet, Scratch};

/// A hot-swappable handle to the currently-deployed plan.
pub type ModelSlot = RwLock<Arc<PreparedNet>>;

/// Images per tile: the unit an executor claims and runs.
const TILE: usize = NativeBackend::BATCH_TILE;

/// Tuning knobs for one model's micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Flush as soon as this many planes are queued.
    pub max_batch: usize,
    /// Flush once the oldest queued request has waited this long.
    pub max_wait: Duration,
    /// Persistent executor threads for this model, each running tiles
    /// on its own kept arena; defaults to available parallelism.
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
/// invoked on the executor that finishes the request's last tile, or
/// synchronously at submit time on a refusal. Must be cheap and must not
/// block — the event front hands the result to an event thread's
/// completion queue and wakes its eventfd.
type Responder = Box<dyn FnOnce(Result<Vec<Vec<i32>>, InferError>) + Send>;

/// One admitted request, shared by the queue and the tiles that run it.
struct Request {
    /// The plan every plane was checked against, and the one it runs on.
    net: Arc<PreparedNet>,
    inputs: Vec<Vec<i32>>,
    enqueued: Instant,
    /// Request trace id ([`trace::span_id_from`] of the HTTP
    /// `X-Request-Id`); 0 for untraced submissions.
    span_id: u64,
    reply: Mutex<Reply>,
}

/// A request's outputs, gathered as its tiles finish in any order.
struct Reply {
    /// One slot per plane, in plane order.
    outputs: Vec<Vec<i32>>,
    /// Planes whose outputs are in.
    done: usize,
    /// Taken by the tile that completes the request.
    responder: Option<Responder>,
}

/// A queued request and how many of its planes tiles have claimed.
struct Queued {
    request: Arc<Request>,
    claimed: usize,
}

/// A run of one request's planes inside a tile.
struct Segment {
    request: Arc<Request>,
    first: usize,
    len: usize,
}

/// Queue state behind the mutex.
struct QueueState {
    /// Requests with planes no tile has claimed yet, in arrival order.
    queue: VecDeque<Queued>,
    /// Planes admitted and not yet carved into a batch.
    planes: usize,
    /// Planes of the current batch no tile has claimed yet: the first
    /// unclaimed planes of `queue`. A batch is carved only once this is
    /// zero, so at most one batch has tiles left to claim.
    carved: usize,
    shutdown: bool,
}

impl QueueState {
    /// Carves the next batch: up to `max_batch` planes in arrival order,
    /// ending at the first request pinned to a different plan. Each
    /// request in it is listed in `batch` with the planes it contributes.
    fn carve(&mut self, max_batch: usize, batch: &mut Vec<(Arc<Request>, usize)>) {
        debug_assert_eq!(self.carved, 0, "a batch is carved only when no tile is left");
        let net = &self.queue.front().expect("a batch is carved from a queued request").request.net;
        let mut room = max_batch;
        for q in &self.queue {
            if room == 0 || !Arc::ptr_eq(&q.request.net, net) {
                break;
            }
            let take = (q.request.inputs.len() - q.claimed).min(room);
            room -= take;
            batch.push((Arc::clone(&q.request), take));
        }
        self.carved = max_batch - room;
        self.planes -= self.carved;
    }

    /// Claims the current batch's next tile into `tile`; returns false
    /// when the batch has no planes left to claim.
    fn claim(&mut self, tile: &mut Vec<Segment>) -> bool {
        let mut left = self.carved.min(TILE);
        if left == 0 {
            return false;
        }
        self.carved -= left;
        while left > 0 {
            let q = self.queue.front_mut().expect("carved planes are queued");
            let first = q.claimed;
            let len = (q.request.inputs.len() - first).min(left);
            q.claimed += len;
            left -= len;
            let request = if q.claimed == q.request.inputs.len() {
                self.queue.pop_front().expect("front checked").request
            } else {
                Arc::clone(&q.request)
            };
            tile.push(Segment { request, first, len });
        }
        true
    }
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals idle executors that work arrived, a tile is left to claim,
    /// or shutdown was requested.
    wake: Condvar,
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
    executors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Batcher {
    /// Starts `config.threads` executors serving `slot` under `config`,
    /// reporting into this model's `metrics`.
    pub fn start(slot: Arc<ModelSlot>, config: BatcherConfig, metrics: Arc<ModelMetrics>) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            max_wait: config.max_wait,
            threads: config.threads.max(1),
            max_queue: config.max_queue.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                planes: 0,
                carved: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let executors = (0..config.threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("wp-exec-{i}"))
                    .spawn(move || executor_loop(&shared, config, &metrics))
                    .expect("spawn batcher executor")
            })
            .collect();
        Self { shared, slot, config, executors: Mutex::new(executors) }
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
    /// plane order — on an executor after the request's last plane
    /// executes, or synchronously *before this returns* when the request
    /// is refused or has no planes. Callers never poll and never block.
    ///
    /// Every plane is checked here by [`PreparedNet::check_input`] of the
    /// plan in the slot, and the request runs on that plan whatever the
    /// registry swaps in later: [`InferError::BadInput`], carrying the
    /// check's message, for a wrong-size plane or out-of-range code
    /// (the same text [`PreparedNet::run`] would panic with),
    /// [`InferError::Overloaded`] when the request's planes do not
    /// fit under `max_queue`, and [`InferError::ShuttingDown`] after
    /// [`Batcher::shutdown`]. A refused request runs none of its planes.
    /// `span_id` (a [`trace::span_id_from`] of the request id, 0 when
    /// untraced) is stamped on the queue-wait spans emitted for this
    /// request.
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
        for (i, input) in inputs.iter().enumerate() {
            if let Err(e) = net.check_input(input) {
                return Err((InferError::BadInput(format!("input {i} {e}")), responder));
            }
        }
        if inputs.is_empty() {
            // Nothing to run: no tile would ever complete it.
            responder(Ok(Vec::new()));
            return Ok(());
        }

        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            if state.shutdown {
                return Err((InferError::ShuttingDown, responder));
            }
            let planes = inputs.len();
            if state.planes + planes > self.config.max_queue {
                return Err((InferError::Overloaded, responder));
            }
            state.planes += planes;
            let reply = Reply {
                outputs: std::iter::repeat_with(Vec::new).take(planes).collect(),
                done: 0,
                responder: Some(responder),
            };
            let request = Request {
                net,
                inputs,
                enqueued: Instant::now(),
                span_id,
                reply: Mutex::new(reply),
            };
            state.queue.push_back(Queued { request: Arc::new(request), claimed: 0 });
        }
        self.shared.wake.notify_one();
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

    /// Stops accepting new requests, drains the queue (every admitted
    /// request is still answered), and joins the executors. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if an executor panicked.
    pub fn shutdown(&self) {
        assert!(self.stop(), "a batcher executor panicked");
    }

    /// [`Batcher::shutdown`] without the panic: false if an executor
    /// panicked.
    fn stop(&self) -> bool {
        self.shared.state.lock().expect("batcher queue poisoned").shutdown = true;
        self.shared.wake.notify_all();
        let executors = std::mem::take(&mut *self.executors.lock().expect("executors poisoned"));
        let mut clean = true;
        for handle in executors {
            clean &= handle.join().is_ok();
        }
        clean
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // A drop must not panic: an executor's panic surfaces through an
        // explicit `shutdown`.
        self.stop();
    }
}

/// One executor: claims tiles (carving the next batch once one is due
/// and no tile is left), runs them on its kept arena, and replies for the
/// requests they complete. Returns once shutdown is requested and the
/// queue is drained.
fn executor_loop(shared: &Shared, config: BatcherConfig, metrics: &ModelMetrics) {
    let mut scratch = Scratch::new();
    let mut tile: Vec<Segment> = Vec::with_capacity(TILE);
    let mut batch: Vec<(Arc<Request>, usize)> = Vec::new();
    let mut state = shared.state.lock().expect("batcher queue poisoned");
    loop {
        if !state.claim(&mut tile) {
            let Some(oldest) = state.queue.front() else {
                if state.shutdown {
                    return;
                }
                state = shared.wake.wait(state).expect("batcher queue poisoned");
                continue;
            };
            // Wait for the batch to fill or its deadline to pass.
            let remaining = (oldest.request.enqueued + config.max_wait)
                .saturating_duration_since(Instant::now());
            if state.planes < config.max_batch && !state.shutdown && !remaining.is_zero() {
                state =
                    shared.wake.wait_timeout(state, remaining).expect("batcher queue poisoned").0;
                continue;
            }
            state.carve(config.max_batch, &mut batch);
            state.claim(&mut tile);
        }
        let more = state.carved > 0;
        drop(state);
        if more {
            // Hand the next tile to an idle executor; it passes the baton
            // on in turn while tiles are left.
            shared.wake.notify_one();
        }
        if !batch.is_empty() {
            record_flush(&batch, metrics);
            batch.clear();
        }
        run_tile(&tile, &mut scratch);
        tile.clear();
        state = shared.state.lock().expect("batcher queue poisoned");
    }
}

/// Accounts one carved batch: one flush in the batch metrics, a queue
/// latency per plane, and one queue-wait span per request ending now.
fn record_flush(batch: &[(Arc<Request>, usize)], metrics: &ModelMetrics) {
    let started = Instant::now();
    let size: usize = batch.iter().map(|(_, take)| take).sum();
    metrics.record_batch(size);
    for (request, take) in batch {
        for _ in 0..*take {
            metrics.queue_latency.record_micros(started.duration_since(request.enqueued));
        }
    }
    let net = &batch[0].0.net;
    if let Some(sink) = net.trace_sink() {
        let batch_start_ns = trace::now_ns();
        let track = trace::current_track();
        let tier = trace::tier_code(net.backend().simd());
        let size = u16::try_from(size).unwrap_or(u16::MAX);
        for (request, _) in batch {
            let wait_ns = u64::try_from(started.duration_since(request.enqueued).as_nanos())
                .unwrap_or(u64::MAX);
            sink.record_span(&TraceEvent {
                kind: SpanKind::QueueWait,
                track,
                layer: 0,
                batch: size,
                tier,
                id: request.span_id,
                start_ns: batch_start_ns.saturating_sub(wait_ns),
                dur_ns: wait_ns,
            });
        }
    }
}

/// Runs one tile on the executor's arena and hands each output plane to
/// its request, replying for every request whose last plane this was.
fn run_tile(tile: &[Segment], scratch: &mut Scratch) {
    let mut refs: [&[i32]; TILE] = [&[]; TILE];
    let mut n = 0;
    for seg in tile {
        for plane in &seg.request.inputs[seg.first..seg.first + seg.len] {
            refs[n] = plane;
            n += 1;
        }
    }
    let mut outputs = tile[0].request.net.run(&refs[..n], scratch);
    let mut planes = outputs.drain(..);
    for seg in tile {
        let mut reply = seg.request.reply.lock().expect("reply poisoned");
        for slot in &mut reply.outputs[seg.first..seg.first + seg.len] {
            *slot = planes.next().expect("one output per plane");
        }
        reply.done += seg.len;
        if reply.done == reply.outputs.len() {
            let responder = reply.responder.take().expect("a request replies once");
            let outputs = std::mem::take(&mut reply.outputs);
            drop(reply);
            responder(Ok(outputs));
        }
    }
    drop(planes);
    scratch.put_planes(outputs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use std::sync::atomic::Ordering;
    use wp_engine::trace::TraceSink;
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
            // coalesce into whatever batches the executors carve.
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
    /// `max_batch` 4) — and failure paths (bad input, shutdown) and an
    /// empty request invoke the callback instead of dropping it.
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

        // A request with no planes has nothing to run: answered at once.
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(Vec::new(), 0, move |r| tx.send(r).unwrap());
        assert_eq!(rx.try_recv(), Ok(Ok(Vec::new())));

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

    /// An incompatible hot swap while a plane is queued must not panic an
    /// executor: the plane runs on the 8-bit plan it was checked against,
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
        // The executors survived: a plane valid for the new plan is served.
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

    /// A trace sink that parks the thread starting the first traced tile
    /// (its pack span) until `release` fires, reporting that thread's
    /// track on `parked`, and reports every finished tile (its run span)
    /// on `runs` as `(track, tile size)`.
    #[derive(Debug)]
    struct ParkFirstTile {
        parked: Mutex<Option<mpsc::Sender<u16>>>,
        release: Mutex<mpsc::Receiver<()>>,
        runs: Mutex<mpsc::Sender<(u16, u16)>>,
    }

    impl TraceSink for ParkFirstTile {
        fn record_span(&self, event: &TraceEvent) {
            match event.kind {
                SpanKind::Pack => {
                    let Some(parked) = self.parked.lock().unwrap().take() else { return };
                    // A failed test drops its channel ends; the executor
                    // then carries on instead of wedging shutdown.
                    let _ = parked.send(event.track);
                    let _ = self.release.lock().unwrap().recv();
                }
                SpanKind::Run => {
                    let _ = self.runs.lock().unwrap().send((event.track, event.batch));
                }
                _ => {}
            }
        }
    }

    /// The tiny demo plan with a [`ParkFirstTile`] sink attached, and the
    /// test's ends of its channels.
    struct Parking {
        net: PreparedNet,
        /// The track of the thread parked in the first tile.
        parked: mpsc::Receiver<u16>,
        release: mpsc::Sender<()>,
        /// `(track, tile size)` of every finished tile.
        runs: mpsc::Receiver<(u16, u16)>,
    }

    fn parking_net() -> Parking {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (runs_tx, runs_rx) = mpsc::channel();
        let mut net = demo::demo_prepared(demo::DemoSize::Tiny, 7);
        net.set_trace_sink(Some(Arc::new(ParkFirstTile {
            parked: Mutex::new(Some(parked_tx)),
            release: Mutex::new(release_rx),
            runs: Mutex::new(runs_tx),
        })));
        Parking { net, parked: parked_rx, release: release_tx, runs: runs_rx }
    }

    /// A lone 32-plane request on an idle server spreads over the
    /// executors in `BATCH_TILE`-image tiles: while the executor of the
    /// first tile to start is parked, another executor runs a tile of the
    /// same batch. The outputs still equal `run_one`.
    #[test]
    fn a_lone_batch_spreads_over_the_executors_in_tiles() {
        let Parking { net, parked, release, runs } = parking_net();
        let inputs = net.fabricate_inputs(32, 21);
        let expected: Vec<Vec<i32>> = {
            let plain = demo::demo_prepared(demo::DemoSize::Tiny, 7);
            inputs.iter().map(|x| plain.run_one(x)).collect()
        };
        let (batcher, _) = start(Arc::new(RwLock::new(Arc::new(net))), 32, Duration::from_secs(5));
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(inputs, 0, move |r| tx.send(r).unwrap());

        let parked = parked.recv_timeout(Duration::from_secs(30)).expect("a tile started");
        let (track, size) = runs
            .recv_timeout(Duration::from_secs(30))
            .expect("another executor ran a tile while the first was parked");
        assert_ne!(track, parked, "the parked executor cannot finish a tile");
        assert_eq!(usize::from(size), NativeBackend::BATCH_TILE, "tiles, not halves of the batch");
        release.send(()).unwrap();
        let outputs = rx.recv_timeout(Duration::from_secs(30)).expect("replied").expect("served");
        assert_eq!(outputs, expected);
        batcher.shutdown();
    }

    /// Shutdown while a tile is in flight still answers every admitted
    /// request exactly once: the parked tile's request (whose last plane
    /// sits in a second batch) and every plane admitted before the
    /// shutdown flag was set.
    #[test]
    fn shutdown_with_tiles_in_flight_answers_every_admitted_request_once() {
        let Parking { net, parked, release, runs: _runs } = parking_net();
        let inputs = net.fabricate_inputs(5, 31);
        let expected: Vec<Vec<i32>> = {
            let plain = demo::demo_prepared(demo::DemoSize::Tiny, 7);
            inputs.iter().map(|x| plain.run_one(x)).collect()
        };
        let (batcher, _) = start(Arc::new(RwLock::new(Arc::new(net))), 4, Duration::from_millis(1));
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(inputs.clone(), 0, move |r| tx.send(r).unwrap());
        parked.recv_timeout(Duration::from_secs(30)).expect("the first tile started");

        let tickets = std::thread::scope(|scope| {
            let closer = scope.spawn(|| batcher.shutdown());
            // Planes submitted until the shutdown flag refuses one were
            // admitted while the first tile was still parked.
            let mut tickets = Vec::new();
            loop {
                match batcher.submit(inputs[1].clone()) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(InferError::ShuttingDown) => break,
                    Err(InferError::Overloaded) => {}
                    Err(e) => panic!("unexpected refusal: {e}"),
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            release.send(()).unwrap();
            closer.join().expect("shutdown returned");
            tickets
        });

        // The executors have exited, so every reply has been made.
        let replies: Vec<_> = rx.try_iter().collect();
        assert_eq!(replies.len(), 1, "the parked request replied exactly once");
        assert_eq!(replies[0].as_ref().expect("served"), &expected);
        for ticket in tickets {
            assert_eq!(ticket.wait().expect("admitted planes are served"), expected[1]);
        }
    }
}
