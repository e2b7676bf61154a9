//! Tracing and profiling primitives for the execution engine.
//!
//! Two observation modes, both lock-free and std-only, both strictly
//! zero-cost when disabled (the executor checks one `Option<Arc<...>>`
//! per run, never per layer):
//!
//! * **Aggregate profiling** — [`NetProfile`] keeps one
//!   [`LatencyHistogram`] per layer plus a whole-run histogram. Recording
//!   a layer costs two-three relaxed atomic adds (bucket, sum, max), so
//!   it is cheap enough to leave on for every served model; snapshots
//!   report per-layer p50/p99/mean and each layer's share of total
//!   engine time. This is the paper's per-layer latency table
//!   (Tables 1/3, Fig. 4) as a live endpoint instead of a one-off bench.
//! * **Event tracing** — [`TraceBuffer`], a fixed-capacity seqlock ring
//!   of [`TraceEvent`] spans (queue-wait, batch staging, per-layer
//!   kernel, whole run) exportable as Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]) for `chrome://tracing` / Perfetto. Writers
//!   never block: a slot is claimed by CAS and a lapped writer drops the
//!   event instead of spinning; readers discard torn slots by sequence
//!   check. One track per worker thread ([`current_track`]).
//!
//! The [`LatencyHistogram`] here is unit-agnostic (it buckets raw `u64`
//! samples by power of two); the engine records **nanoseconds**, the
//! server records **microseconds**. Quantiles are estimated at the
//! *geometric midpoint* of the containing bucket — the unbiased point
//! estimate for a log2 bucket scheme — and every snapshot carries the
//! bucket upper bounds so scrapers never re-derive the scheme.

use crate::options::ResolvedBackend;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of power-of-two histogram buckets: bucket `i` counts samples
/// in `[2^i, 2^(i+1))` (bucket 0 includes 0); the last bucket is
/// open-ended.
pub const LATENCY_BUCKETS: usize = 32;

/// A fixed power-of-two-bucket histogram over raw `u64` samples.
///
/// Unit-agnostic: callers pick the unit (the engine's [`NetProfile`]
/// records nanoseconds, the server's metrics record microseconds) and
/// keep it consistent per histogram. Recording is wait-free: one
/// relaxed `fetch_add` on the bucket, one on the sum, one `fetch_max`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh, zeroed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let bucket = (63 - value.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (the server's unit).
    pub fn record_micros(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Zeroes every counter (relaxed stores; samples recorded
    /// concurrently with a reset may land on either side of it).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Snapshots the histogram into a serializable summary.
    pub fn snapshot(&self) -> LatencySnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: quantile_from_buckets(&buckets, count, 0.50),
            p99: quantile_from_buckets(&buckets, count, 0.99),
            max: self.max.load(Ordering::Relaxed),
            bucket_bounds: bucket_bounds().to_vec(),
            bucket_counts: buckets,
        }
    }
}

/// Upper bounds (exclusive) of every histogram bucket: bucket `i`
/// covers `[2^i, 2^(i+1))` (bucket 0 includes 0).
pub fn bucket_bounds() -> [u64; LATENCY_BUCKETS] {
    std::array::from_fn(|i| 1u64 << (i + 1))
}

/// The value at quantile `q`, estimated as the **geometric midpoint**
/// `sqrt(lo*hi)` of the bucket containing that rank — the unbiased
/// point estimate for log2 buckets (the old upper-bound estimate
/// overestimated by up to 2x).
pub fn quantile_from_buckets(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_midpoint(i);
        }
    }
    bucket_midpoint(buckets.len() - 1)
}

/// Geometric midpoint of bucket `i` (`sqrt(lo*hi)`, with bucket 0's
/// lower edge clamped to 1 since it also holds zero samples).
fn bucket_midpoint(i: usize) -> u64 {
    let lo = if i == 0 { 1.0 } else { (1u64 << i) as f64 };
    let hi = (1u128 << (i + 1)) as f64;
    (lo * hi).sqrt().round() as u64
}

/// Serializable [`LatencyHistogram`] state. Unit-agnostic — whatever
/// unit the histogram recorded (documented at each usage site).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (geometric midpoint of its bucket).
    pub p50: u64,
    /// 99th percentile (geometric midpoint of its bucket).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// Raw per-bucket counts.
    pub bucket_counts: Vec<u64>,
    /// Exclusive upper bound of each bucket, so scrapers need not
    /// re-derive the log2 scheme.
    #[serde(default)]
    pub bucket_bounds: Vec<u64>,
}

impl LatencySnapshot {
    /// An all-zero snapshot (the identity for [`LatencySnapshot::merge`]).
    pub fn zero() -> Self {
        Self {
            count: 0,
            sum: 0,
            mean: 0.0,
            p50: 0,
            p99: 0,
            max: 0,
            bucket_counts: vec![0; LATENCY_BUCKETS],
            bucket_bounds: bucket_bounds().to_vec(),
        }
    }

    /// Folds `other` into `self`, recomputing the derived statistics
    /// from the merged buckets — how the registry sums per-model
    /// histograms into the global view.
    pub fn merge(&mut self, other: &LatencySnapshot) {
        if self.bucket_counts.len() < other.bucket_counts.len() {
            self.bucket_counts.resize(other.bucket_counts.len(), 0);
        }
        for (a, b) in self.bucket_counts.iter_mut().zip(&other.bucket_counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.mean = if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 };
        self.p50 = quantile_from_buckets(&self.bucket_counts, self.count, 0.50);
        self.p99 = quantile_from_buckets(&self.bucket_counts, self.count, 0.99);
        if self.bucket_bounds.is_empty() {
            self.bucket_bounds = bucket_bounds().to_vec();
        }
    }
}

/// Process-relative monotonic clock in nanoseconds — the timebase of
/// every span. First call pins the epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small stable id for this thread's trace track (one per worker
/// thread, assigned on first use).
pub fn current_track() -> u16 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TRACK: std::cell::Cell<u16> = const { std::cell::Cell::new(0) };
    }
    TRACK.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed).min(u16::MAX as u32) as u16;
            t.set(id);
        }
        id
    })
}

/// FNV-1a hash of a request id string — the numeric span id that ties
/// engine/batcher spans back to an `X-Request-Id`.
pub fn span_id_from(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Compact tier code carried in trace events.
pub fn tier_code(tier: ResolvedBackend) -> u8 {
    match tier {
        ResolvedBackend::Scalar => 0,
        ResolvedBackend::Swar => 1,
        ResolvedBackend::Avx2 => 2,
    }
}

/// Reporting name for a [`tier_code`] value.
pub fn tier_name(code: u8) -> &'static str {
    match code {
        0 => "scalar",
        1 => "swar",
        2 => "avx2",
        _ => "unknown",
    }
}

/// What a [`TraceEvent`] span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Time a plane waited in a batcher queue before its batch started.
    QueueWait,
    /// Batch staging: copying queued planes into the batch working set.
    Pack,
    /// One layer's kernel execution (solo or batched; transpose/pack and
    /// the fused bias+requant write-out happen *inside* the kernel and
    /// are part of this span).
    Layer,
    /// One whole pass through the plan (all layers, one worker chunk).
    Run,
}

impl SpanKind {
    fn code(self) -> u8 {
        match self {
            SpanKind::QueueWait => 0,
            SpanKind::Pack => 1,
            SpanKind::Layer => 2,
            SpanKind::Run => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(SpanKind::QueueWait),
            1 => Some(SpanKind::Pack),
            2 => Some(SpanKind::Layer),
            3 => Some(SpanKind::Run),
            _ => None,
        }
    }

    /// Display name (Chrome trace span name prefix).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Pack => "pack",
            SpanKind::Layer => "layer",
            SpanKind::Run => "run",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Worker-thread track ([`current_track`]).
    pub track: u16,
    /// Layer index for [`SpanKind::Layer`] spans (0 otherwise).
    pub layer: u16,
    /// Planes in flight (1 for solo execution).
    pub batch: u16,
    /// Resolved backend tier ([`tier_code`]).
    pub tier: u8,
    /// Request-scoped span id (0 when not request-bound).
    pub id: u64,
    /// Span start, [`now_ns`] timebase.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A sink for trace events — implemented by [`TraceBuffer`]; the
/// executor holds one as `Option<Arc<dyn TraceSink>>`.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one span. Must be cheap and must never block the caller.
    fn record_span(&self, event: &TraceEvent);
}

/// Words per ring slot: `[start_ns, dur_ns, id, packed meta]`.
const SLOT_WORDS: usize = 4;

/// One seqlock-guarded slot. The sequence word encodes the claim index
/// `i` as `2i+1` while being written and `2i+2` once complete, so a
/// reader can both detect torn reads and recover the global order.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// A fixed-capacity, lock-free ring of [`TraceEvent`]s.
///
/// Multi-writer, snapshot-reader. Writers claim a global index with one
/// `fetch_add`, then CAS the slot's sequence word from the previous
/// lap's value to "claimed": a writer lapped by the whole ring while
/// stalled loses the CAS and drops its event rather than blocking or
/// corrupting the slot. The fence protocol is the classic seqlock
/// (odd = in progress, even = stable); readers re-check the sequence
/// after reading and discard torn slots. When the ring wraps, the
/// oldest events are overwritten — [`TraceBuffer::recorded`] keeps the
/// total so drops are observable.
pub struct TraceBuffer {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish_non_exhaustive()
    }
}

impl TraceBuffer {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self { slots, cursor: AtomicU64::new(0) }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (claims, including any that wrapped
    /// over older events or were dropped by a lapped writer).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Current, consistent events in the ring, sorted by start time.
    /// Slots mid-write (or lost to a torn read) are skipped — the
    /// snapshot never blocks writers.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while reading
            }
            if let Some(event) = decode_event(&words) {
                events.push(event);
            }
        }
        events.sort_by_key(|e| e.start_ns);
        events
    }

    /// Clears the ring (concurrent writers keep writing; their events
    /// survive the clear or land after it).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

impl TraceSink for TraceBuffer {
    fn record_span(&self, event: &TraceEvent) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        // Claim: the slot must still hold the previous lap's completed
        // sequence (or 0 on the first lap). Losing the race means this
        // writer was lapped by the whole ring mid-record; drop the event.
        let expected = if i < cap { 0 } else { 2 * (i - cap) + 2 };
        if slot
            .seq
            .compare_exchange(expected, 2 * i + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        std::sync::atomic::fence(Ordering::Release);
        let words = encode_event(event);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * i + 2, Ordering::Release);
    }
}

fn encode_event(e: &TraceEvent) -> [u64; SLOT_WORDS] {
    let meta = u64::from(e.kind.code())
        | (u64::from(e.tier) << 8)
        | (u64::from(e.layer) << 16)
        | (u64::from(e.batch) << 32)
        | (u64::from(e.track) << 48);
    [e.start_ns, e.dur_ns, e.id, meta]
}

fn decode_event(words: &[u64; SLOT_WORDS]) -> Option<TraceEvent> {
    let meta = words[3];
    Some(TraceEvent {
        kind: SpanKind::from_code((meta & 0xFF) as u8)?,
        tier: ((meta >> 8) & 0xFF) as u8,
        layer: ((meta >> 16) & 0xFFFF) as u16,
        batch: ((meta >> 32) & 0xFFFF) as u16,
        track: ((meta >> 48) & 0xFFFF) as u16,
        id: words[2],
        start_ns: words[0],
        dur_ns: words[1],
    })
}

/// Renders spans as Chrome `trace_event` JSON (complete `"X"` events,
/// microsecond timestamps) loadable in `chrome://tracing` or Perfetto.
/// One process (`pid` 1) named `process_name`; one thread track per
/// worker. `layer_kinds` names [`SpanKind::Layer`] spans by layer index
/// (indexes past the slice fall back to `layer{i}`).
pub fn chrome_trace_json(
    events: &[TraceEvent],
    layer_kinds: &[String],
    process_name: &str,
) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(process_name)
    ));
    for e in events {
        let name = match e.kind {
            SpanKind::Layer => {
                let kind = layer_kinds
                    .get(e.layer as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("layer{}", e.layer));
                format!("L{} {}", e.layer, kind)
            }
            SpanKind::Run => format!("run b={}", e.batch),
            other => other.name().to_string(),
        };
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"batch\":{},\"tier\":\"{}\",\
             \"layer\":{},\"span_id\":\"{:016x}\"}}}}",
            escape_json(&name),
            e.kind.name(),
            e.track,
            e.start_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.batch,
            tier_name(e.tier),
            e.layer,
            e.id,
        ));
    }
    out.push_str("]}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Always-on aggregate profile of one compiled plan: a histogram per
/// layer plus a whole-run histogram, all in **nanoseconds**.
///
/// Created per deployed plan (layer list must match), shared as
/// `Arc<NetProfile>` between the executor (writes) and the profile
/// endpoint (snapshots/resets).
#[derive(Debug)]
pub struct NetProfile {
    kinds: Vec<String>,
    layers: Vec<LatencyHistogram>,
    total: LatencyHistogram,
    runs: AtomicU64,
}

impl NetProfile {
    /// A profile for a plan whose layers are `kinds` (kernel names, in
    /// execution order).
    pub fn new(kinds: Vec<String>) -> Self {
        let layers = (0..kinds.len()).map(|_| LatencyHistogram::new()).collect();
        Self { kinds, layers, total: LatencyHistogram::new(), runs: AtomicU64::new(0) }
    }

    /// Layer kernel names, in execution order.
    pub fn layer_kinds(&self) -> &[String] {
        &self.kinds
    }

    /// Records one layer's wall time for one run (solo or batched).
    pub fn record_layer(&self, layer: usize, dur_ns: u64) {
        if let Some(h) = self.layers.get(layer) {
            h.record(dur_ns);
        }
    }

    /// Records one whole pass through the plan.
    pub fn record_run(&self, dur_ns: u64) {
        self.total.record(dur_ns);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Whole passes recorded.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Zeroes every histogram (the `POST .../profile/reset` endpoint).
    pub fn reset(&self) {
        for h in &self.layers {
            h.reset();
        }
        self.total.reset();
        self.runs.store(0, Ordering::Relaxed);
    }

    /// Serializable per-layer summary. `share` is each layer's fraction
    /// of total recorded engine time (layers sum to ~1.0; the small
    /// remainder is inter-layer plumbing).
    pub fn snapshot(&self) -> NetProfileSnapshot {
        let total = self.total.snapshot();
        let layers = self
            .layers
            .iter()
            .zip(&self.kinds)
            .enumerate()
            .map(|(index, (h, kind))| {
                let latency = h.snapshot();
                let share =
                    if total.sum == 0 { 0.0 } else { latency.sum as f64 / total.sum as f64 };
                LayerProfileSnapshot { index, kind: kind.clone(), share, latency }
            })
            .collect();
        NetProfileSnapshot { runs: self.runs(), unit: "ns".to_string(), total, layers }
    }
}

/// Serializable [`NetProfile`] state (all values in nanoseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetProfileSnapshot {
    /// Whole passes recorded.
    pub runs: u64,
    /// Unit of every latency figure (always `"ns"`).
    pub unit: String,
    /// Whole-run latency.
    pub total: LatencySnapshot,
    /// Per-layer breakdown, in execution order.
    pub layers: Vec<LayerProfileSnapshot>,
}

/// One layer's row in a [`NetProfileSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfileSnapshot {
    /// Layer index in execution order.
    pub index: usize,
    /// Kernel name (`pooled_conv`, `dense`, ...).
    pub kind: String,
    /// This layer's fraction of total recorded engine time.
    pub share: f64,
    /// The layer's latency histogram (nanoseconds).
    pub latency: LatencySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.bucket_counts[0], 2, "0 and 1 share bucket 0");
        assert_eq!(snap.bucket_counts[1], 1, "3 lands in [2,4)");
        assert_eq!(snap.bucket_counts[9], 1, "1000 lands in [512,1024)");
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 1004);
        assert_eq!(snap.bucket_bounds[0], 2);
        assert_eq!(snap.bucket_bounds[9], 1024);
    }

    #[test]
    fn quantiles_are_geometric_midpoints() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        let snap = h.snapshot();
        // 10 lands in [8,16); sqrt(8*16) = 11.31 -> 11. The old
        // upper-bound estimate said 16 — a documented 2x overestimate.
        assert_eq!(snap.p50, 11);
        assert_eq!(snap.p99, 11, "99 of 100 samples at 10");
        assert_eq!(snap.bucket_counts[16], 1, "outlier in [65536,131072)");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!((snap.count, snap.p50, snap.p99, snap.max), (0, 0, 0, 0));
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = LatencyHistogram::new();
        h.record(5);
        h.reset();
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.sum, snap.max), (0, 0, 0));
    }

    #[test]
    fn merge_recomputes_from_buckets() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(10);
            b.record(100);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 100);
        assert_eq!(merged.sum, 50 * 10 + 50 * 100);
        assert_eq!(merged.max, 100);
        // p50 falls on the 10-bucket boundary, p99 in the 100 bucket
        // [64,128): sqrt(64*128) = 90.5 -> 91.
        assert_eq!(merged.p99, 91);
    }

    #[test]
    fn ring_round_trips_events() {
        let buf = TraceBuffer::new(16);
        let ev = TraceEvent {
            kind: SpanKind::Layer,
            track: 3,
            layer: 7,
            batch: 12,
            tier: 1,
            id: 0xDEAD_BEEF,
            start_ns: 1000,
            dur_ns: 250,
        };
        buf.record_span(&ev);
        let got = buf.snapshot();
        assert_eq!(got, vec![ev]);
        assert_eq!(buf.recorded(), 1);
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let buf = TraceBuffer::new(8);
        for i in 0..20u64 {
            buf.record_span(&TraceEvent {
                kind: SpanKind::Run,
                track: 1,
                layer: 0,
                batch: 1,
                tier: 0,
                id: i,
                start_ns: i * 10,
                dur_ns: 1,
            });
        }
        let events = buf.snapshot();
        assert_eq!(events.len(), 8, "ring keeps exactly its capacity");
        assert!(events.iter().all(|e| e.id >= 12), "oldest events overwritten");
        assert_eq!(buf.recorded(), 20);
    }

    #[test]
    fn clear_empties_the_ring() {
        let buf = TraceBuffer::new(8);
        buf.record_span(&TraceEvent {
            kind: SpanKind::Pack,
            track: 1,
            layer: 0,
            batch: 4,
            tier: 2,
            id: 0,
            start_ns: 5,
            dur_ns: 5,
        });
        assert_eq!(buf.snapshot().len(), 1);
        buf.clear();
        assert!(buf.snapshot().is_empty());
    }

    #[test]
    fn chrome_export_names_layers() {
        let events = vec![
            TraceEvent {
                kind: SpanKind::Layer,
                track: 1,
                layer: 0,
                batch: 1,
                tier: 1,
                id: 1,
                start_ns: 100,
                dur_ns: 50,
            },
            TraceEvent {
                kind: SpanKind::QueueWait,
                track: 2,
                layer: 0,
                batch: 1,
                tier: 0,
                id: 2,
                start_ns: 10,
                dur_ns: 90,
            },
        ];
        let json = chrome_trace_json(&events, &["pooled_conv".to_string()], "wp\"test");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"L0 pooled_conv\""));
        assert!(json.contains("\"queue-wait\""));
        assert!(json.contains("\\\"test"), "process name is escaped");
        assert!(json.contains("\"tier\":\"swar\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn net_profile_shares_and_reset() {
        let p = NetProfile::new(vec!["conv".into(), "dense".into()]);
        for _ in 0..10 {
            p.record_layer(0, 300);
            p.record_layer(1, 100);
            p.record_run(420);
        }
        let snap = p.snapshot();
        assert_eq!(snap.runs, 10);
        assert_eq!(snap.layers.len(), 2);
        assert_eq!(snap.layers[0].kind, "conv");
        let share_sum: f64 = snap.layers.iter().map(|l| l.share).sum();
        assert!(
            (share_sum - 400.0 / 420.0).abs() < 1e-9,
            "layer shares must sum to layer/total time, got {share_sum}"
        );
        p.reset();
        let snap = p.snapshot();
        assert_eq!(snap.runs, 0);
        assert_eq!(snap.total.count, 0);
    }

    #[test]
    fn span_ids_are_stable_and_distinct() {
        assert_eq!(span_id_from("req-1"), span_id_from("req-1"));
        assert_ne!(span_id_from("req-1"), span_id_from("req-2"));
        assert_ne!(span_id_from(""), 0);
    }

    #[test]
    fn track_ids_are_stable_per_thread_and_distinct_across() {
        let here = current_track();
        assert_eq!(current_track(), here);
        let there = std::thread::spawn(current_track).join().unwrap();
        assert_ne!(here, there);
    }
}
