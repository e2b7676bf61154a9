//! In-memory spans recorded by the benchmark's own code, written out as
//! Chrome `trace_event` JSON when a traced run ends.

use std::time::Instant;

/// A shared monotonic timebase (nanoseconds since the run began).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Self { base: Instant::now() }
    }

    /// Nanoseconds since the clock's zero.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One complete span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`request`, or the layer function called).
    pub name: &'static str,
    /// Chrome trace category (`client` or the layer's module).
    pub cat: &'static str,
    /// Track: a client connection (1..) or the measuring thread (0).
    pub tid: u32,
    /// Start, ns on the run's [`Clock`].
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// The request's `X-Request-Id`, for client spans.
    pub id: Option<String>,
}

impl Span {
    /// A span over `[start_ns, end_ns)`.
    pub fn new(
        name: &'static str,
        cat: &'static str,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Self { name, cat, tid, start_ns, dur_ns: end_ns.saturating_sub(start_ns), id: None }
    }

    /// Tags the span with a request id.
    pub fn with_id(mut self, id: String) -> Self {
        self.id = Some(id);
        self
    }
}

/// Spans of the measuring thread's direct layer calls.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    /// Everything recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder on `clock`.
    pub fn new(clock: Clock) -> Self {
        Self { clock, spans: Vec::new() }
    }

    /// Calls `f` `reps` times, one span each, and returns the median
    /// duration in microseconds with the last call's result.
    pub fn median_us<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let start = self.clock.now_ns();
            let out = std::hint::black_box(f());
            let end = self.clock.now_ns();
            self.spans.push(Span::new(name, cat, 0, start, end));
            times.push(end.saturating_sub(start) as f64 / 1e3);
            last = Some(out);
        }
        (crate::stats::median(&times), last.expect("at least one rep"))
    }
}

/// Renders spans as Chrome `trace_event` JSON (complete `X` events,
/// microsecond timestamps), one track per client connection plus the
/// measuring thread.
pub fn chrome_trace_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 150 + 128);
    out.push_str(&format!(
        "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(process)
    ));
    for s in spans {
        let args = match &s.id {
            Some(id) => format!("{{\"request_id\":\"{}\"}}", escape(id)),
            None => "{}".to_string(),
        };
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{args}}}",
            escape(s.name),
            escape(s.cat),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        ));
    }
    out.push_str("]}");
    out
}

fn escape(s: &str) -> String {
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
