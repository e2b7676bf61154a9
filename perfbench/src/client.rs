//! The client side of the wire: a keep-alive HTTP/1.1 client
//! and the closed-loop load generator.
//!
//! Requests are rendered to bytes before timing ([`WireRequest`]); the
//! generator only stamps a request id into a fixed-width slot, writes the
//! bytes, reads the reply and compares its body byte for byte.

use crate::spans::{Clock, Span};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Digits in a request id's sequence number (the slot is fixed-width so
/// stamping an id never moves the body).
const SEQ_DIGITS: usize = 10;

/// One prebuilt request: wire bytes with an id slot, and the response
/// body the server must send back.
#[derive(Debug, Clone)]
pub struct WireRequest {
    bytes: Vec<u8>,
    /// Offset of the `X-Request-Id` value inside `bytes`.
    id_at: usize,
    /// Offset of the id's sequence digits.
    seq_at: usize,
    /// Offset of the body.
    body_at: usize,
    /// Planes the request carries.
    pub planes: usize,
    /// The exact response body expected.
    pub expected: Vec<u8>,
}

impl WireRequest {
    /// An HTTP request for `method path` with a JSON `body`, tagged with
    /// connection `conn`'s request-id prefix.
    pub fn new(method: &str, path: &str, body: &[u8], conn: usize) -> Self {
        let mut bytes = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nX-Request-Id: ",
            body.len()
        )
        .into_bytes();
        let id_at = bytes.len();
        bytes.extend_from_slice(format!("c{conn}-").as_bytes());
        let seq_at = bytes.len();
        bytes.extend(std::iter::repeat_n(b'0', SEQ_DIGITS));
        bytes.extend_from_slice(b"\r\n\r\n");
        let body_at = bytes.len();
        bytes.extend_from_slice(body);
        Self { bytes, id_at, seq_at, body_at, planes: 0, expected: Vec::new() }
    }

    /// Sets the planes carried and the expected response body.
    pub fn expecting(mut self, planes: usize, expected: Vec<u8>) -> Self {
        self.planes = planes;
        self.expected = expected;
        self
    }

    /// Writes `seq` into the id slot (mod 10^SEQ_DIGITS).
    pub fn stamp(&mut self, mut seq: u64) {
        for b in self.bytes[self.seq_at..self.seq_at + SEQ_DIGITS].iter_mut().rev() {
            *b = b'0' + (seq % 10) as u8;
            seq /= 10;
        }
    }

    /// The `X-Request-Id` currently stamped.
    pub fn request_id(&self) -> String {
        String::from_utf8_lossy(&self.bytes[self.id_at..self.seq_at + SEQ_DIGITS]).into_owned()
    }

    /// The full wire bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The request body.
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_at..]
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// De-chunked body.
    pub body: Vec<u8>,
}

/// Whether `response` is a 200 whose body equals `expected` byte for
/// byte — the benchmark's correctness check.
pub fn reply_ok(response: &Response, expected: &[u8]) -> bool {
    response.status == 200 && response.body == expected
}

/// One keep-alive client connection.
pub struct HttpConn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl HttpConn {
    /// Connects with Nagle off (requests go out in one write).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { reader: BufReader::with_capacity(64 * 1024, stream), line: String::new() })
    }

    /// Writes one request and reads its response to the last byte.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.reader.get_mut().write_all(request)?;
        self.read_response()
    }

    fn next_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(self.line.trim_end())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let status = self
            .next_line()?
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let line = self.next_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                let size = usize::from_str_radix(self.next_line()?, 16)
                    .map_err(|_| bad("bad chunk size"))?;
                if size == 0 {
                    self.next_line()?;
                    break;
                }
                let at = body.len();
                body.resize(at + size, 0);
                self.reader.read_exact(&mut body[at..])?;
                self.next_line()?;
            }
        } else {
            body.resize(length.ok_or_else(|| bad("no content-length"))?, 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok(Response { status, body })
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Clock time the request's first byte was written, ns.
    pub start_ns: u64,
    /// Clock time its response's last byte was read, ns.
    pub end_ns: u64,
    /// 200 with a byte-identical body.
    pub ok: bool,
    /// Planes it carried.
    pub planes: u32,
}

/// What one connection thread hands back.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Every request it completed (or failed).
    pub samples: Vec<Sample>,
    /// Client request spans recorded while tracing was on.
    pub spans: Vec<Span>,
}

/// A running closed-loop load: one thread per connection, each sending
/// its next request only after the previous reply arrived.
pub struct Traffic {
    stop: Arc<AtomicBool>,
    tracing: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<ConnResult>>,
}

impl Traffic {
    /// Starts one connection per entry of `requests`, each cycling
    /// through its own request list.
    pub fn start(addr: SocketAddr, requests: Vec<Vec<WireRequest>>, clock: Clock) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let tracing = Arc::new(AtomicBool::new(false));
        let threads = requests
            .into_iter()
            .enumerate()
            .map(|(conn, reqs)| {
                let stop = Arc::clone(&stop);
                let tracing = Arc::clone(&tracing);
                std::thread::Builder::new()
                    .name(format!("bench-conn-{conn}"))
                    .spawn(move || drive(addr, conn, reqs, clock, &stop, &tracing))
                    .expect("spawn load connection")
            })
            .collect();
        Self { stop, tracing, threads }
    }

    /// Turns client span recording on or off.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Stops every connection after its in-flight request and joins them.
    pub fn stop(self) -> Vec<ConnResult> {
        self.stop.store(true, Ordering::SeqCst);
        self.threads.into_iter().map(|t| t.join().expect("load connection panicked")).collect()
    }
}

fn drive(
    addr: SocketAddr,
    conn_index: usize,
    mut reqs: Vec<WireRequest>,
    clock: Clock,
    stop: &AtomicBool,
    tracing: &AtomicBool,
) -> ConnResult {
    let mut out = ConnResult { samples: Vec::with_capacity(1 << 16), spans: Vec::new() };
    let mut conn = None;
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match HttpConn::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    // A refused connection is a failed request.
                    let now = clock.now_ns();
                    out.samples.push(Sample { start_ns: now, end_ns: now, ok: false, planes: 0 });
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let n = reqs.len();
        let req = &mut reqs[(seq % n as u64) as usize];
        req.stamp(seq);
        seq += 1;
        let traced = tracing.load(Ordering::Relaxed);
        let start_ns = clock.now_ns();
        let result = c.roundtrip(req.bytes());
        let end_ns = clock.now_ns();
        let ok = match &result {
            Ok(r) => reply_ok(r, &req.expected),
            Err(_) => {
                conn = None;
                false
            }
        };
        out.samples.push(Sample { start_ns, end_ns, ok, planes: req.planes as u32 });
        if traced {
            out.spans.push(
                Span::new("request", "client", conn_index as u32 + 1, start_ns, end_ns)
                    .with_id(req.request_id()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_server::protocol::InferResponse;

    fn body(outputs: Vec<Vec<i32>>) -> Vec<u8> {
        serde_json::to_string(&InferResponse { model: "m".into(), outputs }).unwrap().into_bytes()
    }

    #[test]
    fn body_check_rejects_a_one_code_mismatch() {
        let expected = body(vec![vec![3, -7, 12], vec![0, 1, 2]]);
        let same = Response { status: 200, body: expected.clone() };
        assert!(reply_ok(&same, &expected));
        let off_by_one = Response { status: 200, body: body(vec![vec![3, -7, 12], vec![0, 1, 3]]) };
        assert!(!reply_ok(&off_by_one, &expected));
        let wrong_status = Response { status: 503, body: expected.clone() };
        assert!(!reply_ok(&wrong_status, &expected));
    }

    #[test]
    fn stamping_fills_the_fixed_width_id_slot() {
        let mut req = WireRequest::new("POST", "/v1/infer", b"{}", 3);
        let len = req.bytes().len();
        req.stamp(42);
        assert_eq!(req.request_id(), "c3-0000000042");
        assert_eq!(req.bytes().len(), len, "stamping never moves the body");
        assert!(req.bytes().ends_with(b"\r\n\r\n{}"));
        assert_eq!(req.body(), b"{}");
    }
}
