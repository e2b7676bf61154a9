//! A minimal HTTP/1.1 layer — just enough protocol for the inference
//! endpoints, with hard limits instead of dependencies.
//!
//! The core is an **incremental parser**, [`RequestParser`]: a state
//! machine that is fed whatever bytes have arrived (possibly one at a
//! time, across many socket readiness events) and yields a [`Request`]
//! once a full head + body is buffered; [`RequestParser::eof_error`] says
//! what a peer's EOF means at any point of the parse. The event-driven
//! connection front drives it directly, and renders every response with
//! [`encode_response`].
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default, opt-in for 1.0), pipelined requests
//! (leftover bytes stay buffered for the next parse), case-insensitive
//! header lookup. Every response is framed with `Content-Length`
//! ([`encode_response`]). Not supported (connection is closed or the
//! request rejected): chunked request bodies and upgrades.

use std::io::{self, Write};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 32 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string included, if any).
    pub path: String,
    /// HTTP minor version: `true` for 1.1 (keep-alive by default).
    pub http11: bool,
    /// Raw header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after responding.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The transport failed mid-request (a body cut short by EOF).
    Io(io::Error),
    /// The request violates the protocol subset; the string is safe to
    /// echo in a 400 response.
    Malformed(String),
    /// Head or body over the hard limits (maps to 431/413).
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// What stage of a request the parser is in (drives per-connection
/// deadlines: a connection sitting in [`ParseStage::Head`] with bytes
/// buffered, or in [`ParseStage::Body`], is *mid-request* and subject to
/// the read deadline rather than the idle deadline).
#[derive(Debug)]
enum ParseStage {
    /// Scanning buffered bytes for the blank-line head terminator.
    Head,
    /// Head parsed; collecting `need` more body bytes.
    Body { request: Request, need: usize },
}

/// Incremental HTTP/1.1 request parser.
///
/// Feed arriving bytes with [`RequestParser::feed`], then call
/// [`RequestParser::try_parse`] until it returns `Ok(None)` (needs more
/// bytes) or an error. Bytes beyond one request stay buffered, so
/// pipelined requests parse on subsequent calls without re-feeding.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed parses; compacted
    /// opportunistically so pipelining never grows the buffer unbounded.
    start: usize,
    stage: ParseStage,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A fresh parser with nothing buffered.
    pub fn new() -> Self {
        Self { buf: Vec::new(), start: 0, stage: ParseStage::Head }
    }

    /// Appends newly-read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: completed requests leave a consumed
        // prefix behind.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a request is partially buffered (head bytes without a
    /// terminator, or an incomplete body). Distinguishes a *slow sender
    /// mid-request* (read deadline, 408) from an *idle keep-alive
    /// connection* (idle deadline, silent close).
    pub fn mid_request(&self) -> bool {
        match &self.stage {
            ParseStage::Body { .. } => true,
            ParseStage::Head => self.buf[self.start..].iter().any(|&b| b != b'\r' && b != b'\n'),
        }
    }

    /// Bytes currently buffered and not yet consumed by a parse.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// What an EOF at this point in the parse means: `None` for a clean
    /// close between requests, [`HttpError::Malformed`] for a head cut
    /// off mid-way (the peer deserves a 400), [`HttpError::Io`] for a
    /// body cut short (nothing sensible to answer).
    pub fn eof_error(&self) -> Option<HttpError> {
        match &self.stage {
            ParseStage::Head if !self.mid_request() => None,
            ParseStage::Head => Some(HttpError::Malformed("truncated request head".into())),
            ParseStage::Body { .. } => {
                Some(HttpError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "body cut short")))
            }
        }
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed — feed more and call
    /// again. After `Ok(Some(_))`, call again before reading from the
    /// socket: a pipelined next request may already be buffered.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] / [`HttpError::TooLarge`] when the bytes
    /// cannot be served; the connection should respond 4xx and close.
    pub fn try_parse(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match &mut self.stage {
                ParseStage::Head => {
                    // Tolerate (and consume) blank lines between
                    // pipelined requests.
                    while self.start < self.buf.len()
                        && (self.buf[self.start] == b'\r' || self.buf[self.start] == b'\n')
                    {
                        self.start += 1;
                    }
                    let pending = &self.buf[self.start..];
                    let Some(head_len) = find_head_end(pending) else {
                        if pending.len() > MAX_HEAD_BYTES {
                            return Err(HttpError::TooLarge(format!(
                                "request head over {MAX_HEAD_BYTES} bytes"
                            )));
                        }
                        return Ok(None);
                    };
                    if head_len > MAX_HEAD_BYTES {
                        return Err(HttpError::TooLarge(format!(
                            "request head over {MAX_HEAD_BYTES} bytes"
                        )));
                    }
                    let request = parse_head(&pending[..head_len])?;
                    self.start += head_len;
                    let need = body_length(&request)?;
                    self.stage = ParseStage::Body { request, need };
                }
                ParseStage::Body { need, .. } => {
                    let available = self.buf.len() - self.start;
                    if available < *need {
                        return Ok(None);
                    }
                    let need = *need;
                    let ParseStage::Body { mut request, .. } =
                        std::mem::replace(&mut self.stage, ParseStage::Head)
                    else {
                        unreachable!("stage checked above");
                    };
                    request.body = self.buf[self.start..self.start + need].to_vec();
                    self.start += need;
                    return Ok(Some(request));
                }
            }
        }
    }
}

/// Finds the end of the head (the index just past the blank line), or
/// `None` if the terminator has not arrived yet. Accepts `\r\n\r\n` and
/// the lenient bare `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1..) {
                Some([b'\n', ..]) => return Some(i + 2),
                Some([b'\r', b'\n', ..]) => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses a complete head (request line + headers, including the blank
/// line) into a body-less [`Request`].
fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::Malformed(format!("unsupported version {other}"))),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok(Request { method, path, http11, headers, body: Vec::new() })
}

/// The body length a parsed head promises. Each `Content-Length` value
/// must be all ASCII digits, and repeated `Content-Length` headers must
/// agree; anything else is malformed (a 400, as RFC 9112 §6.3 requires).
/// A lenient reading here could frame the body differently from a proxy
/// in front, and the two would then disagree on where the next request
/// starts.
fn body_length(request: &Request) -> Result<usize, HttpError> {
    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::Malformed(format!("unsupported transfer-encoding {te}")));
        }
    }
    let mut length = None;
    for (name, value) in &request.headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let bad = || HttpError::Malformed(format!("bad content-length {value:?}"));
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        let len: usize = value.parse().map_err(|_| bad())?;
        if length.is_some_and(|first| first != len) {
            return Err(HttpError::Malformed("conflicting content-length headers".into()));
        }
        length = Some(len);
    }
    let len = length.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!("body of {len} bytes")));
    }
    Ok(len)
}

/// An HTTP status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200.
    pub const OK: Status = Status(200);
    /// 400.
    pub const BAD_REQUEST: Status = Status(400);
    /// 403.
    pub const FORBIDDEN: Status = Status(403);
    /// 404.
    pub const NOT_FOUND: Status = Status(404);
    /// 405.
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    /// 408.
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 409.
    pub const CONFLICT: Status = Status(409);
    /// 413.
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    /// 500.
    pub const INTERNAL: Status = Status(500);
    /// 503.
    pub const UNAVAILABLE: Status = Status(503);

    /// The reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Renders one full response into bytes, framed with `Content-Length`.
/// The body is already whole, so the connection's write buffer drains it
/// in as many writes as the socket takes, whatever its size.
pub fn encode_response(
    status: Status,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = Vec::with_capacity(body.len() + 256);
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        status.0,
        status.reason(),
        content_type,
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` to a fresh parser as one whole byte stream, then ends
    /// the stream: a complete request parses to `Ok(Some)`, and an EOF
    /// with nothing complete maps through [`RequestParser::eof_error`] —
    /// `Ok(None)` for a clean close before any request started.
    fn parse(raw: impl AsRef<[u8]>) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_ref());
        match parser.try_parse()? {
            Some(request) => Ok(Some(request)),
            None => parser.eof_error().map_or(Ok(None), Err),
        }
    }

    /// [`parse`] for a stream that must hold one complete request.
    fn request(raw: &str) -> Request {
        parse(raw).unwrap().expect("a complete request")
    }

    #[test]
    fn parses_get_with_headers() {
        let r = request("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.http11);
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(!r.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let r = request("POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = request("GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive());
        let r = request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive());
    }

    #[test]
    fn eof_and_malformed_are_distinguished() {
        assert!(matches!(parse(""), Ok(None)), "a clean close is not an error");
        assert!(matches!(parse("\r\n\r\n"), Ok(None)), "nor are blank lines before it");
        assert!(matches!(parse("BROKEN\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET / HTTP/2\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_lengths_and_bytes_are_rejected() {
        // A Content-Length that is not all ASCII digits: not a number,
        // negative, signed, or empty.
        for len in ["banana", "-5", "+5", "5 5", ""] {
            assert!(
                matches!(
                    parse(format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nabcde")),
                    Err(HttpError::Malformed(_))
                ),
                "content-length {len:?}"
            );
        }
        // Two Content-Length headers that disagree (a request-smuggling
        // split behind a proxy that reads the other one).
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 50\r\n\r\nab"),
            Err(HttpError::Malformed(_))
        ));
        // Repeated headers that agree frame the body as one would.
        let r = request("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab");
        assert_eq!(r.body, b"ab");
        // A head that stops without its blank-line terminator.
        assert!(matches!(parse("POST / HTTP/1.1\r\nHost: x"), Err(HttpError::Malformed(_))));
        // Non-UTF-8 bytes in the head.
        let mut raw = Vec::from(&b"GET / HTTP/1.1\r\nX-Bin: "[..]);
        raw.extend_from_slice(&[0xFF, 0xFE]);
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::Malformed(_))));
        // Chunked transfer encoding is outside the supported subset.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_io_error() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Io(_))
        ));
    }

    /// The incremental parser completes a request fed one byte at a time
    /// — the readiness-loop scenario where a head trickles in across many
    /// events.
    #[test]
    fn incremental_byte_at_a_time() {
        let raw = b"POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new();
        for (i, byte) in raw.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let parsed = parser.try_parse().unwrap();
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "complete at byte {i} of {}", raw.len());
                if i > 0 {
                    assert!(parser.mid_request(), "mid-request from the first real byte");
                }
            } else {
                let r = parsed.expect("complete on the last byte");
                assert_eq!(r.method, "POST");
                assert_eq!(r.body, b"hello");
            }
        }
        assert!(!parser.mid_request(), "clean after a complete request");
    }

    /// Two pipelined requests in one buffer parse back to back without
    /// new bytes in between.
    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(raw);
        let first = parser.try_parse().unwrap().expect("first request");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        let second = parser.try_parse().unwrap().expect("pipelined second request");
        assert_eq!(second.path, "/b");
        assert_eq!(second.method, "GET");
        assert!(parser.try_parse().unwrap().is_none());
        assert!(!parser.mid_request());
    }

    /// Blank lines between pipelined requests are tolerated, and buffer
    /// compaction across many requests keeps memory bounded.
    #[test]
    fn pipelining_compacts_the_buffer() {
        let mut parser = RequestParser::new();
        for i in 0..5000 {
            parser.feed(b"GET /x HTTP/1.1\r\n\r\n\r\n");
            let r = parser.try_parse().unwrap().unwrap_or_else(|| panic!("request {i}"));
            assert_eq!(r.path, "/x");
        }
        assert!(parser.buf.capacity() < 64 * 1024, "buffer must stay compacted");
    }

    /// An endless unterminated head is rejected as soon as it exceeds the
    /// limit, even though no terminator ever arrives.
    #[test]
    fn incremental_oversized_head_rejected_without_terminator() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nX-Pad: ");
        parser.feed(&vec![b'a'; MAX_HEAD_BYTES + 1]);
        assert!(matches!(parser.try_parse(), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn response_is_well_formed() {
        let out = encode_response(Status::OK, "application/json", &[], b"{\"a\":1}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }

    #[test]
    fn response_carries_content_type_and_extra_headers() {
        let out = encode_response(
            Status::OK,
            "text/plain; version=0.0.4",
            &[("X-Request-Id", "req-7")],
            b"wp_http_requests_total 1\n",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("X-Request-Id: req-7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nwp_http_requests_total 1\n"));
    }

    /// Every response is `Content-Length`-framed, however large its body.
    #[test]
    fn encode_response_frames_every_body_by_content_length() {
        let small = encode_response(Status::OK, "application/json", &[], b"{}", true);
        let text = String::from_utf8(small).unwrap();
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let body: Vec<u8> = (0..40 * 1024).map(|i| b'a' + (i % 26) as u8).collect();
        let big =
            encode_response(Status::OK, "application/json", &[("X-Request-Id", "r")], &body, true);
        let head_end = big.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let head = std::str::from_utf8(&big[..head_end]).unwrap();
        assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert!(!head.contains("Transfer-Encoding"));
        assert!(head.contains("X-Request-Id: r\r\n"));
        assert_eq!(&big[head_end..], &body[..]);
    }
}
