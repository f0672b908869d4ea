//! A minimal vendored HTTP/1.1 stub — request parsing, fixed and chunked
//! response writing, and a small client for the load generator.
//!
//! Consistent with the `crates/compat` approach: the build environment is
//! fully offline, so instead of an HTTP framework this module implements
//! exactly the surface the daemon needs — `GET`/`POST` with
//! `Content-Length` bodies in, fixed or `Transfer-Encoding: chunked`
//! responses out, one request per connection (`Connection: close`).
//!
//! Every way a request can be broken maps to a *typed* [`HttpError`], so
//! the daemon can answer a malformed or torn request with a clean 400-class
//! response instead of panicking or hanging the accept loop. Reads honour
//! the socket's read timeout: a stalled client surfaces as
//! [`HttpError::TimedOut`], never as a wedged handler thread.

use std::io::{self, Read, Write};

/// Cap on the request line + headers, generous for hand-written clients.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on a request body (sweep requests are a few hundred bytes).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Everything that can be wrong with an incoming request.
///
/// [`status`](HttpError::status) maps each variant to the response the
/// daemon sends; the body carries [`kind`](HttpError::kind) so clients and
/// tests can assert on the *class* of failure without string-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before the request was complete
    /// (torn request line, headers, or body).
    Truncated(String),
    /// The bytes arrived but do not parse as HTTP/1.1.
    Malformed(String),
    /// Head or body exceeds the fixed caps.
    TooLarge(String),
    /// The socket read timeout expired mid-request (slow-loris client).
    TimedOut,
}

impl HttpError {
    /// The status line this error answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Truncated(_) | HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::TooLarge(_) => (413, "Payload Too Large"),
            HttpError::TimedOut => (408, "Request Timeout"),
        }
    }

    /// Machine-readable error class for JSON bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            HttpError::Truncated(_) => "truncated",
            HttpError::Malformed(_) => "malformed",
            HttpError::TooLarge(_) => "too-large",
            HttpError::TimedOut => "timeout",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Truncated(detail) => write!(f, "truncated request: {detail}"),
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::TooLarge(detail) => write!(f, "request too large: {detail}"),
            HttpError::TimedOut => write!(f, "request timed out"),
        }
    }
}

/// A parsed request: method, path, headers, and the raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the peer, taken verbatim).
    pub method: String,
    /// The request target, e.g. `/sweep`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Classifies a transport error: timeouts become [`HttpError::TimedOut`],
/// anything else is a truncation (the peer is gone mid-request).
fn io_error(e: io::Error, context: &str) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::TimedOut,
        _ => HttpError::Truncated(format!("{context}: {e}")),
    }
}

/// Reads and parses one HTTP/1.1 request from `stream`.
///
/// Never panics and never blocks past the stream's read timeout: every
/// broken input comes back as a typed [`HttpError`] the caller can render
/// as a 4xx response.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    // Accumulate until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(|e| io_error(e, "reading head"))?;
        if n == 0 {
            return Err(HttpError::Truncated(format!(
                "connection closed after {} byte(s), before the end of the headers",
                buf.len()
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => v.parse::<usize>().map_err(|_| {
            HttpError::Malformed(format!("bad Content-Length {v:?}"))
        })?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }

    // The head read may have pulled in the start of the body.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::Malformed(format!(
            "{} byte(s) past the declared Content-Length {content_length}",
            body.len()
        )));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 1024];
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| io_error(e, "reading body"))?;
        if n == 0 {
            return Err(HttpError::Truncated(format!(
                "connection closed {} byte(s) into a {content_length}-byte body",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    Ok(Request { body, ..request })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The status line and headers of a reply, up to and including the blank
/// line; `framing` is the `Content-Length` or `Transfer-Encoding` header.
fn reply_head(status: u16, reason: &str, headers: &[(&str, &str)], framing: &str) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("{framing}\r\nConnection: close\r\n\r\n"));
    head.into_bytes()
}

/// Writes a complete fixed-length response (status + headers + body) with
/// one `write_all`: under `TCP_NODELAY` every write is its own segment.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut reply = reply_head(
        status,
        reason,
        headers,
        &format!("Content-Length: {}", body.len()),
    );
    reply.extend_from_slice(body);
    stream.write_all(&reply)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response writer: the daemon streams one
/// chunk per completed sweep chunk, so clients see the Pareto front grow
/// while the remainder is still measuring. Each call is one `write_all`;
/// to send a whole reply in one write, frame it into a `Vec` first.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    /// Size line, data and CRLF of the chunk being written, reused.
    frame: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the status line and headers and switches to chunked framing.
    pub fn start(
        stream: &'a mut W,
        status: u16,
        reason: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<Self> {
        stream.write_all(&reply_head(status, reason, headers, "Transfer-Encoding: chunked"))?;
        Ok(Self { stream, frame: Vec::new() })
    }

    /// Writes one chunk (empty input is skipped — a zero-length chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        write!(self.frame, "{:x}\r\n", data.len())?;
        self.frame.extend_from_slice(data);
        self.frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.frame)?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed response, as seen by the load generator and the tests.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The de-chunked (or fixed-length) body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a full response from `stream`: status line, headers, then either a
/// `Content-Length` body or de-chunked `Transfer-Encoding: chunked` data.
/// With neither framing header, reads to EOF (`Connection: close`).
pub fn read_response(stream: &mut impl Read) -> Result<Response, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(|e| format!("reading response head: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed {} byte(s) into the response head", buf.len()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }

    let mut rest: Vec<u8> = buf[head_end + 4..].to_vec();
    let mut read_all = |rest: &mut Vec<u8>| -> Result<(), String> {
        let mut chunk = [0u8; 4096];
        loop {
            let n = stream.read(&mut chunk).map_err(|e| format!("reading body: {e}"))?;
            if n == 0 {
                return Ok(());
            }
            rest.extend_from_slice(&chunk[..n]);
        }
    };

    let response = Response { status, headers, body: Vec::new() };
    let body = if response
        .header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        // Connection: close lets us read to EOF, then de-chunk in memory.
        read_all(&mut rest)?;
        dechunk(&rest)?
    } else if let Some(len) = response.header("content-length") {
        let len: usize =
            len.parse().map_err(|_| format!("bad response Content-Length {len:?}"))?;
        while rest.len() < len {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).map_err(|e| format!("reading body: {e}"))?;
            if n == 0 {
                return Err(format!("connection closed {} byte(s) into a {len}-byte body", rest.len()));
            }
            rest.extend_from_slice(&chunk[..n]);
        }
        rest.truncate(len);
        rest
    } else {
        read_all(&mut rest)?;
        rest
    };

    Ok(Response { body, ..response })
}

/// Decodes chunked transfer framing into the payload bytes. Sizes come
/// from the peer, so every offset is checked: a size that overruns the
/// stream, even one near `usize::MAX`, is an error, never a panic.
fn dechunk(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(data.len());
    let mut pos = 0usize;
    loop {
        let line_end = data[pos..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("missing chunk-size line")?;
        let size_text = std::str::from_utf8(&data[pos..pos + line_end])
            .map_err(|_| "chunk size is not UTF-8".to_string())?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        pos += line_end + 2;
        if size == 0 {
            return Ok(out);
        }
        let data_end = pos
            .checked_add(size)
            .filter(|&end| end.checked_add(2).is_some_and(|e| e <= data.len()))
            .ok_or_else(|| format!("chunk of {size} byte(s) overruns the stream"))?;
        out.extend_from_slice(&data[pos..data_end]);
        pos = data_end + 2; // skip the trailing CRLF
    }
}

/// One-shot client request against `addr`, used by the load generator and
/// the determinism tests.
pub fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("write head: {e}"))?;
    stream.write_all(body).map_err(|e| format!("write body: {e}"))?;
    read_response(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &bytes[..])
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sweep");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn torn_head_is_truncated() {
        let err = parse(b"POST /sweep HTTP/1.1\r\nContent-Le").unwrap_err();
        assert!(matches!(err, HttpError::Truncated(_)), "{err:?}");
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn torn_body_is_truncated() {
        let err =
            parse(b"POST /sweep HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly ten b").unwrap_err();
        assert!(matches!(err, HttpError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn bad_request_line_is_malformed() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET /x\r\n\r\n"[..],
            &b"GET /x SMTP/1.0\r\n\r\n"[..],
            &b"GET /x HTTP/1.1 extra\r\n\r\n"[..],
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?} -> {err:?}");
            assert_eq!(err.status().0, 400);
        }
    }

    #[test]
    fn bad_content_length_is_malformed() {
        let err = parse(b"POST /s HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn oversized_body_is_too_large() {
        let raw = format!("POST /s HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err:?}");
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn oversized_head_is_too_large() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 16));
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err:?}");
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut out: Vec<u8> = Vec::new();
        let mut w =
            ChunkedWriter::start(&mut out, 200, "OK", &[("X-Cache", "miss")]).unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"").unwrap();
        w.chunk(b"{\"b\":2}\n").unwrap();
        w.finish().unwrap();
        let resp = read_response(&mut &out[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("miss"));
        assert_eq!(resp.body, b"{\"a\":1}\n{\"b\":2}\n");
    }

    /// Counts the `write` calls reaching the socket.
    #[derive(Default)]
    struct Writes {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_and_each_chunk_is_one_write() {
        let mut out = Writes::default();
        write_response(&mut out, 200, "OK", &[("Content-Type", "text/plain")], b"ok\n").unwrap();
        assert_eq!(out.calls, 1, "a fixed reply is one write");

        let mut out = Writes::default();
        let mut w = ChunkedWriter::start(&mut out, 200, "OK", &[]).unwrap();
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"{\"b\":2}\n").unwrap();
        w.finish().unwrap();
        assert_eq!(out.calls, 4, "head, one write per chunk, terminator");
        assert_eq!(read_response(&mut &out.bytes[..]).unwrap().body, b"{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn fixed_response_round_trips() {
        let mut out: Vec<u8> = Vec::new();
        write_response(&mut out, 400, "Bad Request", &[("Content-Type", "application/json")], b"{}")
            .unwrap();
        let resp = read_response(&mut &out[..]).unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(resp.body, b"{}");
    }

    /// The requests the reader fuzz cuts, stalls and mutates: a sweep with
    /// a body, framed as [`http_request`] frames it, and two bodiless GETs.
    fn fuzz_requests() -> Vec<Vec<u8>> {
        let body = br#"{"arch":"k40c","n":512,"products":4,"seed":42,"chunk":16}"#;
        let mut post = format!(
            "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1:7271\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        post.extend_from_slice(body);
        let get = |path: &str| {
            format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1:7271\r\nConnection: close\r\n\r\n")
                .into_bytes()
        };
        vec![post, get("/healthz"), get("/stats")]
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        for raw in fuzz_requests() {
            assert!(parse(&raw).is_ok());
            for cut in 0..raw.len() {
                let err = parse(&raw[..cut]).unwrap_err();
                assert!(matches!(err, HttpError::Truncated(_)), "cut at {cut}: {err:?}");
            }
        }
    }

    /// Yields `data` in reads of at most `step` bytes until `fail_at`,
    /// then fails every read with `kind`, as a socket whose read timeout
    /// expired does.
    struct Stalling<'a> {
        data: &'a [u8],
        pos: usize,
        fail_at: usize,
        step: usize,
        kind: io::ErrorKind,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.fail_at {
                return Err(self.kind.into());
            }
            let n = buf.len().min(self.step).min(self.fail_at - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_timeout_at_every_byte_is_timed_out() {
        for raw in fuzz_requests() {
            for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
                for step in [1, 7, 1024] {
                    for fail_at in 0..raw.len() {
                        let mut reader =
                            Stalling { data: &raw, pos: 0, fail_at, step, kind };
                        assert_eq!(
                            read_request(&mut reader).unwrap_err(),
                            HttpError::TimedOut,
                            "{kind:?} at byte {fail_at}, reads of {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_byte_value_at_every_position_parses_or_is_typed() {
        for raw in fuzz_requests() {
            let mut mutated = raw.clone();
            for pos in 0..raw.len() {
                for byte in 0..=u8::MAX {
                    mutated[pos] = byte;
                    match parse(&mutated) {
                        Ok(req) => {
                            let declared = req
                                .header("content-length")
                                .map_or(0, |v| v.parse::<usize>().expect("parsed once already"));
                            assert_eq!(req.body.len(), declared, "byte {byte:#04x} at {pos}");
                        }
                        Err(e) => assert!(
                            (400..500).contains(&e.status().0),
                            "byte {byte:#04x} at {pos}: {e:?}"
                        ),
                    }
                }
                mutated[pos] = raw[pos];
            }
        }
    }

    /// A chunked reply framed the way the daemon frames a hit, and its body.
    fn chunked_reply() -> (Vec<u8>, Vec<u8>) {
        let body = b"{\"chunk\":1,\"front\":[]}\n{\"chunk\":2,\"front\":[1]}\n{\"done\":true}\n";
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "OK", &[("X-Cache", "hit")]).unwrap();
        for line in body.split_inclusive(|&b| b == b'\n') {
            w.chunk(line).unwrap();
        }
        w.finish().unwrap();
        (out, body.to_vec())
    }

    /// Reads a chunked reply whose one chunk claims `size` bytes.
    fn claimed_chunk_size(size: &str) -> Result<Response, String> {
        let raw = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nabc\r\n0\r\n\r\n"
        );
        read_response(&mut raw.as_bytes())
    }

    #[test]
    fn a_chunk_size_of_usize_max_is_an_error_not_a_panic() {
        let err = claimed_chunk_size("ffffffffffffffff").unwrap_err();
        assert!(err.contains("chunk"), "{err}");
    }

    #[test]
    fn a_chunk_size_of_usize_max_minus_one_is_an_error_not_a_panic() {
        let err = claimed_chunk_size("fffffffffffffffe").unwrap_err();
        assert!(err.contains("chunk"), "{err}");
    }

    #[test]
    fn a_chunked_reply_cut_at_every_byte_is_an_error_or_the_full_body() {
        let (raw, body) = chunked_reply();
        // Only a cut inside the final CRLF leaves the terminating chunk
        // whole; every earlier cut must be an error, not a shorter body.
        let whole_from = raw.len() - 2;
        for cut in 0..=raw.len() {
            match read_response(&mut &raw[..cut]) {
                Ok(resp) => {
                    assert!(cut >= whole_from, "cut at {cut} of {} parsed", raw.len());
                    assert_eq!(resp.body, body, "cut at {cut} returned a different body");
                }
                Err(e) => assert!(cut < whole_from, "cut at {cut}: {e}"),
            }
        }
    }
}
