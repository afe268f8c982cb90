//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The build environment has no crates.io access, so — in the same spirit
//! as `aod-exec` hand-rolling its thread pool — this module implements the
//! small slice of HTTP/1.1 the discovery service needs on raw
//! `std::net::TcpStream`s:
//!
//! * request line + headers + `Content-Length` bodies (with size limits),
//!   parsed from any [`Read`], so the parser is testable without sockets;
//! * fixed-length responses with `Connection: close` semantics, written
//!   head and body together in one write;
//! * `Transfer-Encoding: chunked` responses for streaming NDJSON events,
//!   one chunk per call through a fixed-size buffer.
//!
//! Every connection carries exactly one request/response exchange; clients
//! that want another request open another connection. That keeps the
//! server loop trivially robust (no pipelining, no keep-alive state
//! machine) at the price of a TCP handshake per call — fine for a
//! profiling service whose unit of work is a discovery job, not a byte.

use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on request bodies (configs and registrations are small).
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Bytes [`read_request`] asks for per read.
const READ_BUF_BYTES: usize = 1024;
/// Capacity of a [`ChunkedWriter`]'s write buffer.
const CHUNK_BUF_BYTES: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The request target's path component (query string stripped).
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error message for the 400 response.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }
}

/// Why a request could not be parsed; maps to a response status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (response: 400).
    Bad(String),
    /// Head or body exceeded its size limit (response: 413).
    TooLarge,
    /// The peer closed or the socket failed mid-request — nothing sensible
    /// can be written back.
    Io(std::io::Error),
}

impl HttpError {
    fn bad(msg: &str) -> HttpError {
        HttpError::Bad(msg.to_string())
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from `stream`. It only reads: at most
/// the head limit plus one read buffer before the head is refused, and at
/// most the head plus one read buffer before an oversized body is.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    // Read until the blank line terminating the head; any body prefix
    // read along the way is kept. Each search resumes where the last one
    // stopped, so small reads cost no rescans.
    let mut buf: Vec<u8> = Vec::with_capacity(READ_BUF_BYTES);
    let mut chunk = [0u8; READ_BUF_BYTES];
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, scanned) {
            break pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-request"));
        }
        // aod-lint: allow(P1) -- n <= chunk.len() per Read's contract
        buf.extend_from_slice(&chunk[..n]);
    };

    // aod-lint: allow(P1) -- head_end came from find_head_end over buf
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad("unsupported HTTP version"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad("malformed header line"))?;
        headers.push((name.trim().to_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::bad("chunked request bodies are not supported"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::bad("invalid Content-Length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    // aod-lint: allow(P1) -- head_end + 4 is where find_head_end's CRLFCRLF ends, <= buf.len()
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-body"));
        }
        // aod-lint: allow(P1) -- n <= chunk.len() per Read's contract
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request { body, ..request })
}

/// Where the head's terminating CRLFCRLF starts, searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let pos = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + pos)
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response, head and body in one write,
/// and flushes it.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Writes a JSON response body.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body)
}

/// A `Transfer-Encoding: chunked` response in progress. It writes through
/// one buffer of fixed size: each [`chunk`](ChunkedWriter::chunk) call
/// sends its data as one chunk (size line, data, CRLF) and flushes once,
/// so clients observe events as they happen without a syscall per line.
pub struct ChunkedWriter<'a> {
    out: BufWriter<&'a mut TcpStream>,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes and flushes the response head, then returns the chunk
    /// writer.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let mut out = BufWriter::with_capacity(CHUNK_BUF_BYTES, stream);
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            status_text(status),
            content_type
        )?;
        out.flush()?;
        Ok(ChunkedWriter { out })
    }

    /// Writes `data` as one chunk and flushes it (empty data is skipped —
    /// an empty chunk would terminate the stream).
    pub fn chunk(&mut self, data: &str) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", data.len())?;
        self.out.write_all(data.as_bytes())?;
        self.out.write_all(b"\r\n")?;
        self.out.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &raw[..])
    }

    /// A reader that hands out `head`, then `tail` repeated forever (EOF
    /// after `head` when `tail` is empty), in reads of the given sizes —
    /// the last size repeats — and counts the bytes it handed out.
    struct Feed {
        head: Vec<u8>,
        tail: Vec<u8>,
        sizes: Vec<usize>,
        reads: usize,
        consumed: usize,
    }

    impl Feed {
        fn new(head: Vec<u8>, tail: Vec<u8>, sizes: Vec<usize>) -> Feed {
            assert!(sizes.iter().all(|&n| n > 0), "a zero-size read is EOF");
            Feed {
                head,
                tail,
                sizes,
                reads: 0,
                consumed: 0,
            }
        }
    }

    impl Read for Feed {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes[self.reads.min(self.sizes.len() - 1)];
            self.reads += 1;
            let mut n = 0;
            while n < size.min(out.len()) {
                let byte = match self.head.get(self.consumed) {
                    Some(&b) => b,
                    None if self.tail.is_empty() => break,
                    None => self.tail[(self.consumed - self.head.len()) % self.tail.len()],
                };
                out[n] = byte;
                n += 1;
                self.consumed += 1;
            }
            Ok(n)
        }
    }

    /// Bytes that make up requests, so generated input reaches past the
    /// head search into the request-line, header and body parsers.
    const TOKENS: &[u8] = b"\r\n\r\n: GET POST /jobs HTTP/1.1 Content-Length: 0123456789 ?";

    fn byte_of(v: u16) -> u8 {
        match u8::try_from(v) {
            Ok(b) => b,
            Err(_) => TOKENS[usize::from(v) % TOKENS.len()],
        }
    }

    fn ascii(bytes: &[u8]) -> String {
        String::from_utf8(bytes.to_vec()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_bytes_in_arbitrary_reads_never_panic(
            data in vec(0u16..512, 0..2048),
            sizes in vec(1usize..1500, 1..8),
        ) {
            let data: Vec<u8> = data.into_iter().map(byte_of).collect();
            let _ = read_request(&mut Feed::new(data, Vec::new(), sizes));
        }

        #[test]
        fn endless_headers_are_refused_after_the_head_limit(
            line in vec(32u8..127, 1..64),
            sizes in vec(1usize..1500, 1..8),
        ) {
            // One header line repeated forever: the head never ends.
            let mut tail = line;
            tail.extend_from_slice(b"\r\n");
            let mut feed = Feed::new(b"GET / HTTP/1.1\r\n".to_vec(), tail, sizes);
            let outcome = read_request(&mut feed);
            prop_assert!(matches!(outcome, Err(HttpError::TooLarge)), "{outcome:?}");
            prop_assert!(
                feed.consumed <= MAX_HEAD_BYTES + READ_BUF_BYTES,
                "consumed {} bytes", feed.consumed
            );
        }

        #[test]
        fn oversized_bodies_are_refused_after_the_head(
            bits in 0u32..44,
            excess in 1u64..=1024,
            sizes in vec(1usize..1500, 1..8),
        ) {
            let length = MAX_BODY_BYTES as u64 + (excess << bits);
            let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            let head_len = head.len();
            // The body never ends either: refusal must not wait for it.
            let mut feed = Feed::new(head.into_bytes(), b"x".to_vec(), sizes);
            let outcome = read_request(&mut feed);
            prop_assert!(matches!(outcome, Err(HttpError::TooLarge)), "{outcome:?}");
            prop_assert!(
                feed.consumed <= head_len + READ_BUF_BYTES,
                "consumed {} bytes of a {head_len}-byte head", feed.consumed
            );
        }

        #[test]
        fn well_formed_requests_round_trip_at_any_split(
            method in vec(b'A'..=b'Z', 1..8),
            segments in vec(vec(b'a'..=b'z', 0..6), 0..4),
            query in vec(b'a'..=b'z', 0..6),
            headers in vec((vec(b'A'..=b'z', 1..10), vec(32u8..127, 0..20)), 0..6),
            body in vec(0u8..=255, 0..300),
            cut in 0usize..10_000,
        ) {
            let method = ascii(&method);
            let path = format!("/{}", segments.iter().map(|s| ascii(s)).collect::<Vec<_>>().join("/"));
            let target = if query.is_empty() { path.clone() } else { format!("{path}?{}", ascii(&query)) };
            let mut raw = format!("{method} {target} HTTP/1.1\r\n");
            let mut expected = Vec::new();
            for (name, value) in &headers {
                // Letters and the punctuation between `Z` and `a`; the
                // `X-` prefix keeps clear of the framing headers.
                let name = format!("X-{}", ascii(name).replace(['[', '\\', ']', '^', '`'], "-"));
                let value = ascii(value);
                raw.push_str(&format!("{name}: {value}\r\n"));
                expected.push((name.to_lowercase(), value.trim().to_string()));
            }
            raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            expected.push(("content-length".to_string(), body.len().to_string()));
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);

            // Two reads, split at any byte (the second capped by the
            // parser's read buffer, so large rests take several).
            let split = 1 + cut % raw.len();
            let req = read_request(&mut Feed::new(raw, Vec::new(), vec![split, usize::MAX]));
            let req = req.map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(req.method, method);
            prop_assert_eq!(req.path, path);
            prop_assert_eq!(req.headers, expected);
            prop_assert_eq!(req.body, body);
        }
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse_raw(
            b"POST /jobs?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\":  1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body_str().unwrap(), "{\"a\":  1}");
    }

    #[test]
    fn parses_bodyless_request() {
        let req = parse_raw(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_raw(b"NOT A REQUEST\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn status_texts_cover_emitted_codes() {
        for code in [200, 201, 202, 400, 404, 405, 409, 413, 429, 500] {
            assert_ne!(status_text(code), "Unknown");
        }
    }
}
