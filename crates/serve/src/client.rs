//! A minimal blocking HTTP client on raw [`std::net::TcpStream`]s.
//!
//! Exists so the end-to-end tests, the CI smoke driver and the curl-less
//! can talk to [`crate::Server`] without external tooling. One request per
//! connection (mirroring the server's `Connection: close` model), plus an
//! incremental [`EventStream`] reader that decodes
//! `Transfer-Encoding: chunked` NDJSON line by line — required by the
//! cancel-mid-run flow, where the client must act on an early event while
//! the stream is still open.

use crate::http::status_text;
use aod_core::json::{JsonError, JsonValue};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete buffered HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body ([`request`] refuses a chunked one).
    pub body: String,
}

impl HttpResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<JsonValue, JsonError> {
        JsonValue::parse(&self.body)
    }
}

/// Sends one request and reads the full response (blocking). A chunked
/// response is an error: `GET /jobs/{id}/events` is read with
/// [`EventStream`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    send_request(&mut stream, addr, method, path, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn send_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads a response's status line and headers up to the blank line that
/// ends them, leaving `reader` at the first body byte. Returns the
/// response, its body still empty, and whether the body is chunked.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(HttpResponse, bool)> {
    let mut next_line = || -> std::io::Result<String> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in response head"));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    };
    let status = next_line()?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut response = HttpResponse {
        status,
        headers: Vec::new(),
        body: String::new(),
    };
    loop {
        let line = next_line()?;
        if line.is_empty() {
            let coding = response.header("transfer-encoding");
            let chunked = coding.is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
            return Ok((response, chunked));
        }
        if let Some((name, value)) = line.split_once(':') {
            let header = (name.trim().to_lowercase(), value.trim().to_string());
            response.headers.push(header);
        }
    }
}

/// A buffered response. A chunked body is refused: the server streams
/// only `GET /jobs/{id}/events` that way, and [`EventStream`] reads it.
fn parse_response(mut raw: &[u8]) -> std::io::Result<HttpResponse> {
    let (mut response, chunked) = read_head(&mut raw)?;
    if chunked {
        return Err(bad("chunked response: read it with EventStream"));
    }
    response.body = String::from_utf8(raw.to_vec()).map_err(|_| bad("response body not UTF-8"))?;
    Ok(response)
}

/// An open streaming NDJSON response, decoded incrementally.
///
/// Yields one JSON line at a time as the server emits it, so callers can
/// react to early events (e.g. cancel a job after its first
/// `level_complete`) while the stream is still live.
pub struct EventStream<R = BufReader<TcpStream>> {
    /// The chunked body, after the response head.
    reader: R,
    /// Bytes of the current chunk still to be consumed.
    remaining: usize,
    /// Decoded bytes not yet emitted as a complete line.
    line_buf: Vec<u8>,
    done: bool,
}

impl EventStream {
    /// Sends `GET path` and parses the response head; fails unless the
    /// server answers 200 with a chunked body.
    pub fn open(addr: SocketAddr, path: &str) -> std::io::Result<EventStream> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        send_request(&mut stream, addr, "GET", path, None)?;
        let mut reader = BufReader::new(stream);
        // BufReader keeps any body prefix read with the head.
        let (head, chunked) = read_head(&mut reader)?;
        if head.status != 200 {
            return Err(std::io::Error::other(format!(
                "event stream returned {} {}",
                head.status,
                status_text(head.status)
            )));
        }
        if !chunked {
            return Err(bad("event stream response is not chunked"));
        }
        Ok(EventStream {
            reader,
            remaining: 0,
            line_buf: Vec::new(),
            done: false,
        })
    }
}

impl<R: BufRead> EventStream<R> {
    /// The next NDJSON line (without its terminator), or `None` once the
    /// stream has ended.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            // Emit a buffered complete line first.
            if let Some(pos) = self.line_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.line_buf.drain(..=pos).collect();
                let text = String::from_utf8(line).map_err(|_| bad("event line not UTF-8"))?;
                return Ok(Some(text.trim_end().to_string()));
            }
            if self.done {
                if self.line_buf.is_empty() {
                    return Ok(None);
                }
                let text = String::from_utf8(std::mem::take(&mut self.line_buf))
                    .map_err(|_| bad("event line not UTF-8"))?;
                return Ok(Some(text.trim_end().to_string()));
            }
            self.fill()?;
        }
    }

    /// Drains the rest of the stream into a vector of lines.
    pub fn collect_lines(&mut self) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        while let Some(line) = self.next_line()? {
            out.push(line);
        }
        Ok(out)
    }

    /// Reads the next piece of chunk data into `line_buf`.
    fn fill(&mut self) -> std::io::Result<()> {
        if self.remaining == 0 {
            // At a chunk boundary: read the size line.
            let mut size_line = String::new();
            if self.reader.read_line(&mut size_line)? == 0 {
                self.done = true;
                return Ok(());
            }
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad("invalid chunk size"))?;
            if size == 0 {
                // Consume the trailing CRLF; stream is over.
                let mut crlf = String::new();
                let _ = self.reader.read_line(&mut crlf)?;
                self.done = true;
                return Ok(());
            }
            self.remaining = size;
        }
        let mut take = vec![0u8; self.remaining.min(4096)];
        let n = self.reader.read(&mut take)?;
        if n == 0 {
            return Err(bad("truncated chunk data"));
        }
        self.line_buf.extend_from_slice(&take[..n]);
        self.remaining -= n;
        if self.remaining == 0 {
            // Consume the CRLF after the chunk data.
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lines [`EventStream`] decodes from a chunked body.
    fn decode(body: &[u8]) -> std::io::Result<Vec<String>> {
        let mut stream = EventStream {
            reader: body,
            remaining: 0,
            line_buf: Vec::new(),
            done: false,
        };
        stream.collect_lines()
    }

    #[test]
    fn decodes_chunked_payloads() {
        let lines = decode(b"5\r\nab\ncd\r\n3\r\nef\n\r\n0\r\n\r\n").unwrap();
        assert_eq!(lines, vec!["ab", "cdef"]);
        let body = decode(b"4\r\nabcd\r\na\r\n0123456789\r\n0\r\n\r\n").unwrap();
        assert_eq!(body, vec!["abcd0123456789"]);
        for (bad, needle) in [
            (&b"zz\r\n"[..], "invalid chunk size"),
            (&b"5\r\nab"[..], "truncated chunk data"),
        ] {
            let err = decode(bad).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn parses_responses() {
        let raw =
            b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert_eq!(r.body, "{}");
        assert!(r.json().is_ok());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n").is_err());
    }

    #[test]
    fn refuses_chunked_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let err = parse_response(raw).unwrap_err();
        assert!(err.to_string().contains("EventStream"), "{err}");
    }
}
