//! Minimal HTTP/1.1 framing over a blocking byte stream.
//!
//! The server speaks just enough HTTP for `curl` and the bundled
//! [`crate::client::EsdbClient`]: request line + headers +
//! `Content-Length` body, persistent connections (`keep-alive` is the
//! 1.1 default), `Connection: close` honored. No chunked encoding, no
//! TLS — the transport trait exists so a richer stack can replace this
//! without touching the engine-facing code.
//!
//! Reads are **resumable**: all bytes accumulate in the caller's
//! buffer and a message is only consumed once it is complete, so a
//! read timeout ([`ReadError::TimedOut`]) can be retried without
//! losing a partially received request. The server relies on this to
//! poll its drain flag from idle keep-alive connections.

use std::io::{Read, Write};
use std::time::Instant;

/// Longest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Longest accepted body in bytes (defense against a hostile client
/// holding a worker thread on an unbounded read).
pub(crate) const MAX_BODY: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path component, e.g. `/v1/query` (query strings are not split).
    pub path: String,
    /// `(lower-cased name, value)` in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-framed).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lower-case name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The bearer token from `Authorization`, if present.
    pub fn bearer_token(&self) -> Option<&str> {
        let auth = self.header("authorization")?;
        let (scheme, token) = auth.split_once(' ')?;
        if scheme.eq_ignore_ascii_case("bearer") {
            Some(token.trim())
        } else {
            None
        }
    }

    /// Whether the client asked to drop the connection after this
    /// exchange.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a message failed.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Clean EOF before any byte of a new message — normal connection
    /// teardown.
    Eof,
    /// The read timed out with the message still incomplete; the
    /// buffer is intact, call again to resume.
    TimedOut,
    /// The peer went away mid-message or sent garbage.
    Malformed(String),
    /// The caller's deadline passed with the message still incomplete
    /// while bytes kept arriving. Unlike [`ReadError::TimedOut`] this
    /// is terminal: the connection should be dropped, or a trickling
    /// client could hold a worker thread forever.
    DeadlineExceeded,
    /// Underlying socket error.
    Io(String),
}

/// Pulls more bytes into `buf`, classifying timeout vs hard error.
fn fill(stream: &mut dyn Read, buf: &mut Vec<u8>) -> Result<usize, ReadError> {
    let mut chunk = [0u8; 8192];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(0),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(n)
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(ReadError::TimedOut)
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Err(ReadError::TimedOut),
        Err(e) => Err(ReadError::Io(e.to_string())),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parsed head: status/request line plus headers, and the framed body
/// length.
struct Head {
    first_line: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    body_start: usize,
}

/// Parses the head if `buf` holds a complete one (does not consume).
fn parse_head(buf: &[u8]) -> Result<Option<Head>, ReadError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ReadError::Malformed("message head too large".into()));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("non-utf8 head".into()))?;
    let mut lines = head.split("\r\n");
    let first_line = lines.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed("bad content-length".into()))?;
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY {
        return Err(ReadError::Malformed("body too large".into()));
    }
    Ok(Some(Head {
        first_line,
        headers,
        content_length,
        body_start: head_end + 4, // past "\r\n\r\n"
    }))
}

/// Accumulates until `buf` holds one complete message, then consumes
/// and returns its head and body.
///
/// `deadline` bounds the time spent *inside this call* on a message
/// that keeps receiving bytes: a complete message is always returned,
/// but once the deadline passes with the message still incomplete the
/// call fails with [`ReadError::DeadlineExceeded`] instead of looping
/// on a client that trickles bytes forever. (A *stalled* client
/// surfaces as [`ReadError::TimedOut`] via the socket read timeout
/// and is the caller's responsibility to bound across calls.)
fn read_message(
    stream: &mut dyn Read,
    buf: &mut Vec<u8>,
    deadline: Option<Instant>,
) -> Result<(Head, Vec<u8>), ReadError> {
    loop {
        if let Some(head) = parse_head(buf)? {
            let total = head.body_start + head.content_length;
            if buf.len() >= total {
                let body = buf[head.body_start..total].to_vec();
                buf.drain(..total);
                return Ok((head, body));
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ReadError::DeadlineExceeded);
        }
        match fill(stream, buf)? {
            0 => {
                return if buf.is_empty() {
                    Err(ReadError::Eof)
                } else {
                    Err(ReadError::Malformed("eof mid-message".into()))
                };
            }
            _ => continue,
        }
    }
}

/// Reads one request from `stream`. `buf` carries unconsumed and
/// partially received bytes between calls. See [`read_message`] for
/// `deadline` semantics.
pub fn read_request(
    stream: &mut dyn Read,
    buf: &mut Vec<u8>,
    deadline: Option<Instant>,
) -> Result<Request, ReadError> {
    let (head, body) = read_message(stream, buf, deadline)?;
    let mut parts = head.first_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing path".into()))?
        .to_string();
    Ok(Request {
        method,
        path,
        headers: head.headers,
        body,
    })
}

/// Writes one response. `content_type` is `application/json` for API
/// bodies and `text/plain; version=0.0.4` for Prometheus text.
pub fn write_response(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
    body: &str,
    retry_after_ms: Option<u64>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(ms) = retry_after_ms {
        // HTTP Retry-After is whole seconds; round up so clients never
        // retry early.
        head.push_str(&format!("retry-after: {}\r\n", ms.div_ceil(1000)));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Value of `retry-after`, in seconds, if present.
    pub retry_after_secs: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 (API responses are always JSON or Prometheus
    /// text).
    pub fn text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| e.to_string())
    }
}

/// Reads one response from `stream` (client side; same framing and
/// resumability rules as [`read_request`]).
pub fn read_response(stream: &mut dyn Read, buf: &mut Vec<u8>) -> Result<Response, ReadError> {
    let (head, body) = read_message(stream, buf, None)?;
    let status: u16 = head
        .first_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ReadError::Malformed("bad status line".into()))?;
    let retry_after_secs = head
        .headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .and_then(|(_, v)| v.parse().ok());
    Ok(Response {
        status,
        retry_after_secs,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /v1/query HTTP/1.1\r\nAuthorization: Bearer tok-1\r\nContent-Length: 5\r\n\r\nhello";
        let mut buf = Vec::new();
        let req = read_request(&mut Cursor::new(&raw[..]), &mut buf, None).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.bearer_token(), Some("tok-1"));
        assert_eq!(req.body, b"hello");
        assert!(buf.is_empty());
    }

    #[test]
    fn pipelined_requests_share_buffer() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut cur = Cursor::new(&raw[..]);
        let mut buf = Vec::new();
        let a = read_request(&mut cur, &mut buf, None).unwrap();
        let b = read_request(&mut cur, &mut buf, None).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert_eq!(
            read_request(&mut cur, &mut buf, None).unwrap_err(),
            ReadError::Eof
        );
    }

    /// A reader that yields its script one slice per call, with
    /// `WouldBlock` gaps — models SO_RCVTIMEO expiry mid-request.
    struct Stutter<'a> {
        parts: Vec<&'a [u8]>,
        next: usize,
        timeout_between: bool,
        gap: bool,
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.timeout_between && self.gap {
                self.gap = false;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "t/o"));
            }
            self.gap = true;
            if self.next >= self.parts.len() {
                return Ok(0);
            }
            let part = self.parts[self.next];
            self.next += 1;
            let n = part.len().min(out.len());
            out[..n].copy_from_slice(&part[..n]);
            Ok(n)
        }
    }

    #[test]
    fn timeout_mid_request_is_resumable() {
        let raw: &[u8] = b"POST /v1/write HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let mut stream = Stutter {
            parts: raw.chunks(7).collect(),
            next: 0,
            timeout_between: true,
            gap: false,
        };
        let mut buf = Vec::new();
        let mut timeouts = 0;
        let req = loop {
            match read_request(&mut stream, &mut buf, None) {
                Ok(r) => break r,
                Err(ReadError::TimedOut) => timeouts += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        };
        assert!(timeouts > 0, "the stutter reader must have timed out");
        assert_eq!(req.path, "/v1/write");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 429, "application/json", "{\"x\":1}", Some(1500)).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("429 Too Many Requests"));
        assert!(text.contains("retry-after: 2"));
        let mut buf = Vec::new();
        let resp = read_response(&mut Cursor::new(&wire[..]), &mut buf).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after_secs, Some(2));
        assert_eq!(resp.text().unwrap(), "{\"x\":1}");
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut Cursor::new(raw.as_bytes()), &mut buf, None),
            Err(ReadError::Malformed(_))
        ));
    }
}
