//! Minimal HTTP/1.1 framing: just enough to parse read-only GET traffic
//! and write deterministic responses. Hand-rolled on purpose — the
//! workspace builds with no registry access, and the endpoints only need
//! request line + headers + conditional-GET semantics.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Upper bound on a single request head (request line + headers). A
/// client exceeding it is answered 431 and disconnected. The bound is
/// enforced *while* reading — a request line that never terminates is
/// cut off at the cap instead of growing an unbounded buffer.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the header lines of one request head (Apache's default
/// `LimitRequestFields`). A head with more is answered 431 like an
/// oversized one: each stored header costs a map entry, several times
/// the four bytes a minimal `ab:` line takes on the wire.
const MAX_HEADERS: usize = 100;

/// Upper bound on the query parameters of one request target; no
/// endpoint reads more than two. More is answered 400: each stored
/// parameter costs a map entry, far more than the two bytes a minimal
/// `a&` takes on the wire.
const MAX_QUERY_PARAMS: usize = 32;

/// Characters of offending input quoted in a [`ReadOutcome::Malformed`]
/// message: enough to recognise the input, without echoing a 16 KiB line
/// (escaped, and so larger still) into the response.
const QUOTED_CHARS: usize = 64;

/// The [`ReadOutcome::Malformed`] message for a head line that is not
/// UTF-8.
const NOT_UTF8: &str = "request head is not UTF-8";

/// One parsed request head. Bodies are ignored: every endpoint is a GET.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `HEAD`, ...).
    pub method: String,
    /// Decoded path, query string stripped (`/links/3`).
    pub path: String,
    /// Query parameters in key order.
    pub query: BTreeMap<String, String>,
    /// Headers with lowercased names; last occurrence wins.
    pub headers: BTreeMap<String, String>,
}

impl Request {
    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// True when the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The `If-None-Match` validator, if the request carries one.
    pub fn if_none_match(&self) -> Option<&str> {
        self.header("if-none-match")
    }
}

/// Outcome of reading one request from a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request head was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The bytes on the wire were not a parseable HTTP/1.1 head.
    Malformed(String),
    /// The request head exceeded [`MAX_HEAD_BYTES`] or `MAX_HEADERS`
    /// before completing — a slow-loris style client or a runaway header
    /// block. Answered `431` and disconnected; counted in
    /// `serve_slow_clients_total`.
    TooLarge,
}

/// Reads one `\n`-terminated line into `buf` (cleared first), consuming
/// at most `limit` bytes from `reader`. Returns `Ok(Some(n))` with the
/// byte count read (0 means EOF before any byte), or `Ok(None)` when the
/// limit was exhausted before a newline arrived — the caller must treat
/// the head as too large and stop reading.
fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<Option<usize>> {
    buf.clear();
    loop {
        if buf.len() >= limit {
            return Ok(None);
        }
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(Some(buf.len()));
        }
        let room = (limit - buf.len()).min(available.len());
        let slice = available.get(..room).unwrap_or(available);
        match slice.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let end = pos + 1;
                buf.extend_from_slice(slice.get(..end).unwrap_or(slice));
                reader.consume(end);
                return Ok(Some(buf.len()));
            }
            None => {
                let n = slice.len();
                buf.extend_from_slice(slice);
                reader.consume(n);
            }
        }
    }
}

/// A line's text without its line ending; `None` when it is not UTF-8.
/// HTTP heads are ASCII, so a head that does not even decode is refused
/// outright rather than carried along with replacement characters, which
/// would triple its size.
fn line_text(raw: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(raw).ok()?;
    Some(text.trim_end_matches(['\r', '\n']))
}

/// At most [`QUOTED_CHARS`] characters of `text`, for an error message.
fn quoted(text: &str) -> String {
    match text.char_indices().nth(QUOTED_CHARS) {
        Some((cut, _)) => format!("{:?}...", text.get(..cut).unwrap_or(text)),
        None => format!("{text:?}"),
    }
}

/// Reads one request head from `reader`. Blocks until a full head, EOF,
/// an IO error (timeouts surface as `Err`), or the [`MAX_HEAD_BYTES`]
/// budget or the `MAX_HEADERS` count is exhausted mid-head
/// ([`ReadOutcome::TooLarge`]).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let mut raw = Vec::new();
    let mut total = match read_line_capped(reader, &mut raw, MAX_HEAD_BYTES)? {
        None => return Ok(ReadOutcome::TooLarge),
        Some(0) => return Ok(ReadOutcome::Closed),
        Some(n) => n,
    };
    let Some(request_line) = line_text(&raw) else {
        return Ok(ReadOutcome::Malformed(NOT_UTF8.into()));
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Ok(ReadOutcome::Malformed(format!(
                "bad request line: {}",
                quoted(request_line)
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed(format!(
            "unsupported protocol {}",
            quoted(version)
        )));
    }
    let method = method.to_ascii_uppercase();
    let Some((path, query)) = split_target(target) else {
        return Ok(ReadOutcome::Malformed(format!(
            "more than {MAX_QUERY_PARAMS} query parameters"
        )));
    };
    let mut headers = BTreeMap::new();
    // Up to MAX_HEADERS header lines, then the blank line ending the head.
    for _ in 0..=MAX_HEADERS {
        match read_line_capped(reader, &mut raw, MAX_HEAD_BYTES - total.min(MAX_HEAD_BYTES))? {
            None => return Ok(ReadOutcome::TooLarge),
            Some(0) => return Ok(ReadOutcome::Malformed("eof inside header block".into())),
            Some(n) => total += n,
        }
        let Some(line) = line_text(&raw) else {
            return Ok(ReadOutcome::Malformed(NOT_UTF8.into()));
        };
        if line.is_empty() {
            return Ok(ReadOutcome::Request(Request {
                method,
                path,
                query,
                headers,
            }));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Malformed(format!(
                "bad header: {}",
                quoted(line)
            )));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(ReadOutcome::TooLarge)
}

/// Splits a request target into path and parsed query parameters;
/// `None` when it carries more than [`MAX_QUERY_PARAMS`] of them.
fn split_target(target: &str) -> Option<(String, BTreeMap<String, String>)> {
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = qs.split('&').filter(|p| !p.is_empty());
    if pairs.clone().nth(MAX_QUERY_PARAMS).is_some() {
        return None;
    }
    let mut query = BTreeMap::new();
    for pair in pairs {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }
    Some((path.to_string(), query))
}

/// One response: status, content type, optional validator, body bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code (`200`, `304`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `ETag` header value (already quoted), when the resource has one.
    pub etag: Option<String>,
    /// Body bytes; empty for `304`.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status and body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            etag: None,
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": "..."}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        push_json_string(&mut body, message);
        body.push('}');
        Self::json(status, body.into_bytes())
    }

    /// Attaches a validator (quoted ETag) to the response.
    pub fn with_etag(mut self, etag: &str) -> Self {
        self.etag = Some(etag.to_string());
        self
    }

    /// A bodyless `304 Not Modified` carrying the current validator.
    pub fn not_modified(etag: &str) -> Self {
        Self {
            status: 304,
            content_type: "application/json",
            etag: Some(etag.to_string()),
            body: Vec::new(),
        }
    }
}

/// Canonical reason phrase for the status codes the router produces.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialises a response to the wire. The header set is fixed and emitted
/// in a fixed order, so identical responses are byte-identical no matter
/// which server thread wrote them. `head_only` answers a `HEAD` request:
/// full headers (including the real `Content-Length`) with the body
/// suppressed.
pub fn write_response(
    w: &mut impl Write,
    r: &Response,
    keep_alive: bool,
    head_only: bool,
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", r.status, status_text(r.status));
    head.push_str(&format!("Content-Type: {}\r\n", r.content_type));
    head.push_str(&format!("Content-Length: {}\r\n", r.body.len()));
    if let Some(etag) = &r.etag {
        head.push_str(&format!("ETag: {etag}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    if !head_only {
        w.write_all(&r.body)?;
    }
    w.flush()
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a deterministic JSON number for `v`: Rust's shortest
/// round-trip `Display`, with `.0` appended to integral values so the
/// output is unambiguously a float. Non-finite values become `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> ReadOutcome {
        read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let out =
            parse("GET /od?origin=2&dest=5 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"abc\"\r\n\r\n");
        let ReadOutcome::Request(req) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/od");
        assert_eq!(req.query.get("origin").map(String::as_str), Some("2"));
        assert_eq!(req.query.get("dest").map(String::as_str), Some("5"));
        assert_eq!(req.if_none_match(), Some("\"abc\""));
        assert!(!req.wants_close());
    }

    #[test]
    fn empty_stream_is_clean_close() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
    }

    #[test]
    fn garbage_is_malformed_not_error() {
        assert!(matches!(parse("ho ho\r\n\r\n"), ReadOutcome::Malformed(_)));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn runaway_request_line_is_too_large_not_oom() {
        // A request line that never terminates must be cut off at the
        // head budget, not buffered indefinitely.
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
        assert!(matches!(parse(&raw), ReadOutcome::TooLarge));
    }

    #[test]
    fn oversized_header_block_is_too_large() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..200 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(200)));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), ReadOutcome::TooLarge));
    }

    #[test]
    fn head_just_under_the_cap_still_parses() {
        let mut raw = String::from("GET /links HTTP/1.1\r\n");
        raw.push_str(&format!("X-Pad: {}\r\n", "c".repeat(1024)));
        raw.push_str("\r\n");
        let ReadOutcome::Request(req) = parse(&raw) else {
            panic!("expected request");
        };
        assert_eq!(req.path, "/links");
        assert_eq!(req.header("x-pad").map(str::len), Some(1024));
    }

    #[test]
    fn header_and_query_counts_are_capped() {
        let head = |headers: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..headers {
                raw.push_str(&format!("X-{i}: v\r\n"));
            }
            raw + "\r\n"
        };
        assert!(matches!(parse(&head(MAX_HEADERS)), ReadOutcome::Request(_)));
        assert!(matches!(
            parse(&head(MAX_HEADERS + 1)),
            ReadOutcome::TooLarge
        ));
        let target = |params: usize| {
            let query: Vec<String> = (0..params).map(|i| format!("k{i}=v")).collect();
            format!("GET /od?{} HTTP/1.1\r\n\r\n", query.join("&"))
        };
        let ReadOutcome::Request(req) = parse(&target(MAX_QUERY_PARAMS)) else {
            panic!("expected request");
        };
        assert_eq!(req.query.len(), MAX_QUERY_PARAMS);
        assert!(matches!(
            parse(&target(MAX_QUERY_PARAMS + 1)),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn non_utf8_heads_are_malformed_and_messages_stay_short() {
        let read = |raw: &[u8]| read_request(&mut BufReader::new(raw)).unwrap();
        assert!(matches!(
            read(b"GET /\xff HTTP/1.1\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            read(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        let ReadOutcome::Malformed(msg) = parse(&format!("{}\r\n", "\u{1}".repeat(4096))) else {
            panic!("expected malformed");
        };
        assert!(msg.len() < 8 * QUOTED_CHARS, "{} bytes", msg.len());
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let r = Response::json(200, "{\"a\":1}").with_etag("\"t\"");
        let mut one = Vec::new();
        let mut two = Vec::new();
        write_response(&mut one, &r, true, false).unwrap();
        write_response(&mut two, &r, true, false).unwrap();
        assert_eq!(one, two);
        let text = String::from_utf8(one).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("ETag: \"t\"\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }

    #[test]
    fn head_suppresses_body_but_keeps_length() {
        let r = Response::json(200, "{\"a\":1}").with_etag("\"t\"");
        let mut out = Vec::new();
        write_response(&mut out, &r, false, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "HEAD must carry no body");
    }

    #[test]
    fn json_number_formatting_is_stable() {
        let mut s = String::new();
        push_json_f64(&mut s, 3.0);
        s.push(',');
        push_json_f64(&mut s, 0.25);
        s.push(',');
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "3.0,0.25,null");
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
