//! Hand-rolled HTTP/1.1 request reading and response writing.
//!
//! Deliberately minimal — one request per connection, `Connection: close`
//! on every response, no chunked bodies, no keep-alive — because every
//! feature is attack surface on a server whose job is to stay up. What
//! *is* here is defensive: absolute read deadlines (a slowloris client
//! cannot hold a worker past the configured window, however slowly it
//! drips bytes), hard caps on head and body sizes enforced *before*
//! allocation grows, and a strict parse that rejects anything ambiguous.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read-side limits for one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Cap on the request head (request line + headers), in bytes.
    pub max_header_bytes: usize,
    /// Cap on the declared and actual body size, in bytes.
    pub max_body_bytes: usize,
    /// Absolute deadline for receiving the full request head, measured
    /// from the first read.
    pub header_deadline: Duration,
    /// Absolute deadline for receiving the full body once the head is in.
    pub body_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            header_deadline: Duration::from_secs(2),
            body_deadline: Duration::from_secs(2),
        }
    }
}

/// A parsed request: method, split target, lower-cased headers, raw body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the target (before `?`).
    pub path: String,
    /// The raw query string (after `?`, empty if absent).
    pub query: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (at most [`Limits::max_body_bytes`]).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with (lower-case) name `name`, trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.trim())
    }

    /// The query string split into percent-decoded `key=value` pairs
    /// (`+` decodes to space; keys without `=` get an empty value).
    pub fn query_params(&self) -> Vec<(String, String)> {
        self.query
            .split('&')
            .filter(|part| !part.is_empty())
            .map(|part| {
                let (k, v) = part.split_once('=').unwrap_or((part, ""));
                (percent_decode(k), percent_decode(v))
            })
            .collect()
    }
}

/// Percent-decodes a query component (`%41` → `A`, `+` → space); invalid
/// escapes pass through verbatim rather than failing the request.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    let hi = (pair[0] as char).to_digit(16)?;
                    let lo = (pair[1] as char).to_digit(16)?;
                    Some((hi * 16 + lo) as u8)
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The client closed before sending a single byte — not an error
    /// worth answering (health probes do this); just drop the connection.
    Disconnected,
    /// The client tripped a read deadline (slowloris or stalled body).
    SlowClient,
    /// The request head outgrew [`Limits::max_header_bytes`].
    HeadersTooLarge,
    /// The declared `Content-Length` exceeds [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// What the client declared (or had sent when the cap tripped).
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Anything structurally wrong: bad request line, truncated head or
    /// body, unsupported transfer encoding, unparsable `Content-Length`.
    Malformed(String),
}

/// Reads one full request from `stream` under `limits`.
///
/// # Errors
///
/// See [`RequestError`]; the caller maps each variant onto the error
/// taxonomy (408 / 413 / 431 / 400) and answers accordingly.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, RequestError> {
    let start = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];

    // Phase 1: the request head, under an absolute deadline.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(RequestError::HeadersTooLarge);
        }
        let remaining = limits
            .header_deadline
            .checked_sub(start.elapsed())
            .ok_or(RequestError::SlowClient)?;
        match timed_read(stream, &mut chunk, remaining) {
            ReadStep::Data(n) => buf.extend_from_slice(&chunk[..n]),
            ReadStep::Eof if buf.is_empty() => return Err(RequestError::Disconnected),
            ReadStep::Eof => return Err(RequestError::Malformed("truncated request head".into())),
            ReadStep::TimedOut => return Err(RequestError::SlowClient),
            ReadStep::Failed(e) => {
                return Err(RequestError::Malformed(format!("read failed: {e}")))
            }
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    // Phase 2: the body. `Transfer-Encoding` is rejected outright; a
    // missing `Content-Length` means an empty body.
    let mut request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(RequestError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let declared: usize = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad content-length `{v}`")))?,
    };
    if declared > limits.max_body_bytes {
        return Err(RequestError::BodyTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }

    let mut body = buf.split_off(head_end + 4);
    body.truncate(declared);
    let body_start = Instant::now();
    while body.len() < declared {
        let remaining = limits
            .body_deadline
            .checked_sub(body_start.elapsed())
            .ok_or(RequestError::SlowClient)?;
        match timed_read(stream, &mut chunk, remaining) {
            ReadStep::Data(n) => {
                let take = n.min(declared - body.len());
                body.extend_from_slice(&chunk[..take]);
            }
            ReadStep::Eof => {
                return Err(RequestError::Malformed(format!(
                    "truncated body: got {} of {declared} declared byte(s)",
                    body.len()
                )))
            }
            ReadStep::TimedOut => return Err(RequestError::SlowClient),
            ReadStep::Failed(e) => {
                return Err(RequestError::Malformed(format!("read failed: {e}")))
            }
        }
    }
    request.body = body;
    Ok(request)
}

/// One bounded read attempt.
enum ReadStep {
    Data(usize),
    Eof,
    TimedOut,
    Failed(std::io::Error),
}

fn timed_read(stream: &mut TcpStream, chunk: &mut [u8], remaining: Duration) -> ReadStep {
    // A zero timeout is "no timeout" to the OS; clamp up instead.
    let timeout = remaining.max(Duration::from_millis(1));
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return ReadStep::Failed(std::io::Error::other("set_read_timeout failed"));
    }
    match stream.read(chunk) {
        Ok(0) => ReadStep::Eof,
        Ok(n) => ReadStep::Data(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            ReadStep::TimedOut
        }
        Err(e) => ReadStep::Failed(e),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete JSON response (`Connection: close`) with one
/// `write_all` of head and body together, and flushes.
///
/// # Errors
///
/// Propagates I/O failures; callers treat a failed write as a dead
/// client and simply drop the connection.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         content-type: application/json\r\n\
         content-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8], limits: &Limits) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open long enough for the server side to
            // finish reading, then drop it.
            std::thread::sleep(Duration::from_millis(50));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, limits);
        client.join().unwrap();
        result
    }

    #[test]
    fn parses_a_full_post() {
        let raw = b"POST /place?env=grid:2x3&circuit=qec3 HTTP/1.1\r\n\
                    Host: x\r\nContent-Length: 5\r\nX-Qcp-Chaos: panic\r\n\r\nhello";
        let req = roundtrip(raw, &Limits::default()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/place");
        assert_eq!(req.header("x-qcp-chaos"), Some("panic"));
        assert_eq!(req.body, b"hello");
        let params = req.query_params();
        assert_eq!(params[0], ("env".into(), "grid:2x3".into()));
        assert_eq!(params[1], ("circuit".into(), "qec3".into()));
    }

    #[test]
    fn rejects_declared_oversize_without_reading_the_body() {
        let raw = b"POST /place HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        match roundtrip(raw, &Limits::default()) {
            Err(RequestError::BodyTooLarge { declared, .. }) => {
                assert_eq!(declared, 999_999_999);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slow_header_trips_the_deadline() {
        let limits = Limits {
            header_deadline: Duration::from_millis(120),
            ..Limits::default()
        };
        // Partial head, never completed: the absolute deadline must trip.
        let raw = b"POST /place HTTP/1.1\r\nHost: x";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw).unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let result = read_request(&mut stream, &limits);
        assert_eq!(result, Err(RequestError::SlowClient));
        assert!(started.elapsed() < Duration::from_millis(350));
        client.join().unwrap();
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        match roundtrip(raw, &Limits::default()) {
            Err(RequestError::Malformed(m)) => assert!(m.contains("truncated body"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_flood_is_capped() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("x-flood-{i}: aaaaaaaaaaaa\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(
            roundtrip(&raw, &Limits::default()),
            Err(RequestError::HeadersTooLarge)
        );
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        assert!(matches!(
            roundtrip(b"NOT-HTTP\r\n\r\n", &Limits::default()),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"GET / SMTP/9\r\n\r\n", &Limits::default()),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn a_response_is_one_write_of_pinned_bytes() {
        /// Records each `write` call's bytes.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writes = Writes(Vec::new());
        write_response(&mut writes, 404, "Not Found", "{\"ok\":false}").unwrap();
        let wire: &[u8] = b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
                            content-length: 12\r\nconnection: close\r\n\r\n{\"ok\":false}";
        assert_eq!(writes.0, [wire]);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("grid%3A8x8"), "grid:8x8");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("%4"), "%4");
    }
}
