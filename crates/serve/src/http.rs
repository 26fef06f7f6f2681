//! A deliberately small HTTP/1.1 implementation over blocking sockets:
//! request parsing with hard size caps, fixed-length responses, and a
//! chunked-transfer writer for the NDJSON record streams.
//!
//! One request per connection (`Connection: close` on every response):
//! the API's expensive call is the record stream, which monopolises its
//! connection anyway, and dropping keep-alive keeps the state machine
//! trivial. Bodies require `Content-Length`; chunked *requests* are
//! rejected — no client of this API needs them.

use std::io::{self, BufRead, Write};

/// Cap on the request line plus all headers.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a request body (specs are small; this is a DoS guard, not a
/// capacity plan).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target, e.g. `/jobs/3/records`.
    pub path: String,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one line terminated by `\n`, enforcing a byte budget shared
/// across the whole head. Returns the line without its terminator.
fn read_line_capped<R: BufRead>(r: &mut R, budget: &mut usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
            _ => {
                *budget = budget.checked_sub(1).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "request head too large")
                })?;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                line.push(byte[0]);
            }
        }
    }
}

/// Parses one request from the stream. `Ok(None)` means the peer closed
/// the connection before sending anything (a normal end, not an error).
///
/// # Errors
///
/// I/O failures, oversized heads/bodies, malformed request lines, and
/// chunked request bodies all surface as `io::Error`s — the connection
/// handler drops the connection in response.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(line) = read_line_capped(r, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line {line:?}"),
        ));
    };
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line_capped(r, &mut budget)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        };
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }

    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "chunked request bodies are not supported",
        ));
    }
    if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request body too large",
            ));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        req.body = body;
    }
    Ok(Some(req))
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response and flushes.
///
/// # Errors
///
/// Propagates socket write failures (the peer usually went away).
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Writes a `Transfer-Encoding: chunked` response incrementally: one
/// [`ChunkedWriter::chunk`] call per payload piece (the server sends one
/// NDJSON record line per chunk), then [`ChunkedWriter::finish`] for the
/// terminating zero-length chunk. Every chunk is flushed immediately so a
/// streaming client sees records as cells complete.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn begin(mut w: W, status: u16, content_type: &str) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type,
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Sends one non-empty chunk (empty input is skipped: a zero-length
    /// chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let raw = b"GET /healthz HTTP/1.1\nX: y\n\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("x"), Some("y"));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn chunked_request_body_rejected() {
        let raw = b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn respond_writes_content_length() {
        let mut out = Vec::new();
        respond(&mut out, 404, "text/plain", b"nope").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        {
            let mut cw = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson").unwrap();
            cw.chunk(b"hello\n").unwrap();
            cw.chunk(b"").unwrap(); // skipped, must not terminate
            cw.chunk(b"world\n").unwrap();
            cw.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(
            text.contains("6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"),
            "{text}"
        );
    }
}
