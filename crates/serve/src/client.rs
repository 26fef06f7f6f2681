//! A minimal blocking HTTP/1.1 client for the serve API — what the test
//! suites, the soak driver and the overhead bench talk to the server
//! with. One connection per request (mirroring the server's
//! `Connection: close` policy); chunked responses are decoded
//! incrementally so record streams surface line by line as cells finish.

use dispersion_sim::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A decoded HTTP response (chunked bodies already de-framed).
#[derive(Clone, Debug)]
// LINT: unused-pub-ok — returned by the public `Client` request methods
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lower-cased header pairs.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
}

fn read_head<R: BufRead>(r: &mut R) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status {line:?}"))
        })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Reads one chunk of a chunked body; `None` at the terminating chunk.
fn read_chunk<R: BufRead>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut size_line = String::new();
    r.read_line(&mut size_line)?;
    let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad chunk size {size_line:?}"),
        )
    })?;
    if size == 0 {
        let mut crlf = String::new();
        let _ = r.read_line(&mut crlf);
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    r.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    r.read_exact(&mut crlf)?;
    Ok(Some(data))
}

impl Client {
    /// A client for the given address.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    }

    fn send<W: Write>(
        w: &mut W,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        write!(w, "{method} {path} HTTP/1.1\r\nHost: serve\r\n")?;
        for (k, v) in headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        write!(w, "Content-Length: {}\r\n\r\n", body.len())?;
        w.write_all(body)?;
        w.flush()
    }

    /// One request/response exchange. Chunked bodies are fully drained
    /// (use [`Client::stream_records`] to observe a stream
    /// incrementally).
    ///
    /// # Errors
    ///
    /// Connection failures and malformed responses.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut stream = self.connect()?;
        Self::send(&mut stream, method, path, headers, body)?;
        let mut r = BufReader::new(stream);
        let (status, headers) = read_head(&mut r)?;
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let mut body = Vec::new();
        if chunked {
            while let Some(chunk) = read_chunk(&mut r)? {
                body.extend_from_slice(&chunk);
            }
        } else if let Some(len) = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
        {
            body = vec![0u8; len];
            r.read_exact(&mut body)?;
        } else {
            r.read_to_end(&mut body)?;
        }
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// Submits a spec (`POST /jobs`) and returns the job id.
    ///
    /// # Errors
    ///
    /// Transport failures and non-201 responses (with their body).
    pub fn submit(&self, spec_json: &str) -> Result<u64, String> {
        let resp = self
            .request(
                "POST",
                "/jobs",
                &[("Content-Type", "application/json")],
                spec_json.as_bytes(),
            )
            .map_err(|e| format!("transport: {e}"))?;
        if resp.status != 201 {
            return Err(format!("POST /jobs -> {}: {}", resp.status, resp.text()));
        }
        Json::parse(&resp.text())
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("unparseable submit response {:?}", resp.text()))
    }

    /// Fetches a job's status document (`GET /jobs/<id>`).
    ///
    /// # Errors
    ///
    /// Transport failures and non-200 responses.
    pub fn status(&self, id: u64) -> Result<String, String> {
        let resp = self
            .request("GET", &format!("/jobs/{id}"), &[], b"")
            .map_err(|e| format!("transport: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /jobs/{id} -> {}", resp.status));
        }
        Ok(resp.text())
    }

    /// The `"status"` field of a job's status document.
    ///
    /// # Errors
    ///
    /// Same as [`Client::status`].
    pub fn status_label(&self, id: u64) -> Result<String, String> {
        let text = self.status(id)?;
        Json::parse(&text)
            .ok()
            .and_then(|v| v.get("status").and_then(|s| s.as_str().map(String::from)))
            .ok_or_else(|| format!("unparseable status {text:?}"))
    }

    /// Cancels a job (`DELETE /jobs/<id>`); `Ok(false)` for 404.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn cancel(&self, id: u64) -> io::Result<bool> {
        Ok(self
            .request("DELETE", &format!("/jobs/{id}"), &[], b"")?
            .status
            == 200)
    }

    /// Streams `GET /jobs/<id>/records` starting after the first `from`
    /// records, invoking `on_line` per NDJSON line as it arrives, until
    /// the server terminates the stream. Returns how many lines arrived
    /// (so the caller's next resume offset is `from + returned`).
    ///
    /// # Errors
    ///
    /// Transport failures — including the server dying mid-stream, which
    /// is exactly when the caller retries with an updated `Last-Record`.
    pub fn stream_records(
        &self,
        id: u64,
        from: usize,
        on_line: &mut dyn FnMut(&str),
    ) -> io::Result<usize> {
        let mut stream = self.connect()?;
        let from_str = from.to_string();
        Self::send(
            &mut stream,
            "GET",
            &format!("/jobs/{id}/records"),
            &[("Last-Record", &from_str)],
            b"",
        )?;
        let mut r = BufReader::new(stream);
        let (status, _) = read_head(&mut r)?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "GET /jobs/{id}/records -> {status}"
            )));
        }
        let mut pending = Vec::new();
        let mut lines = 0;
        while let Some(chunk) = read_chunk(&mut r)? {
            pending.extend_from_slice(&chunk);
            while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                on_line(&line);
                lines += 1;
            }
        }
        Ok(lines)
    }

    /// Polls `GET /jobs/<id>` until its status reaches one of `until`
    /// (e.g. `["done", "error"]`) or the deadline passes.
    ///
    /// # Errors
    ///
    /// Timeout (with the last observed status) or transport failures.
    pub fn wait_for(&self, id: u64, until: &[&str], timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let label = self.status_label(id)?;
            if until.contains(&label.as_str()) {
                return Ok(label);
            }
            if Instant::now() > deadline {
                return Err(format!("job {id} still {label:?} after {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Capped exponential backoff with deterministic jitter, for retrying
/// transient connection failures (the shard pool's reconnect loop uses
/// it; embedders retrying [`Client`] calls can too).
///
/// The jitter is drawn from a SplitMix64 stream seeded by the caller
/// (pass something role-distinct, e.g. the shard id), keeping retry
/// schedules reproducible and de-synchronised across peers without
/// touching any entropy source — the same RNG discipline the simulator
/// follows.
#[derive(Clone, Debug)]
pub struct Backoff {
    state: u64,
    attempt: u32,
    base: Duration,
    cap: Duration,
}

impl Backoff {
    /// A fresh schedule: delays grow `base`, `2·base`, `4·base`, …
    /// capped at `cap`, each scaled by a jitter factor in `[0.5, 1.0)`
    /// from the `stream`-seeded SplitMix64 sequence.
    pub fn new(stream: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            state: stream,
            attempt: 0,
            base,
            cap,
        }
    }

    /// The reconnect profile the shard pool uses: 50ms base, 2s cap.
    pub fn reconnect(stream: u64) -> Backoff {
        Backoff::new(stream, Duration::from_millis(50), Duration::from_secs(2))
    }

    /// Next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // 53 uniform bits → factor in [0.5, 1.0): full jitter halves the
        // worst-case thundering herd without ever shortening the base
        let frac =
            (dispersion_sim::rng::splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * frac)
    }

    /// Forgets past failures (call after a successful attempt).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let mut a = Backoff::new(7, Duration::from_millis(50), Duration::from_secs(2));
        let mut b = Backoff::new(7, Duration::from_millis(50), Duration::from_secs(2));
        let da: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same stream, same schedule");
        for (i, d) in da.iter().enumerate() {
            let exp = Duration::from_millis(50)
                .saturating_mul(1 << i.min(16))
                .min(Duration::from_secs(2));
            assert!(*d >= exp.mul_f64(0.5) && *d <= exp, "attempt {i}: {d:?}");
        }
        // a different stream jitters differently
        let mut c = Backoff::new(8, Duration::from_millis(50), Duration::from_secs(2));
        let dc: Vec<Duration> = (0..12).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc);
        // reset rewinds the exponent, not the jitter stream
        a.reset();
        assert!(a.next_delay() <= Duration::from_millis(50));
    }
}
