//! The coordinator ↔ shard-worker wire protocol: length-prefixed JSON
//! frames over one persistent TCP connection per shard.
//!
//! Framing is a 4-byte little-endian payload length followed by one
//! UTF-8 JSON object (`{"type":"assign",...}`). JSON keeps the frames
//! debuggable with `nc`/`xxd` and reuses the canonical spec and record
//! codecs verbatim: a [`Frame::Run`] carries the job's
//! `spec_json::spec_to_json` text, a [`Frame::Record`] the record's
//! exact NDJSON line — so both sides compute identical cell keys and the
//! coordinator republishes the worker's bytes untouched.
//!
//! ## Conversation
//!
//! ```text
//! coordinator → worker    Hello{shard,shards}     once per connection
//! worker → coordinator    Ready{shard}            handshake ack
//! coordinator → worker    Run{job,cell,spec_json} one claimed cell
//! worker → coordinator    Progress …, Record      that cell's answer
//! worker → coordinator    Heartbeat               liveness while idle
//! coordinator → worker    Cancel{job}             cooperative cancel
//! coordinator → worker    Shutdown                graceful drain request
//! worker → coordinator    Bye                     drain done, closing
//! ```
//!
//! The coordinator sends the next `Run` only after the previous cell's
//! `Record` arrived, so a worker has at most one cell in flight. Every
//! `Run` is answered by exactly one `Record` unless the session dies.

use dispersion_sim::json::{fmt_str, fmt_u64, Json};
use std::io::{self, Read, Write};

/// Frame payload size cap (matches the HTTP body cap; a spec or record
/// line is orders of magnitude smaller).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// One protocol frame. See the module docs for the conversation shape.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Coordinator opener: which shard this connection drives.
    Hello {
        /// Shard id in `0..shards`.
        shard: u64,
        /// Total shard count `k`.
        shards: u64,
    },
    /// Worker handshake ack, echoing the shard id.
    Ready {
        /// The shard id from the `Hello`.
        shard: u64,
    },
    /// Run one cell of a job and answer with its `Record`.
    Run {
        /// Job id.
        job: u64,
        /// Cell index.
        cell: u64,
        /// Canonical spec JSON of the whole job (`spec_json::spec_to_json`).
        spec_json: String,
    },
    /// Cooperative cancel of one job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Graceful drain: finish the current cell, fsync, `Bye`, exit.
    Shutdown,
    /// Chunk-grained progress (doubles as a liveness signal under load).
    Progress {
        /// Job id.
        job: u64,
        /// Cell index.
        cell: u64,
        /// Trials finished in this chunk.
        trials: u64,
        /// Walk steps performed in this chunk.
        steps: u64,
    },
    /// One completed cell's record, as its exact NDJSON line (no newline).
    Record {
        /// Job id.
        job: u64,
        /// Cell index.
        cell: u64,
        /// The record's canonical NDJSON line.
        line: String,
    },
    /// Idle liveness beacon.
    Heartbeat,
    /// Clean close after a drain.
    Bye,
}

impl Frame {
    /// The frame's JSON payload (no length prefix).
    pub fn to_json(&self) -> String {
        match self {
            Frame::Hello { shard, shards } => format!(
                "{{\"type\":\"hello\",\"shard\":{},\"shards\":{}}}",
                fmt_u64(*shard),
                fmt_u64(*shards)
            ),
            Frame::Ready { shard } => {
                format!("{{\"type\":\"ready\",\"shard\":{}}}", fmt_u64(*shard))
            }
            Frame::Run {
                job,
                cell,
                spec_json,
            } => format!(
                "{{\"type\":\"run\",\"job\":{},\"cell\":{},\"spec_json\":{}}}",
                fmt_u64(*job),
                fmt_u64(*cell),
                fmt_str(spec_json)
            ),
            Frame::Cancel { job } => format!("{{\"type\":\"cancel\",\"job\":{}}}", fmt_u64(*job)),
            Frame::Shutdown => "{\"type\":\"shutdown\"}".into(),
            Frame::Progress {
                job,
                cell,
                trials,
                steps,
            } => format!(
                "{{\"type\":\"progress\",\"job\":{},\"cell\":{},\"trials\":{},\"steps\":{}}}",
                fmt_u64(*job),
                fmt_u64(*cell),
                fmt_u64(*trials),
                fmt_u64(*steps)
            ),
            Frame::Record { job, cell, line } => format!(
                "{{\"type\":\"record\",\"job\":{},\"cell\":{},\"line\":{}}}",
                fmt_u64(*job),
                fmt_u64(*cell),
                fmt_str(line)
            ),
            Frame::Heartbeat => "{\"type\":\"heartbeat\"}".into(),
            Frame::Bye => "{\"type\":\"bye\"}".into(),
        }
    }

    /// Parses a frame from its JSON payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `type`, or missing fields.
    pub fn from_json(text: &str) -> Result<Frame, String> {
        let v = Json::parse(text)?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("frame has no \"type\"")?;
        let u = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{ty:?} frame: missing/invalid {key:?}"))
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{ty:?} frame: missing/invalid {key:?}"))
        };
        Ok(match ty {
            "hello" => Frame::Hello {
                shard: u("shard")?,
                shards: u("shards")?,
            },
            "ready" => Frame::Ready { shard: u("shard")? },
            "run" => Frame::Run {
                job: u("job")?,
                cell: u("cell")?,
                spec_json: s("spec_json")?,
            },
            "cancel" => Frame::Cancel { job: u("job")? },
            "shutdown" => Frame::Shutdown,
            "progress" => Frame::Progress {
                job: u("job")?,
                cell: u("cell")?,
                trials: u("trials")?,
                steps: u("steps")?,
            },
            "record" => Frame::Record {
                job: u("job")?,
                cell: u("cell")?,
                line: s("line")?,
            },
            "heartbeat" => Frame::Heartbeat,
            "bye" => Frame::Bye,
            other => return Err(format!("unknown frame type {other:?}")),
        })
    }
}

/// Writes one length-prefixed frame and flushes it.
///
/// # Errors
///
/// Transport failures.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = frame.to_json();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// anything torn is an error.
///
/// # Errors
///
/// Transport failures, truncated frames, oversized lengths, and
/// unparseable payloads.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame length",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Frame::from_json(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                shard: 1,
                shards: 4,
            },
            Frame::Ready { shard: 1 },
            Frame::Run {
                job: 7,
                cell: 2,
                spec_json: "{\"seed\":1,\"cells\":[]}".into(),
            },
            Frame::Cancel { job: 7 },
            Frame::Shutdown,
            Frame::Progress {
                job: 7,
                cell: 5,
                trials: 8,
                steps: 123_456,
            },
            Frame::Record {
                job: 7,
                cell: 5,
                line: "{\"cell\":5,\"key\":\"k\\\"ey\"}".into(),
            },
            Frame::Heartbeat,
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_roundtrip_through_json() {
        for f in all_frames() {
            let back = Frame::from_json(&f.to_json()).unwrap();
            assert_eq!(back, f, "json was {}", f.to_json());
        }
    }

    #[test]
    fn frames_roundtrip_through_the_wire_form() {
        let mut buf = Vec::new();
        for f in all_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut r = &buf[..];
        for f in all_frames() {
            assert_eq!(read_frame(&mut r).unwrap(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at the end");
    }

    #[test]
    fn torn_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat).unwrap();
        // cut inside the payload
        let torn = &buf[..buf.len() - 2];
        let mut r = torn;
        assert!(read_frame(&mut r).is_err());
        // cut inside the length prefix
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        // an absurd length prefix is rejected before allocation
        let huge = u32::MAX.to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
        // unknown type
        assert!(Frame::from_json("{\"type\":\"nope\"}").is_err());
    }

    #[test]
    fn large_u64s_survive_the_string_encoding() {
        let f = Frame::Progress {
            job: 1,
            cell: 0,
            trials: 3,
            steps: u64::MAX - 1,
        };
        assert_eq!(Frame::from_json(&f.to_json()).unwrap(), f);
    }
}
